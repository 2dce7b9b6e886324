"""AST lint pass encoding this repo's invariants (``repro lint``).

Rules — each guards a convention the rest of the codebase relies on:

- **REPRO001** no global-RNG ``np.random.*`` calls: randomness must flow
  through explicit ``Generator`` objects so seeds stay reproducible.
- **REPRO002** no bare ndarray arithmetic on ``Tensor.data``, and no
  in-place store into it (``x.data[i] = v``), outside ``nn/``: math on
  ``.data`` bypasses the autograd tape and silently drops gradients,
  and a store bypasses the weight epoch (use ``Parameter.assign``).
- **REPRO003** no mutable default arguments.
- **REPRO004** serve-path ``.forward(...)`` calls must sit lexically
  inside an inference context (``inference_mode()`` /
  ``model.inference()``) so serving never records a tape.
- **REPRO005** public functions in ``analysis`` / ``serve`` / ``runtime``
  must carry full parameter and return annotations — these are the
  packages other tooling introspects.
- **REPRO006** op math must go through the op table: inside ``nn/`` only
  the op seam itself (``backend.py``, ``tensor.py``, ``optim.py``) may do
  raw ``.data`` arithmetic — elsewhere it bypasses the
  :mod:`repro.nn.backend` op table, and op math outside the table is
  neither taped nor observed.  Likewise only ``module.py`` may store
  into ``.data`` in place: its ``Parameter.assign`` moves the weight
  epoch after the store, and a store anywhere else would change weights
  under every memo keyed on that epoch (the serve cache's model
  fingerprint, the retriever's corpus index).
- **REPRO007** no silent exception swallowing: bare ``except:`` is
  always flagged, and ``except X: pass`` (a handler whose body is only
  ``pass``/``...``) is flagged unless *every* caught exception is on
  the shutdown-noise allowlist (``KeyboardInterrupt``, ``EOFError``,
  ``BrokenPipeError``, ``StopIteration``, ``GeneratorExit``).  Broad
  classes like ``Exception`` or ``OSError`` silently ``pass``-ed have
  repeatedly hidden real worker/transport failures — handle them, name
  a narrower type, or at minimum record why ignoring is correct in the
  handler body.
- **REPRO008** guarded attributes (``# guarded-by:`` annotations plus
  lock-usage inference) must not be read or written outside their lock
  on thread-reachable paths — see :mod:`repro.analysis.concurrency`.
- **REPRO009** no lock-order cycles in the static acquisition graph
  and no blocking calls (``sleep``, pipe IO, untimed ``wait``/``join``)
  while holding a lock — see :mod:`repro.analysis.concurrency`.

Rule applicability is decided from *directory parts* of each file's
path (``nn``, ``serve``, ...), so fixture trees in tests exercise the
same logic as the real source tree.  REPRO008/REPRO009 are whole-tree
passes (guard maps and the lock graph span files), so they run from
:func:`run_lint` rather than :func:`lint_source`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["LintFinding", "run_lint", "lint_file", "lint_source", "RULES"]

RULES: dict[str, str] = {
    "REPRO001": "np.random.* global-RNG call (pass a Generator instead)",
    "REPRO002": "ndarray arithmetic on, or store into, Tensor.data outside nn/",
    "REPRO003": "mutable default argument",
    "REPRO004": "serve-path forward() outside an inference context",
    "REPRO005": "public function missing type annotations",
    "REPRO006": "op math must go through the op table, weight stores "
                "through Parameter.assign",
    "REPRO007": "exception silently swallowed (bare except / except-pass)",
    "REPRO008": "guarded attribute accessed outside its lock",
    "REPRO009": "lock-order hazard (cycle or blocking call under lock)",
}

#: Exceptions whose silent suppression is legitimate shutdown noise —
#: ``except <these>: pass`` is allowed; anything broader must handle.
_SILENCEABLE_EXCEPTIONS = frozenset({
    "KeyboardInterrupt", "EOFError", "BrokenPipeError", "StopIteration",
    "GeneratorExit",
})

#: nn/ modules that *are* the op seam — the only places raw ``.data``
#: arithmetic is the implementation rather than a bypass.
_OP_SEAM_FILES = frozenset({
    "backend.py", "tensor.py", "optim.py",
})

#: The nn/ module whose in-place ``.data`` store is the implementation:
#: ``Parameter.assign`` stores, then moves the weight epoch.  The op seam
#: is not exempt — a store there would skip the epoch too.
_WEIGHT_STORE_FILES = frozenset({"module.py"})

#: ``np.random.<name>`` calls that are construction, not global state.
_RNG_FACTORY_NAMES = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    "Philox", "SFC64", "MT19937",
})

_ANNOTATED_PACKAGES = frozenset({"analysis", "serve", "runtime"})


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _is_np_random_attr(node: ast.AST) -> str | None:
    """Return the trailing attribute of ``np.random.X`` / ``numpy.random.X``."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if (isinstance(value, ast.Attribute) and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in ("np", "numpy")):
        return node.attr
    return None


def _is_data_access(node: ast.AST) -> bool:
    """True for ``x.data`` and for subscripts of it (``x.data[i]``)."""
    if isinstance(node, ast.Subscript):
        return _is_data_access(node.value)
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _is_data_store(target: ast.AST) -> bool:
    """True when an assignment target stores into ``x.data[...]``."""
    return any(isinstance(node, ast.Subscript)
               and isinstance(node.ctx, ast.Store)
               and _is_data_access(node.value)
               for node in ast.walk(target))


def _mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set"))


def _body_is_pass(body: list[ast.stmt]) -> bool:
    """True when a handler body does nothing (only ``pass``/``...``)."""
    return all(isinstance(statement, ast.Pass)
               or (isinstance(statement, ast.Expr)
                   and isinstance(statement.value, ast.Constant)
                   and statement.value.value is Ellipsis)
               for statement in body)


def _exception_names(node: ast.expr) -> list[str]:
    """The caught exception names of an ``except`` clause, flattened.

    ``except (A, B)`` yields both; dotted names yield their last
    attribute; anything unrecognizable yields nothing (and the caller
    treats the clause as not allowlisted).
    """
    if isinstance(node, ast.Tuple):
        names: list[str] = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _missing_annotations(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = (node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            + ([node.args.vararg] if node.args.vararg else [])
            + ([node.args.kwarg] if node.args.kwarg else []))
    for i, arg in enumerate(args):
        if i == 0 and arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            return True
    return node.returns is None


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, parts: frozenset[str],
                 select: frozenset[str] | None) -> None:
        self.path = path
        self.in_nn = "nn" in parts
        self.in_serve = "serve" in parts
        name = Path(path).name
        self.in_op_seam = name in _OP_SEAM_FILES
        self.in_weight_store = name in _WEIGHT_STORE_FILES
        self.needs_annotations = bool(parts & _ANNOTATED_PACKAGES)
        self.select = select
        self.findings: list[LintFinding] = []
        self._inference_depth = 0

    # ------------------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, detail: str = "") -> None:
        if self.select is not None and rule not in self.select:
            return
        message = RULES[rule] + (f" ({detail})" if detail else "")
        self.findings.append(LintFinding(
            self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0), rule, message))

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        attr = _is_np_random_attr(node.func)
        if attr is not None and attr not in _RNG_FACTORY_NAMES:
            self._report("REPRO001", node, f"np.random.{attr}")
        if (self.in_serve and self._inference_depth == 0
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "forward"):
            self._report("REPRO004", node)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        inference = any("inference" in ast.unparse(item.context_expr)
                        for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if inference:
            self._inference_depth += 1
        for statement in node.body:
            self.visit(statement)
        if inference:
            self._inference_depth -= 1

    def _check_data(self, node: ast.AST, store: bool) -> None:
        """REPRO002 outside nn/; inside it, REPRO006 outside the files
        where this ``.data`` access is the implementation."""
        if not self.in_nn:
            self._report("REPRO002", node,
                         "in-place store into .data" if store else "")
        elif store and not self.in_weight_store:
            self._report("REPRO006", node,
                         "in-place store into .data outside Parameter.assign")
        elif not store and not self.in_op_seam:
            self._report("REPRO006", node, "raw .data arithmetic inside nn/")

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if _is_data_access(node.left) or _is_data_access(node.right):
            self._check_data(node, store=False)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if _is_data_store(node.target):
            self._check_data(node, store=True)
        elif _is_data_access(node.target) or _is_data_access(node.value):
            self._check_data(node, store=False)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(_is_data_store(target) for target in node.targets):
            self._check_data(node, store=True)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report("REPRO007", node, "bare except:")
        elif _body_is_pass(node.body):
            caught = _exception_names(node.type)
            silenced = [name for name in caught
                        if name not in _SILENCEABLE_EXCEPTIONS]
            if silenced or not caught:
                self._report("REPRO007", node,
                             f"except {', '.join(caught) or '?'}: pass")
        self.generic_visit(node)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for default in node.args.defaults + [
                d for d in node.args.kw_defaults if d is not None]:
            if _mutable_default(default):
                self._report("REPRO003", default, node.name)
        public = not node.name.startswith("_")
        if self.needs_annotations and public and _missing_annotations(node):
            self._report("REPRO005", node, node.name)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


def lint_source(source: str, path: str,
                select: Iterable[str] | None = None) -> list[LintFinding]:
    """Lint one unit of python source; ``path`` decides rule scoping."""
    parts = frozenset(Path(path).parts[:-1])
    visitor = _Visitor(path, parts,
                       frozenset(select) if select is not None else None)
    visitor.visit(ast.parse(source, filename=path))
    return visitor.findings


def lint_file(path: str | Path,
              select: Iterable[str] | None = None) -> list[LintFinding]:
    """Lint one file."""
    path = Path(path)
    return lint_source(path.read_text(), str(path), select=select)


def run_lint(paths: Sequence[str | Path],
             select: Iterable[str] | None = None) -> list[LintFinding]:
    """Lint files and directory trees; returns findings in path order."""
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    findings: list[LintFinding] = []
    for file in files:
        findings.extend(lint_file(file, select=select))
    chosen = frozenset(select) if select is not None else None
    if chosen is None or chosen & {"REPRO008", "REPRO009"}:
        # Whole-tree pass: guard maps and the lock-acquisition graph
        # span files, so the concurrency rules run over the file set.
        from .concurrency import analyze_files
        findings.extend(analyze_files(files, select=chosen).findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
