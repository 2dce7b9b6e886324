"""Lint rules fire on fixture snippets and stay silent on src/."""

import textwrap

from repro.analysis import RULES, lint_source, run_lint


def _findings(source, path="src/repro/example.py", select=None):
    return lint_source(textwrap.dedent(source), path, select=select)


def _rules(findings):
    return [finding.rule for finding in findings]


def test_repro001_global_rng_call_fires():
    findings = _findings("""
        import numpy as np
        x = np.random.rand(3)
    """)
    assert _rules(findings) == ["REPRO001"]


def test_repro001_factory_calls_are_allowed():
    assert _findings("""
        import numpy as np
        rng = np.random.default_rng(0)
        ss = np.random.SeedSequence(7)
    """) == []


def test_repro002_raw_data_arithmetic_outside_nn_fires():
    findings = _findings("""
        y = tensor.data * 2
    """, path="src/repro/tasks/qa.py")
    assert _rules(findings) == ["REPRO002"]
    # The same expression inside nn/ is the autograd implementation itself.
    assert _findings("""
        y = tensor.data * 2
    """, path="src/repro/nn/tensor.py") == []


def test_repro002_augassign_and_subscript_fire():
    findings = _findings("""
        tensor.data[0] += 1
    """, path="src/repro/tasks/qa.py")
    assert _rules(findings) == ["REPRO002"]


def test_data_stores_fire_outside_parameter_assign():
    source = """
        param.data[...] = value
        param.data[0, 1:] = value
        param.data[0] += 1
    """
    assert _rules(_findings(source, path="src/repro/tasks/qa.py")) == \
        ["REPRO002"] * 3
    # The op seam stores no weights: a store there would skip the epoch.
    for name in ("layers.py", "optim.py", "tensor.py"):
        assert _rules(_findings(source, path=f"src/repro/nn/{name}")) == \
            ["REPRO006"] * 3
    # module.py holds Parameter.assign, which stores, then moves the epoch.
    assert _findings(source, path="src/repro/nn/module.py") == []


def test_data_rebinding_and_copies_are_not_stores():
    assert _findings("""
        param.data = param.data.copy()
        values[...] = param.data
        batch.token_ids[0] = 1
    """, path="src/repro/nn/layers.py") == []


def test_repro003_mutable_default_fires():
    findings = _findings("""
        def build(items=[]):
            return items
    """)
    assert _rules(findings) == ["REPRO003"]
    assert _findings("""
        def build(items=None):
            return items
    """) == []


def test_repro004_bare_forward_in_serve_fires():
    source = """
        def run(model, batch):
            return model.forward(batch)
    """
    findings = _findings(source, path="src/repro/serve/engine.py")
    assert "REPRO004" in _rules(findings)
    # Outside serve/ the rule does not apply.
    assert "REPRO004" not in _rules(
        _findings(source, path="src/repro/tasks/qa.py"))


def test_repro004_inference_context_suppresses():
    findings = _findings("""
        def run(model, batch):
            with model.inference():
                return model.forward(batch)
    """, path="src/repro/serve/engine.py")
    assert "REPRO004" not in _rules(findings)


def test_repro005_missing_annotations_fire_in_analysis():
    source = """
        def infer(module, spec):
            return spec
    """
    findings = _findings(source, path="src/repro/analysis/infer.py")
    assert "REPRO005" in _rules(findings)
    # Private helpers and out-of-scope packages are exempt.
    assert _findings("""
        def _infer(module, spec):
            return spec
    """, path="src/repro/analysis/infer.py") == []
    assert _findings(source, path="src/repro/tasks/qa.py") == []


def test_repro005_fully_annotated_passes():
    assert _findings("""
        def infer(module: object, spec: int) -> int:
            return spec
    """, path="src/repro/analysis/infer.py") == []


def test_repro006_data_arithmetic_inside_nn_fires():
    findings = _findings("""
        y = tensor.data * 2
    """, path="src/repro/nn/layers.py")
    assert _rules(findings) == ["REPRO006"]
    findings = _findings("""
        tensor.data[0] += 1
    """, path="src/repro/nn/attention.py")
    assert _rules(findings) == ["REPRO006"]


def test_repro006_backend_seam_is_exempt():
    source = """
        y = tensor.data * 2
    """
    for seam in ("backend.py", "tensor.py", "optim.py"):
        assert _findings(source, path=f"src/repro/nn/{seam}") == []


def test_repro007_bare_except_fires():
    findings = _findings("""
        try:
            work()
        except:
            handle()
    """)
    assert _rules(findings) == ["REPRO007"]


def test_repro007_broad_except_pass_fires():
    for caught in ("Exception", "OSError", "(ValueError, OSError)",
                   "socket.error"):
        findings = _findings(f"""
            try:
                work()
            except {caught}:
                pass
        """)
        assert _rules(findings) == ["REPRO007"], caught
    # An ellipsis body is the same silent swallow in disguise.
    findings = _findings("""
        try:
            work()
        except Exception:
            ...
    """)
    assert _rules(findings) == ["REPRO007"]


def test_repro007_shutdown_noise_allowlist_passes():
    assert _findings("""
        try:
            work()
        except (EOFError, KeyboardInterrupt):
            pass
    """) == []
    assert _findings("""
        try:
            work()
        except BrokenPipeError:
            pass
    """) == []


def test_repro007_handled_broad_except_passes():
    # A body that does something (even just logging/re-raising) is not
    # a silent swallow; the rule only polices empty handlers.
    assert _findings("""
        try:
            work()
        except OSError as error:
            log(error)
    """) == []


def test_select_filters_rules():
    source = """
        import numpy as np
        def build(items=[]):
            return np.random.rand(3)
    """
    assert set(_rules(_findings(source))) == {"REPRO001", "REPRO003"}
    assert _rules(_findings(source, select={"REPRO003"})) == ["REPRO003"]


def test_finding_renders_location_and_rule():
    finding = _findings("x = np.random.rand()")[0]
    text = str(finding)
    assert "src/repro/example.py" in text
    assert "REPRO001" in text


def test_every_rule_has_a_description():
    assert set(RULES) == {f"REPRO00{n}" for n in range(1, 10)}
    assert all(RULES.values())


def test_src_tree_is_clean():
    assert run_lint(["src"]) == []
