"""Helpers shared by the workloads: paths, subprocess environment, the
memory sampler, the input digest and the result record."""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

ROOT = Path(__file__).resolve().parents[2]
WORK_ROOT = ROOT / ".perf_work"

#: Seconds between two memory samples.
PSS_INTERVAL = 0.5


def subprocess_env() -> dict[str, str]:
    """Environment for child Pythons: the repo's ``src`` and root importable."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@contextmanager
def work_directory() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _children_by_parent() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while scanning
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    return children


def process_tree(root: int) -> list[int]:
    """``root`` and all its descendants."""
    children = _children_by_parent()
    tree, pending = [], [root]
    while pending:
        pid = pending.pop()
        tree.append(pid)
        pending.extend(children.get(pid, []))
    return tree


def tree_pss_mb(root: int) -> float:
    """Summed ``Pss`` of ``root`` and all its descendants, in MiB."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited while sampling
    return total_kb / 1024.0


class PssSampler:
    """Samples the PSS of a process tree every 0.5 s; keeps the peak."""

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, tree_pss_mb(self.root))
            if self._stop.wait(PSS_INTERVAL):
                return

    def __enter__(self) -> "PssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_pss_mb(self.root))


def digest(chunks: Iterable[bytes]) -> str:
    """Short SHA-256 of the generated inputs, printed with every run."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
        hasher.update(b"\x00")
    return hasher.hexdigest()[:16]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result(*, correct: bool, attempted: int, failed: int, metrics: dict,
           extra: dict, inputs_digest: str, notes: list[str]) -> dict:
    """One workload run: the contract fields plus printed-only extras."""
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics, "extra": extra,
            "inputs_digest": inputs_digest, "notes": notes}
