"""Golden-regression fixtures: seeded 10-step loss/grad-norm histories.

One fixture per model family pins the training numerics of the serial
(fused) path, and one extra fixture pins the data-parallel engine path.
Any PR that perturbs a forward, a gradient, masking RNG consumption or
the optimizer shows up here as a readable step-by-step diff.

Regenerate intentionally with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/parallel/test_golden.py

(tapex is absent: its encoder-decoder head has no token-embedding tie,
so the MLM Pretrainer does not support it yet.)
"""

import json
import math
import os
from pathlib import Path

import pytest

from repro.core import create_model
from repro.parallel import FixedClock, ParallelConfig
from repro.pretrain import Pretrainer, PretrainConfig

GOLDEN_DIR = Path(__file__).parent / "golden"
FAMILIES = ("bert", "tapas", "tabert", "turl", "mate", "tabbie", "tuta")
STEPS = 10
RTOL = 1e-6
ATOL = 1e-9


def run_history(name, tokenizer, config, wiki_tables,
                parallel: ParallelConfig | None = None) -> list[dict]:
    model = create_model(name, tokenizer, config=config, seed=0)
    trainer = Pretrainer(
        model,
        PretrainConfig(steps=STEPS, batch_size=4, seed=0, parallel=parallel),
        clock=FixedClock())
    trainer.train(wiki_tables)
    return [{"step": r.step, "loss": r.loss, "grad_norm": r.grad_norm}
            for r in trainer.history]


def golden_path(tag: str) -> Path:
    return GOLDEN_DIR / f"{tag}.json"


def check_against_golden(tag: str, actual: list[dict]) -> None:
    path = golden_path(tag)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(
            {"tag": tag, "steps": STEPS, "records": actual}, indent=2) + "\n")
        return
    if not path.exists():
        pytest.fail(f"golden fixture missing: {path} "
                    f"(run with REPRO_REGEN_GOLDEN=1 to create it)")
    expected = json.loads(path.read_text())["records"]
    assert len(expected) == len(actual)

    def mismatched(a: float, b: float) -> bool:
        return not math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)

    rows = []
    for want, got in zip(expected, actual):
        for field in ("loss", "grad_norm"):
            if mismatched(want[field], got[field]):
                rows.append(
                    f"  step {want['step']:>2} {field:>9}: "
                    f"expected {want[field]!r}, got {got[field]!r} "
                    f"(rel err {abs(want[field] - got[field]) / max(abs(want[field]), 1e-30):.2e})")
    if rows:
        pytest.fail(
            f"training numerics for {tag!r} drifted from the golden "
            f"fixture ({len(rows)} value(s); tolerance rtol={RTOL}, "
            f"atol={ATOL}).\nIf the change is intentional, regenerate "
            f"with REPRO_REGEN_GOLDEN=1.\n" + "\n".join(rows))


@pytest.mark.parametrize("name", FAMILIES)
def test_serial_history_matches_golden(name, tokenizer, config, wiki_tables):
    actual = run_history(name, tokenizer, config, wiki_tables)
    check_against_golden(name, actual)


def test_parallel_engine_history_matches_golden(tokenizer, config,
                                                wiki_tables):
    actual = run_history("bert", tokenizer, config, wiki_tables,
                         parallel=ParallelConfig(workers=1, shard_size=1))
    check_against_golden("bert-parallel-shard1", actual)


def test_golden_diff_is_readable(tokenizer, config, wiki_tables):
    """A perturbed history must fail with a step-addressed message."""
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regenerating fixtures")
    expected = json.loads(golden_path("bert").read_text())["records"]
    perturbed = [dict(r) for r in expected]
    perturbed[3]["loss"] *= 1.0 + 1e-4
    with pytest.raises(pytest.fail.Exception) as failure:
        check_against_golden("bert", perturbed)
    message = str(failure.value)
    assert "step  3" in message
    assert "REPRO_REGEN_GOLDEN" in message
