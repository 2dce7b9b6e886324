"""Checks of the benchmark itself, at tiny sizes.

Run by explicit path; it is outside the tier-1 ``testpaths`` because
every check runs real workloads (about two minutes on two cores)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf import layers, run, serve, train
from benchmarks.perf.common import ROOT, work_directory

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 1.0
TINY = {
    "serve_hot": {"warmup": 8, "setup_starts": 1},
    "serve_cold": {"warmup": 8, "setup_starts": 1},
    "pretrain": {"sizes": train.Sizes(tables=16, batch=4, steps=3,
                                      checkpoint_every=2, min_jobs=2)},
    "finetune_dp": {"sizes": train.Sizes(tables=8, batch=8, examples=16,
                                         epochs=1, min_jobs=2)},
}


def _units(kind: str) -> dict[str, str]:
    return {item["name"]: item["unit"] for item in SPEC[kind]}


def test_spec_lists_the_workloads_the_command_runs():
    assert [item["name"] for item in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(item["name"], item["unit"], item["better"])
            for item in SPEC["per_layer"]] == [
        (name, unit, better)
        for name, unit, better, *_ in layers.LAYER_METRICS]


@pytest.mark.parametrize("name", list(TINY))
def test_every_end_to_end_metric_is_printed_with_its_unit(name, capsys):
    outcome = run.run_workload(name, seed=0, seconds=SECONDS, trace=False,
                               **TINY[name])
    contract = run.report(name, outcome)
    printed = capsys.readouterr().out.splitlines()
    assert contract["correct"] and contract["failed"] == 0
    assert contract["attempted"] >= 1
    units = _units("end_to_end")
    assert {key: item["unit"] for key, item in contract["metrics"].items()} \
        == units
    for metric, unit in units.items():
        value = contract["metrics"][metric]["value"]
        assert value > 0
        assert f"  {metric} = {value!r} {unit}" in printed
    assert f"workload {name}: inputs_digest {outcome['inputs_digest']}" \
        in printed


@pytest.mark.parametrize("name", list(TINY))
def test_trace_emits_every_per_layer_metric(name):
    outcome = run.run_workload(name, seed=0, seconds=SECONDS, trace=True,
                               **TINY[name])
    assert outcome["correct"]
    metrics = outcome["metrics"]
    assert {key: item["unit"] for key, item in metrics.items()} \
        == _units("per_layer")
    assert metrics["trace_overhead"]["value"] > 0
    assert metrics["model.encoder.layers.0.attention_ms"]["value"] > 0
    assert metrics["runtime.emit_per_op"]["value"] > 0


def test_a_tampered_reference_fails_the_run():
    def tampered(corpus, requests, work):
        answers = serve.repro_predict(corpus, requests, work)
        answers[-1] = {**answers[-1], "score": answers[-1]["score"] + 1.0}
        return answers

    outcome = run.run_workload("serve_hot", seed=0, seconds=SECONDS,
                               trace=False, reference=tampered,
                               **TINY["serve_hot"])
    assert not outcome["correct"]


@pytest.mark.parametrize("kind", ["hot", "cold"])
def test_serve_input_digest_follows_the_seed(kind):
    def digest_for(seed: int) -> str:
        with work_directory() as work:
            return serve.build_inputs(kind, seed, work, 32).digest

    assert digest_for(0) == digest_for(0)
    assert digest_for(0) != digest_for(1)


def test_training_input_digest_follows_the_seed():
    def digest_for(seed: int) -> str:
        return train.build_corpus(seed, 8)[2]

    assert digest_for(0) == digest_for(0)
    assert digest_for(0) != digest_for(1)
