"""The repo benchmark: one command for every end-to-end and per-layer metric.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf.run [--workload NAME]
        [--seed N] [--seconds S] [--trace [0|1]] [--repeat N] [--out FILE]
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0

With ``--workload`` and no ``--repeat`` the workload runs in this
process: it prints a digest of its generated inputs, every metric by
name with its unit, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace 1``).  It exits 1 when any output is wrong.

Without ``--workload`` (or with ``--repeat N``) every selected workload
runs ``N`` times, each run in its own subprocess, rounds alternating
between workloads; the last line is then a JSON summary (median and
quartiles per metric).  ``--out FILE`` appends one JSON record per run,
the input of ``benchmarks/perf/compare.py``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread per process, set before numpy loads and inherited
    # by every process the benchmark starts: the program already spreads
    # work over processes (server and replica, trainer and workers), and
    # OpenBLAS threads competing with them for two cores made fine-tuning
    # throughput swing twofold between runs.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    if __package__ in (None, ""):  # run as a script: make the repo importable
        _ROOT = Path(__file__).resolve().parents[2]
        sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

import repro  # noqa: E402 -- fail before any output without the program

from benchmarks.perf import compare, serve, train  # noqa: E402
from benchmarks.perf.common import ROOT, subprocess_env, work_directory  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
    raise ImportError(f"repro must come from {ROOT / 'src'}, "
                      f"not {repro.__file__}")

DEFAULT_SECONDS = 20

WORKLOADS = {
    "serve_hot": functools.partial(serve.run, "hot"),
    "serve_cold": functools.partial(serve.run, "cold"),
    "pretrain": functools.partial(train.run, "pretrain"),
    "finetune_dp": functools.partial(train.run, "finetune"),
}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 **sizes) -> dict:
    """One run of one workload in this process; ``sizes`` shrink it for tests."""
    with work_directory() as work:
        return WORKLOADS[name](seed=seed, seconds=seconds, trace=trace,
                               work=work, **sizes)


def report(name: str, outcome: dict) -> dict:
    """Print a run's digest, notes and metrics; return the contract object."""
    print(f"workload {name}: inputs_digest {outcome['inputs_digest']}")
    for note in outcome["notes"]:
        print(f"  {note}")
    for kind in ("metrics", "extra"):
        for metric_name, item in outcome[kind].items():
            print(f"  {metric_name} = {item['value']!r} {item['unit']}")
    print(f"  correct={outcome['correct']} attempted={outcome['attempted']} "
          f"failed={outcome['failed']}")
    return {key: outcome[key]
            for key in ("correct", "attempted", "failed", "metrics")}


def _run_one(args: argparse.Namespace) -> int:
    outcome = run_workload(args.workload, seed=args.seed,
                           seconds=args.seconds, trace=bool(args.trace))
    contract = report(args.workload, outcome)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, **outcome}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(contract), flush=True)
    return 0 if outcome["correct"] else 1


def _run_many(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    with work_directory() as work:
        out = Path(args.out).resolve() if args.out else work / "records.jsonl"
        status = 0
        for _ in range(args.repeat):
            for name in names:
                command = [sys.executable, "-m", "benchmarks.perf.run",
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace), "--out", str(out)]
                print(f"$ {' '.join(command[1:])}", flush=True)
                if subprocess.run(command, cwd=ROOT,
                                  env=subprocess_env()).returncode != 0:
                    status = 1
        records = compare.load_records(out)
    summary = compare.summarize(records)
    for name, metrics in summary["workloads"].items():
        for metric_name, stats in metrics.items():
            print(f"{name} {metric_name}: median {stats['median']!r} "
                  f"[{stats['q1']!r}, {stats['q3']!r}] {stats['unit']} "
                  f"(n={stats['n']})")
    print(json.dumps(summary))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.run",
        description="Run the repo benchmark workloads.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="per-layer run: untraced, then traced")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each in a subprocess")
    parser.add_argument("--out", default=None,
                        help="append one JSON record per run to this file")
    return parser


def _exit_on_sigterm(signum, _frame) -> None:
    """Unwind like Ctrl-C, so started servers and workers are stopped."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = build_parser().parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        raise SystemExit("--repeat and --seconds must be positive")
    if args.workload is not None and args.repeat == 1:
        return _run_one(args)
    return _run_many(args)


if __name__ == "__main__":
    sys.exit(main())
