"""Compare two result sets of the benchmark, or summarize one.

    python -m benchmarks.perf.compare A.jsonl B.jsonl
    python -m benchmarks.perf.compare RUNS.jsonl

The files are the ``--out`` records of ``benchmarks/perf/run.py``.  For a
comparison, A is the parent and B the change, measured in alternating
runs; the i-th run of a workload in A is paired with the i-th in B.  For
every (metric, workload) the report gives each side's median and
quartiles, the share of pairs B wins (ties count for neither) and a
label:

- ``improved``: at least 10 pairs, B wins at least nine tenths of them,
  and the medians differ by more than A's interquartile range;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: A's spread is wider than the bound and not every B
  run beats every A run, or the median moved by more than the bound
  without meeting the ``improved`` rule;
- ``unchanged``: otherwise.

Bounds are shares of A's median, from ``BENCHMARK.json``; ``EXTRA_RULES``
holds the printed-only metrics.  The exit code is 1 when any row
regressed.  With one file the output is its summary: median, quartiles
and relative interquartile range per metric, plus the environment (the
format of the sections of ``baseline.json``).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9

#: Metrics printed with every run but absent from BENCHMARK.json, whose
#: schema asks for metrics every workload reports, that are never 0 and
#: whose spread across seeds stays within the bound: ``final_loss``
#: differs by seed and must repeat exactly at a fixed seed,
#: ``error_rate`` is 0, and ``slo_attainment`` exists for serve only.
#: Each entry is (better, bound, bound is absolute).
EXTRA_RULES = {
    "final_loss": ("lower", 0.0, False),
    "error_rate": ("lower", 0.0, True),
    "slo_attainment": ("higher", 0.05, False),
}


def load_records(path: str | Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _series(records: list[dict]) -> dict[tuple[str, str], tuple[str, list]]:
    """``(workload, metric) -> (unit, values)`` over all runs."""
    series: dict[tuple[str, str], tuple[str, list]] = {}
    for record in records:
        for kind in ("metrics", "extra"):
            for name, item in record[kind].items():
                unit, values = series.setdefault(
                    (record["workload"], name), (item["unit"], []))
                values.append(item["value"])
    return series


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(records: list[dict]) -> dict:
    """Median, quartiles and relative IQR per (workload, metric)."""
    workloads: dict[str, dict] = {}
    for (workload, name), (unit, values) in _series(records).items():
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        workloads.setdefault(workload, {})[name] = {
            "unit": unit, "n": len(values), "median": median, "q1": q1,
            "q3": q3, "rel_iqr": (q3 - q1) / abs(median) if median else 0.0}
    return {
        "environment": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__,
                        "machine": platform.machine()},
        "seeds": sorted({record["seed"] for record in records}),
        "workloads": workloads,
    }


def rules() -> dict[str, tuple[str, float, bool]]:
    """``metric -> (better, bound, bound is absolute)``."""
    spec = json.loads(BENCHMARK.read_text())
    table = {item["name"]: (item["better"], item["bound"], False)
             for item in spec["end_to_end"]}
    table.update(EXTRA_RULES)
    return table


def classify(a: list[float], b: list[float], better: str, bound: float,
             absolute: bool = False) -> tuple[str, float]:
    """``(label, win share)`` of B against A under the rules above."""
    sign = 1.0 if better == "higher" else -1.0
    median_a = statistics.median(a)
    q1, q3 = quartiles(a)
    spread = q3 - q1
    limit = bound * (1.0 if absolute or median_a == 0 else abs(median_a))
    gain = sign * (statistics.median(b) - median_a)
    pairs = list(zip(a, b))
    win_share = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    every_b_better = min(sign * y for y in b) > max(sign * x for x in a)
    if len(pairs) >= MIN_PAIRS and win_share >= WIN_SHARE and gain > spread:
        return "improved", win_share
    if -gain > limit:
        return "regressed", win_share
    if (spread > limit and not every_b_better) or abs(gain) > limit:
        return "unresolved", win_share
    return "unchanged", win_share


def compare(a_records: list[dict], b_records: list[dict]) -> list[dict]:
    """One row per (workload, metric) present in both result sets."""
    a_series, b_series = _series(a_records), _series(b_records)
    table = rules()
    rows = []
    for key in sorted(set(a_series) & set(b_series)):
        workload, name = key
        if name not in table:
            continue  # informational, e.g. the open-loop generator's lateness
        unit, a = a_series[key]
        b = b_series[key][1]
        better, bound, absolute = table[name]
        label, win_share = classify(a, b, better, bound, absolute)
        rows.append({"workload": workload, "metric": name, "unit": unit,
                     "a": (statistics.median(a), *quartiles(a)),
                     "b": (statistics.median(b), *quartiles(b)),
                     "pairs": min(len(a), len(b)), "win_share": win_share,
                     "label": label})
    return rows


def _format(stats: tuple[float, float, float]) -> str:
    return f"{stats[0]:.6g} [{stats[1]:.6g}, {stats[2]:.6g}]"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        print(json.dumps(summarize(load_records(argv[0])), indent=2))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load_records(argv[0]), load_records(argv[1]))
    if not rows:
        print("no (workload, metric) pair is present in both result sets",
              file=sys.stderr)
        return 2
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<17} "
              f"A {_format(row['a'])}  B {_format(row['b'])} {row['unit']}  "
              f"B wins {row['win_share']:.0%} of {row['pairs']}  "
              f"{row['label']}")
    return 1 if any(row["label"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
