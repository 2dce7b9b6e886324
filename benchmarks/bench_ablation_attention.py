"""E8 — §2.3: attention variants (vertical [41], visibility [11], sparse [15]).

For a sweep of table sizes, reports the attended-pair count of each
attention pattern (the FLOPs proxy MATE's efficiency argument rests on)
and wall-clock of a forward pass per variant at fixed size.  Expected
shape: sparse/vertical attend to far fewer pairs than dense as tables
grow, at equal backbone size.
"""

import numpy as np
import pytest

from repro.core import create_model
from repro.models import (
    attention_flops_proxy,
    dense_mask,
    mate_head_masks,
    vertical_mask,
    visibility_mask,
)
from repro.tables import Table

from .conftest import print_table

SIZES = [(4, 3), (10, 4), (20, 5)]
VARIANTS = ["bert", "turl", "tabert", "mate"]


def grid_table(rows: int, cols: int) -> Table:
    return Table([f"col {c}" for c in range(cols)],
                 [[f"v {r} {c}" for c in range(cols)] for r in range(rows)],
                 table_id=f"g{rows}x{cols}")


def test_attended_pairs_sweep(benchmark, tokenizer, config):
    """FLOPs-proxy series per attention pattern vs table size."""
    model = create_model("bert", tokenizer, config=config, seed=0)
    heads = config.num_heads

    def experiment():
        rows = []
        for n_rows, n_cols in SIZES:
            batch, _ = model.batch([grid_table(n_rows, n_cols)])
            seq = batch.seq_len
            dense = attention_flops_proxy(
                np.repeat(dense_mask(batch), heads, axis=1))
            visibility = attention_flops_proxy(
                np.repeat(visibility_mask(batch), heads, axis=1))
            vertical = attention_flops_proxy(
                np.repeat(vertical_mask(batch), heads, axis=1))
            sparse = attention_flops_proxy(mate_head_masks(batch, heads))
            rows.append([f"{n_rows}x{n_cols}", seq, dense, visibility,
                         vertical, sparse,
                         f"{sparse / dense:.2f}"])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "E8: attended (q,k) pairs per attention pattern (lower = cheaper)",
        ["table", "seq len", "dense", "visibility (TURL)",
         "vertical (TaBERT)", "sparse (MATE)", "mate/dense"],
        rows,
    )
    # The sparsity advantage must grow with table size.
    ratios = [float(r[-1]) for r in rows]
    assert ratios[-1] < ratios[0]
    for row in rows:
        assert row[5] < row[2]  # sparse < dense everywhere


@pytest.mark.parametrize("name", VARIANTS)
def test_forward_latency(benchmark, name, tokenizer, config):
    """Wall-clock of one encoder forward per attention variant (20x5)."""
    model = create_model(name, tokenizer, config=config, seed=0)
    model.eval()
    batch, _ = model.batch([grid_table(20, 5)])

    from repro.nn import inference_mode

    def forward():
        with inference_mode():
            return model(batch)

    out = benchmark(forward)
    assert np.all(np.isfinite(out.data))
