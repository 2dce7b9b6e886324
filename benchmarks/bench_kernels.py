"""E18 — fused kernels against the op chains they replaced.

A TURL pretraining step (Fig. 2c, pipeline (1) of Fig. 1) runs six
LayerNorms, a dozen biased ``Linear`` layers, two attention softmaxes over
(8, 4, T, T) scores and six embedding lookups.  Each now runs as one op:
``layer_norm``, ``linear`` and ``attention_softmax``, and the lookups'
gradient is one ``np.bincount`` instead of an ``np.add.at`` scatter.  This
bench times forward + backward of each, fused against the reference chain
(``tests/nn/composed_reference.py``), at the pretraining shapes: hidden
states (8, 110, 48), and scores under a real TURL visibility mask from a
wiki batch.  The two run interleaved, in alternating order, over several
trials.

It asserts the bit contract first (every forward byte-equal; every
backward byte-equal except LayerNorm's input gradient, which agrees to
rtol 1e-12)
and gates only the wide margins: LayerNorm at least 1.5x, the embedding
gradient at least 2x.  The gates are ratios, so the runner's speed
cancels out.
"""

import math
import statistics
import time

import numpy as np

from repro.core import build_tokenizer_for_tables, create_model
from repro.corpus import open_stream
from repro.models import EncoderConfig, visibility_mask
from repro.nn import Tensor
from repro.nn.backend import OPS

from tests.nn.composed_reference import (
    reference_attention_softmax,
    reference_layer_norm,
    reference_linear,
    reference_take_rows_vjp,
)

from .conftest import print_table

BATCH, TOKENS = 8, 110
TRIALS = 7
REPEATS = 10
MIN_SPEEDUP = {"layer_norm": 1.5, "take_rows vjp": 2.0}


def _pretraining_shapes():
    """A TURL model's config and the visibility mask of one wiki batch."""
    stream = open_stream("wiki", size=16, seed=0)
    tables = stream.materialize()
    tokenizer = build_tokenizer_for_tables(tables)
    config = EncoderConfig(vocab_size=len(tokenizer.vocab),
                           num_entities=stream.kb.num_entities)
    model = create_model("turl", tokenizer, seed=0, config=config)
    batch, _ = model.batch(tables[:BATCH])
    return config, visibility_mask(batch)


def _cases(config, mask):
    """``name -> (shape, fused, reference, check)``.

    ``fused`` and ``reference`` each run one forward + backward on fresh
    leaves and return the output and the gradients; ``check`` asserts
    the bit contract between the two results.
    """
    rng = np.random.default_rng(0)
    dim, heads = config.dim, config.num_heads
    scale = 1.0 / math.sqrt(dim // heads)
    seq = mask.shape[-1]
    hidden = rng.normal(size=(BATCH, TOKENS, dim))
    gain, bias = rng.normal(size=dim), rng.normal(size=dim)
    weight, out_bias = rng.normal(size=(dim, dim)), rng.normal(size=dim)
    scores = rng.normal(size=(BATCH, heads, seq, seq))
    up_hidden = rng.normal(size=hidden.shape)
    up_scores = rng.normal(size=scores.shape)
    table = (config.vocab_size, dim)
    ids = rng.integers(0, config.vocab_size, size=(BATCH, TOKENS))
    up_rows = rng.normal(size=(BATCH, TOKENS, dim))

    def taped(op, arrays, upstream, **params):
        def run():
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = op(*leaves, **params)
            out.backward(upstream)
            return [out.data] + [leaf.grad for leaf in leaves]
        return run

    def vjp(kernel):
        return lambda: kernel(up_rows, (table, ids), (True,))

    def same_bytes(fused, reference):
        for a, b in zip(fused, reference):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def layer_norm_contract(fused, reference):
        same_bytes(fused[:1] + fused[2:], reference[:1] + reference[2:])
        # rtol 1e-12; entries that cancel to near zero are held to 1e-14
        # of the gradient's largest entry instead.
        np.testing.assert_allclose(
            fused[1], reference[1], rtol=1e-12,
            atol=1e-14 * np.abs(reference[1]).max())

    return {
        "layer_norm": (hidden.shape,
                       taped(Tensor.layer_norm, [hidden, gain, bias],
                             up_hidden, eps=1e-5),
                       taped(reference_layer_norm, [hidden, gain, bias],
                             up_hidden, eps=1e-5),
                       layer_norm_contract),
        "linear": (hidden.shape,
                   taped(Tensor.linear, [hidden, weight, out_bias],
                         up_hidden),
                   taped(reference_linear, [hidden, weight, out_bias],
                         up_hidden),
                   same_bytes),
        "attention_softmax": (
            scores.shape,
            taped(Tensor.attention_softmax, [scores], up_scores,
                  scale=scale, mask=mask),
            taped(reference_attention_softmax, [scores], up_scores,
                  scale=scale, mask=mask),
            same_bytes),
        "take_rows vjp": (table, vjp(OPS["take_rows"].vjp),
                          vjp(reference_take_rows_vjp), same_bytes),
    }


def _seconds(run):
    """Mean wall-clock seconds of one call, over ``REPEATS`` calls."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        run()
    return (time.perf_counter() - start) / REPEATS


def test_fused_kernels_against_chains(benchmark):
    """Median speed-up of each fused op over its reference chain."""
    config, mask = _pretraining_shapes()
    cases = _cases(config, mask)

    def experiment():
        results = []
        for name, (shape, fused, reference, check) in cases.items():
            check(fused(), reference())
            fast, slow = [], []
            for trial in range(TRIALS):
                # Alternate which side runs first, so drift in the host's
                # speed falls on both.
                order = [(fused, fast), (reference, slow)]
                for run, times in order[::-1] if trial % 2 else order:
                    times.append(_seconds(run))
            results.append((
                name, shape, statistics.median(slow),
                statistics.median(fast),
                statistics.median(s / f for f, s in zip(fast, slow))))
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        f"E18: fused kernels, forward + backward at TURL pretraining "
        f"shapes, median of {TRIALS} interleaved trials",
        ["kernel", "shape", "reference ms", "fused ms", "speed-up"],
        [[name, "x".join(map(str, shape)), f"{slow * 1e3:.3f}",
          f"{fast * 1e3:.3f}", f"{speedup:.2f}x"]
         for name, shape, slow, fast, speedup in results],
    )
    for name, _, _, _, speedup in results:
        assert speedup >= MIN_SPEEDUP.get(name, 0.0), (name, speedup)
