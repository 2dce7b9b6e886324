"""Every model family runs the fused ops and gets the chains' bytes.

With ``reference_chains`` the layers run the op chains the fused
``layer_norm``, ``linear`` and ``attention_softmax`` replaced
(``tests/nn/composed_reference.py``).  Inference forwards must not move a
bit, so serving answers and ``last_attention`` stay what they were.
"""

import numpy as np
import pytest

from repro.models import MODEL_CLASSES, Tapex, visibility_mask
from repro.nn import Tensor
from repro.runtime import profile

from tests.nn.composed_reference import reference_chains

FUSED = {"layer_norm", "linear", "attention_softmax"}


def hidden_bytes(model, tables):
    """Bytes of ``infer_hidden`` over a fixed batch, and the ops it ran."""
    encoder = model.encoder if isinstance(model, Tapex) else model
    with profile(emit=False) as prof:
        hidden, _ = encoder.infer_hidden(
            tables, ["which country has the largest population"]
            + [None] * (len(tables) - 1))
    return hidden.data.tobytes(), set(prof.stats)


@pytest.mark.parametrize("name", sorted(MODEL_CLASSES))
def test_infer_hidden_equals_reference_chains(name, config, tokenizer,
                                              wiki_tables, monkeypatch):
    model = MODEL_CLASSES[name](config, tokenizer, np.random.default_rng(0))
    tables = wiki_tables[:4]
    fused, fused_ops = hidden_bytes(model, tables)
    with reference_chains(monkeypatch):
        reference, reference_ops = hidden_bytes(model, tables)
    assert FUSED <= fused_ops
    assert not FUSED & reference_ops
    assert fused == reference


def test_tapex_beam_log_probs_equal_reference_chains(config, tokenizer,
                                                     sample_table,
                                                     monkeypatch):
    model = Tapex(config, tokenizer, np.random.default_rng(0),
                  max_answer_tokens=8)

    def beams():
        return [(text, float(score).hex()) for text, score in
                model.generate_beam(sample_table, "what is the capital",
                                    beam_width=3)]

    fused = beams()
    with reference_chains(monkeypatch):
        reference = beams()
    assert fused == reference


def test_turl_training_gradients_agree_with_reference_chains(
        config, tokenizer, wiki_tables, monkeypatch):
    # Only LayerNorm's analytic input gradient may move bits, so every
    # parameter gradient agrees with the chains' to rounding.  Some are
    # rounding noise themselves (a key bias cancels in the softmax), so
    # the tolerance is scaled by the largest gradient of the model.
    model = MODEL_CLASSES["turl"](config, tokenizer,
                                  np.random.default_rng(0))
    batch, _ = model.batch(wiki_tables[:4])
    assert visibility_mask(batch).any()
    weight = np.random.default_rng(1).normal(
        size=batch.token_ids.shape + (config.dim,))

    def grads():
        model.zero_grad()
        (model(batch) * Tensor(weight)).sum().backward()
        return {name: p.grad.copy()
                for name, p in model.named_parameters() if p.grad is not None}

    fused = grads()
    with reference_chains(monkeypatch):
        reference = grads()
    assert fused.keys() == reference.keys()
    scale = max(np.abs(grad).max() for grad in reference.values())
    for name, grad in fused.items():
        np.testing.assert_allclose(grad, reference[name], rtol=1e-9,
                                   atol=1e-12 * scale, err_msg=name)
