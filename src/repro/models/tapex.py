"""TAPEX-style model: table pre-training via learning a neural SQL executor.

Liu et al. [27] pretrain an encoder-decoder on (SQL query, table) →
denotation pairs produced by a *symbolic* executor, so the network itself
becomes an approximate executor.  Here the encoder is a structure-aware
table encoder that reads ``query [SEP] table`` and the decoder generates
the denotation text autoregressively.  E12 measures its denotation accuracy
against the symbolic executor in :mod:`repro.sql`.
"""

from __future__ import annotations

import numpy as np

from .base import TableEncoder
from .config import EncoderConfig
from ..nn import (
    Decoder,
    Embedding,
    Linear,
    Module,
    Tensor,
    cross_entropy,
)
from ..serialize import BatchedFeatures, Serializer
from ..tables import Table
from ..text import WordPieceTokenizer

__all__ = ["Tapex"]


class _TapexEncoder(TableEncoder):
    """Structure-aware encoder half of TAPEX."""

    model_name = "tapex-encoder"
    uses_row_embeddings = True
    uses_column_embeddings = True
    uses_role_embeddings = True


class Tapex(Module):
    """Encoder-decoder that learns to execute queries over tables."""

    model_name = "tapex"

    def __init__(self, config: EncoderConfig, tokenizer: WordPieceTokenizer,
                 rng: np.random.Generator,
                 serializer: Serializer | None = None,
                 max_answer_tokens: int = 16) -> None:
        super().__init__()
        self.config = config
        self.tokenizer = tokenizer
        self.max_answer_tokens = max_answer_tokens
        self.encoder = _TapexEncoder(config, tokenizer, rng, serializer=serializer)
        self.decoder = Decoder(
            dim=config.dim, num_heads=config.num_heads,
            hidden_dim=config.hidden_dim, num_layers=config.decoder_layers,
            rng=rng, dropout=config.dropout,
        )
        self.target_position_embedding = Embedding(max_answer_tokens + 1,
                                                   config.dim, rng)
        self.output_projection = Linear(config.dim, config.vocab_size, rng)

    # ------------------------------------------------------------------
    # Target-side preparation
    # ------------------------------------------------------------------
    def encode_answer(self, answer: str) -> list[int]:
        """Token ids ``answer [EOS]``, truncated to the answer budget."""
        vocab = self.tokenizer.vocab
        ids = self.tokenizer.encode(answer)[: self.max_answer_tokens - 1]
        return ids + [vocab.eos_id]

    def collate_answers(self, answers: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Right-padded ``(decoder_inputs, targets)`` arrays.

        Decoder inputs are ``[BOS] answer``; targets are ``answer [EOS]``
        with pad positions set to -100 (ignored by the loss).
        """
        vocab = self.tokenizer.vocab
        encoded = [self.encode_answer(a) for a in answers]
        width = max(len(e) for e in encoded)
        inputs = np.full((len(encoded), width), vocab.pad_id, dtype=np.int64)
        targets = np.full((len(encoded), width), -100, dtype=np.int64)
        for i, ids in enumerate(encoded):
            inputs[i, : len(ids)] = [vocab.bos_id] + ids[:-1]
            targets[i, : len(ids)] = ids
        return inputs, targets

    # ------------------------------------------------------------------
    # Forward / loss
    # ------------------------------------------------------------------
    def _decode_hidden(self, memory: Tensor, batch: BatchedFeatures,
                       decoder_inputs: np.ndarray) -> Tensor:
        positions = np.minimum(np.arange(decoder_inputs.shape[1]),
                               self.max_answer_tokens)
        target = self.encoder.token_embedding(decoder_inputs) \
            + self.target_position_embedding(
                np.broadcast_to(positions, decoder_inputs.shape))
        return self.decoder(target, memory, memory_mask=batch.key_padding_mask())

    def forward(self, batch: BatchedFeatures, decoder_inputs: np.ndarray) -> Tensor:
        """Teacher-forced logits of shape ``(B, T_dec, vocab)``."""
        memory = self.encoder(batch)
        hidden = self._decode_hidden(memory, batch, decoder_inputs)
        return self.output_projection(hidden)

    def loss(self, tables: list[Table], queries: list[str],
             answers: list[str]) -> Tensor:
        """Cross-entropy of gold denotations given (query, table) inputs."""
        batch, _ = self.encoder.batch(tables, queries)
        decoder_inputs, targets = self.collate_answers(answers)
        logits = self.forward(batch, decoder_inputs)
        return cross_entropy(logits, targets, ignore_index=-100)

    # ------------------------------------------------------------------
    # Greedy decoding
    # ------------------------------------------------------------------
    def generate(self, table: Table, query: str) -> str:
        """Greedy-decode the denotation text for one (query, table) pair."""
        vocab = self.tokenizer.vocab
        with self.inference():
            batch, _ = self.encoder.batch([table], [query])
            memory = self.encoder(batch)
            generated = [vocab.bos_id]
            for _ in range(self.max_answer_tokens):
                inputs = np.array([generated], dtype=np.int64)
                hidden = self._decode_hidden(memory, batch, inputs)
                logits = self.output_projection(hidden[:, -1])
                next_id = int(logits.data[0].argmax())
                if next_id == vocab.eos_id:
                    break
                generated.append(next_id)
        return self.tokenizer.decode(generated[1:])

    def generate_beam(self, table: Table, query: str,
                      beam_width: int = 3) -> list[tuple[str, float]]:
        """Beam-search decode; returns ``(text, log_prob)`` best-first.

        Greedy decoding (:meth:`generate`) commits to early mistakes; a
        small beam recovers denotations whose first token is uncertain.
        """
        if beam_width < 1:
            raise ValueError("beam_width must be positive")
        vocab = self.tokenizer.vocab
        with self.inference():
            batch, _ = self.encoder.batch([table], [query])
            memory = self.encoder(batch)
            # Each beam: (token ids incl. BOS, log prob, finished).
            beams: list[tuple[list[int], float, bool]] = [
                ([vocab.bos_id], 0.0, False)]
            for _ in range(self.max_answer_tokens):
                candidates: list[tuple[list[int], float, bool]] = []
                for ids, score, finished in beams:
                    if finished:
                        candidates.append((ids, score, True))
                        continue
                    inputs = np.array([ids], dtype=np.int64)
                    hidden = self._decode_hidden(memory, batch, inputs)
                    logits = self.output_projection(hidden[:, -1])
                    log_probs = logits.log_softmax(axis=-1).data[0]
                    top = np.argsort(-log_probs)[:beam_width]
                    for token_id in top:
                        token_id = int(token_id)
                        candidates.append((
                            ids + [token_id],
                            score + float(log_probs[token_id]),
                            token_id == vocab.eos_id,
                        ))
                candidates.sort(key=lambda item: -item[1])
                beams = candidates[:beam_width]
                if all(finished for _, _, finished in beams):
                    break
        results = []
        for ids, score, _ in beams:
            body = [i for i in ids[1:] if i != vocab.eos_id]
            results.append((self.tokenizer.decode(body), score))
        return results

    def num_parameters(self) -> int:
        return super().num_parameters()
