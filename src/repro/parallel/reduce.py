"""Deterministic fixed-order tree all-reduce over shard gradients.

Floating-point addition is not associative, so "sum the gradients" is
only well-defined once the summation *tree* is pinned down.  This module
pins it: shard contributions are ordered by shard index (never by
arrival order) and folded pairwise, level by level —

    level 0:  g0  g1  g2  g3  g4
    level 1:  (g0+g1)  (g2+g3)  g4
    level 2:  ((g0+g1)+(g2+g3))  g4
    level 3:  (((g0+g1)+(g2+g3))+g4)

The tree depends only on the number of shards, so the combined gradient
is bit-identical for any worker count and any completion order.

Gradients travel as ``dict[param_index, ndarray]`` rather than dense
lists: a parameter a shard never touched simply has no entry, and the
union of the dicts preserves the serial path's ``grad is None``
semantics (``Adam.step`` skips those parameters instead of decaying
their moments against a zero gradient).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["tree_combine", "tree_reduce_grads"]


def tree_combine(values: Sequence[np.ndarray | None]) -> np.ndarray | None:
    """Pairwise-fold ``values`` in index order; ``None`` means "absent".

    ``None`` entries are identity elements (the shard produced no
    gradient for this parameter), not zeros: combining ``None`` with an
    array returns the array itself, and all-``None`` input returns
    ``None`` so callers can keep ``p.grad is None``.
    """
    level: list[np.ndarray | None] = list(values)
    if not level:
        return None
    while len(level) > 1:
        folded: list[np.ndarray | None] = []
        for left, right in zip(level[0::2], level[1::2]):
            folded.append(_pairwise_add(left, right))
        if len(level) % 2:
            folded.append(level[-1])
        level = folded
    return level[0]


def _pairwise_add(left: np.ndarray | None,
                  right: np.ndarray | None) -> np.ndarray | None:
    if left is None:
        return right
    if right is None:
        return left
    return left + right


def tree_reduce_grads(
        shard_grads: Iterable[tuple[int, Mapping[int, np.ndarray]]],
        num_shards: int) -> dict[int, np.ndarray]:
    """Combine per-shard gradient dicts into one, in fixed shard order.

    Parameters
    ----------
    shard_grads:
        ``(shard_index, {param_index: grad})`` pairs in *any* order —
        the reduction sorts by shard index, which is what makes the
        result invariant to completion/permutation order.
    num_shards:
        Expected shard count; missing or duplicate indices raise, so a
        lost worker message can never silently drop a shard's gradient.
    """
    by_shard: list[Mapping[int, np.ndarray] | None] = [None] * num_shards
    for shard_index, grads in shard_grads:
        if not 0 <= shard_index < num_shards:
            raise ValueError(
                f"shard index {shard_index} out of range for "
                f"{num_shards} shards")
        if by_shard[shard_index] is not None:
            raise ValueError(f"duplicate gradients for shard {shard_index}")
        by_shard[shard_index] = grads
    missing = [i for i, grads in enumerate(by_shard) if grads is None]
    if missing:
        raise ValueError(f"missing gradients for shard(s) {missing}")

    param_indices = sorted({param_index
                            for grads in by_shard
                            for param_index in grads})  # type: ignore[union-attr]
    combined: dict[int, np.ndarray] = {}
    for param_index in param_indices:
        value = tree_combine([grads.get(param_index)  # type: ignore[union-attr]
                              for grads in by_shard])
        if value is not None:
            combined[param_index] = value
    return combined
