"""Shard planning: how a batch is cut and scheduled, deterministically.

The cut (:func:`shard_slices`) is a pure function of ``(batch_size,
shard_size)``.  Worker count never appears there: workers only pick
shards up round-robin (:func:`assign_round_robin`), they never influence
the decomposition itself.
"""

from __future__ import annotations

__all__ = ["shard_slices", "assign_round_robin"]


def shard_slices(batch_size: int, shard_size: int) -> tuple[slice, ...]:
    """Contiguous row slices covering ``range(batch_size)`` in order."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if shard_size < 1:
        raise ValueError("shard_size must be positive")
    return tuple(slice(start, min(start + shard_size, batch_size))
                 for start in range(0, batch_size, shard_size))


def assign_round_robin(indices: tuple[int, ...] | list[int],
                       workers: int) -> dict[int, list[int]]:
    """Deal shard indices to workers ``0..workers-1`` round-robin.

    Only workers that received at least one shard appear in the result,
    so callers never message an idle process.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    assignment: dict[int, list[int]] = {}
    for position, shard_index in enumerate(indices):
        assignment.setdefault(position % workers, []).append(shard_index)
    return assignment
