"""WITH-loop index-space partitioning.

SAC's implicit parallelization executes each WITH-loop by splitting its
iteration space among a team of threads (Grelck [13, 14]).  This module
provides the one partition every runtime here uses: contiguous blocks
along the outermost axis.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Chunk", "block_partition"]


@dataclass(frozen=True)
class Chunk:
    """A half-open box ``[lo, hi)`` of an iteration space."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("chunk bounds must have equal rank")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"malformed chunk {self.lo}..{self.hi}")

    @property
    def points(self) -> int:
        n = 1
        for l, h in zip(self.lo, self.hi):
            n *= h - l
        return n

    @property
    def is_empty(self) -> bool:
        return self.points == 0

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))


def _axis_ranges(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split ``0..extent`` into ``parts`` near-equal contiguous ranges
    (the first ``extent % parts`` ranges get the extra element)."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(extent, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def block_partition(shape: tuple[int, ...], nworkers: int,
                    axis: int = 0) -> list[Chunk]:
    """One contiguous block per worker along ``axis`` (empty blocks are
    produced when there are more workers than extent — callers skip
    them, matching a thread with no share of the loop)."""
    if not shape:
        raise ValueError("cannot partition a rank-0 space")
    chunks = []
    for a, b in _axis_ranges(shape[axis], nworkers):
        lo = tuple(0 if ax != axis else a for ax in range(len(shape)))
        hi = tuple(shape[ax] if ax != axis else b for ax in range(len(shape)))
        chunks.append(Chunk(lo, hi))
    return chunks
