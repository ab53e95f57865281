"""NPB MG problem size classes.

The paper (§5) uses NPB 2.3 size classes:

* Class W: initial grid 64**3, 40 iterations,
* Class A: initial grid 256**3, 4 iterations.

We additionally carry class S (32**3, 4 iterations — the standard sample
size used for correctness work) and class B, plus a tiny ``T`` class of
our own (16**3 — matching the V-cycle illustration in the paper's Fig. 3)
for fast unit tests.

Verification values are the official L2 residual norms from the NPB 2.3
serial distribution (``MG/mg.f``, subroutine ``verify``).  Class T is not
an official class and has no official constant; its value was recorded
from this implementation once verified against classes S/W (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SizeClass", "CLASSES", "get_class"]


@dataclass(frozen=True)
class SizeClass:
    """One NPB MG problem class."""

    name: str
    #: Grid points per dimension of the finest grid (power of two).
    nx: int
    #: Number of timed V-cycle iterations.
    nit: int
    #: Official L2 residual norm after ``nit`` iterations (None if unofficial).
    verify_value: float | None
    #: Which smoother coefficient set applies ("a" for S/W/A, "b" for B/C).
    smoother: str

    @property
    def lt(self) -> int:
        """Number of multigrid levels (``log2(nx)``)."""
        return self.nx.bit_length() - 1

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape including the two ghost layers per dimension."""
        n = self.nx + 2
        return (n, n, n)

    @property
    def interior_points(self) -> int:
        return self.nx ** 3

    def verifies(self, rnm2: float) -> bool:
        """NPB's acceptance test of a final residual norm: relative error
        against the official value within ``1e-8`` (the epsilon of
        ``mg.f``'s ``verify``); a class with no official value verifies
        nothing."""
        ref = self.verify_value
        return ref is not None and abs(rnm2 - ref) / abs(ref) <= 1.0e-8


CLASSES: dict[str, SizeClass] = {
    "T": SizeClass("T", 16, 4, None, "a"),
    "S": SizeClass("S", 32, 4, 0.530770700573e-04, "a"),
    "W": SizeClass("W", 64, 40, 0.250391406439e-17, "a"),
    "A": SizeClass("A", 256, 4, 0.2433365309e-05, "a"),
    "B": SizeClass("B", 256, 20, 0.180056440132e-05, "b"),
    "C": SizeClass("C", 512, 20, 0.570674826298e-06, "b"),
}


def get_class(name: str) -> SizeClass:
    """Look up a size class by (case-insensitive) name."""
    try:
        return CLASSES[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown MG size class {name!r}; known: {sorted(CLASSES)}"
        ) from None
