"""OPS — the §5 stencil arithmetic analysis, measured.

The paper explains the Fortran advantage by operation counts: 27
multiplies reduce to 4 by coefficient grouping, and shared buffers cut
additions to 12–20.  These benchmarks time the three formulations of the
same stencil on a class-W-sized grid; the grouped and buffered kernels
must beat the naive one.
"""

import numpy as np
import pytest

from repro.core.grid import comm3, make_grid
from repro.core.stencils import (
    A_COEFFS,
    S_COEFFS_A,
    relax_buffered,
    relax_grouped,
    relax_naive,
)

_M = 64  # class W grid


@pytest.fixture(scope="module")
def grid():
    rng = np.random.default_rng(42)
    u = make_grid(_M)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((_M, _M, _M))
    return comm3(u)


@pytest.mark.parametrize(
    "form,kernel",
    [
        ("naive", relax_naive),
        ("grouped", relax_grouped),
        ("buffered", relax_buffered),
    ],
)
@pytest.mark.parametrize("coeffs,cname", [(A_COEFFS, "A"), (S_COEFFS_A, "S")])
def test_relax_formulations(benchmark, grid, form, kernel, coeffs, cname):
    out = make_grid(_M)
    benchmark(lambda: kernel(grid, coeffs, out=out))


def test_grouped_faster_than_naive(grid):
    """The 27->4 multiply reduction must be measurable."""
    from repro.core.timers import measure

    t_naive = measure(lambda: relax_naive(grid, S_COEFFS_A), repeats=3).seconds
    t_grouped = measure(
        lambda: relax_grouped(grid, S_COEFFS_A), repeats=3
    ).seconds
    assert t_grouped < t_naive
