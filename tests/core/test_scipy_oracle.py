"""Independent oracle: the stencil kernels vs scipy.ndimage.

Our stencil formulations were derived from the NPB Fortran; scipy's
``correlate`` is an entirely independent implementation of the same
mathematical operation, so agreement here rules out a family of
systematic porting mistakes (axis order, offset signs, weight layout).
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.core import (
    A_COEFFS,
    P_COEFFS,
    S_COEFFS_A,
    comm3,
    make_grid,
    relax_naive,
    rprj3,
)
from repro.core.stencils import stencil_weights_27


def _random_periodic(m, seed=0):
    rng = np.random.default_rng(seed)
    u = make_grid(m)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((m, m, m))
    return comm3(u)


@pytest.mark.parametrize("coeffs,name",
                         [(A_COEFFS, "A"), (S_COEFFS_A, "S"),
                          (P_COEFFS, "P")])
def test_relax_matches_scipy_correlate(coeffs, name):
    u = _random_periodic(8, seed=3)
    w = stencil_weights_27(coeffs)
    # The periodic torus: correlate the interior with wrap mode.
    interior = u[1:-1, 1:-1, 1:-1]
    expect = ndimage.correlate(interior, w, mode="wrap")
    got = relax_naive(u, coeffs)[1:-1, 1:-1, 1:-1]
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


def test_rprj3_matches_scipy_then_subsample():
    r = _random_periodic(8, seed=4)
    w = stencil_weights_27(P_COEFFS)
    interior = r[1:-1, 1:-1, 1:-1]
    full = ndimage.correlate(interior, w, mode="wrap")
    # Coarse point jj sits at fine interior index 2*jj + 1 (0-based).
    expect = full[1::2, 1::2, 1::2]
    got = rprj3(r)[1:-1, 1:-1, 1:-1]
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


def test_poisson_eigenfunction():
    """Plane waves are eigenfunctions of the periodic A operator; the
    eigenvalue has the closed form sum_k c_k * cos-products."""
    m = 16
    u = make_grid(m)
    kx = 2 * np.pi / m
    x = np.arange(m)
    wave = np.cos(kx * x)[None, None, :] * np.ones((m, m, 1))
    u[1:-1, 1:-1, 1:-1] = wave
    comm3(u)
    got = relax_naive(u, A_COEFFS)[1:-1, 1:-1, 1:-1]
    c0, c1, c2, c3 = A_COEFFS
    ck = np.cos(kx)
    # Sum the 27 weights, each scaled by cos(kx*ox) along the wave axis
    # (the other two axes contribute their plain multiplicities).
    lam = 0.0
    for o in (-1, 0, 1):
        axis_factor = ck if o != 0 else 1.0
        # 9 offsets in the (y,z) plane for each x offset.
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                cls = abs(o) + abs(dy) + abs(dz)
                lam += (c0, c1, c2, c3)[cls] * axis_factor
    np.testing.assert_allclose(got, lam * wave, rtol=1e-10, atol=1e-12)
