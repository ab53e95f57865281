"""Tests for the right-hand-side initialization."""

import hashlib

import numpy as np
import pytest

from repro.core.grid import comm3
from repro.core.randlc import RandlcState, vranlc
from repro.core.zran3 import MM_CHARGES, fill_random_grid, zran3


class TestFillRandomGrid:
    def test_stream_order_is_i1_fastest(self):
        nx = 4
        z = fill_random_grid(nx)
        ref = vranlc(nx ** 3, RandlcState()).reshape(nx, nx, nx)
        np.testing.assert_array_equal(z[1:-1, 1:-1, 1:-1], ref)

    def test_ghosts_left_zero(self):
        z = fill_random_grid(4)
        assert not z[0].any() and not z[-1].any()
        assert not z[:, 0].any() and not z[:, :, -1].any()

    def test_values_in_unit_interval(self):
        z = fill_random_grid(8)
        zi = z[1:-1, 1:-1, 1:-1]
        assert (zi > 0).all() and (zi < 1).all()


class TestZran3:
    @pytest.mark.parametrize("nx", [4, 8, 16])
    def test_charge_counts(self, nx):
        v = zran3(nx)
        vi = v[1:-1, 1:-1, 1:-1]
        assert np.count_nonzero(vi == 1.0) == MM_CHARGES
        assert np.count_nonzero(vi == -1.0) == MM_CHARGES
        assert np.count_nonzero(vi) == 2 * MM_CHARGES

    def test_charges_at_extrema(self):
        nx = 8
        z = fill_random_grid(nx)[1:-1, 1:-1, 1:-1]
        v = zran3(nx)[1:-1, 1:-1, 1:-1]
        order = np.argsort(z.reshape(-1))
        top = set(order[-MM_CHARGES:].tolist())
        bot = set(order[:MM_CHARGES].tolist())
        plus = set(np.flatnonzero(v.reshape(-1) == 1.0).tolist())
        minus = set(np.flatnonzero(v.reshape(-1) == -1.0).tolist())
        assert plus == top
        assert minus == bot

    def test_borders_are_periodic(self):
        v = zran3(8)
        np.testing.assert_array_equal(v, comm3(v.copy()))

    def test_deterministic(self):
        np.testing.assert_array_equal(zran3(8), zran3(8))

    def test_seed_changes_placement(self):
        a = zran3(8)
        b = zran3(8, seed=987654321)
        assert (a != b).any()

    def test_interior_sums_to_zero(self):
        # Ten +1 and ten -1 charges: zero net charge, as the Poisson
        # problem with periodic boundaries requires for solvability.
        v = zran3(8)
        assert v[1:-1, 1:-1, 1:-1].sum() == 0.0

    @pytest.mark.parametrize("nx, sha256", [
        (8, "a46b40efa2e831397fe8d83448ff5099d848fa51ab72d7f817274e870cbc6177"),
        (32, "c53b49e72d072e77110a98e59f2a3039b0b511682600f456e88b80eb1086ddfa"),
        (64, "25375b1d5e918a472044ca927dfd6717e784bef3e9f47912089e1cef8ad8b9f9"),
    ])
    def test_bytes_are_pinned(self, nx, sha256):
        # The digests of the two-whole-stream-argsort zran3 (PR 23's
        # tree): how the ten extremes are found must not show in ``v``.
        assert hashlib.sha256(zran3(nx).tobytes()).hexdigest() == sha256
