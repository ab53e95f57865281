"""Tests for the generic 27-point stencil kernels and op-count analysis."""

import numpy as np
import pytest

from repro.core.grid import comm3, make_grid
from repro.core.stencils import (
    A_COEFFS,
    P_COEFFS,
    Q_COEFFS,
    S_COEFFS_A,
    S_COEFFS_B,
    STENCILS,
    StencilAliasError,
    offset_class,
    offsets_by_class,
    op_counts,
    relax_naive,
    relax_variable,
    stencil_weights_27,
)

ALL_COEFFS = [A_COEFFS, S_COEFFS_A, S_COEFFS_B, P_COEFFS, Q_COEFFS]


def _relax_constant_fields(u, c, out=None, *, ws=None):
    """:func:`relax_variable` with every coefficient field constant."""
    return relax_variable(u, [np.full(u.shape, x) for x in c], out=out,
                          ws=ws)


#: The kernels of the ``out=`` contract.
KERNELS = [relax_naive, _relax_constant_fields]
KERNEL_IDS = ["naive", "variable"]


def _random_periodic(m, seed=0):
    rng = np.random.default_rng(seed)
    u = make_grid(m)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((m, m, m))
    return comm3(u)


class TestCoefficients:
    def test_known_values(self):
        assert A_COEFFS == (-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)
        assert S_COEFFS_A == (-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0)
        assert S_COEFFS_B[0] == -3.0 / 17.0
        assert P_COEFFS == (0.5, 0.25, 0.125, 0.0625)
        assert Q_COEFFS == (1.0, 0.5, 0.25, 0.125)

    def test_stencil_registry(self):
        assert set(STENCILS) == {"A", "S", "Sb", "P", "Q"}

    def test_offset_classes_partition(self):
        groups = offsets_by_class()
        assert [len(g) for g in groups] == [1, 6, 12, 8]
        flat = [o for g in groups for o in g]
        assert len(set(flat)) == 27

    def test_offset_class_values(self):
        assert offset_class(0, 0, 0) == 0
        assert offset_class(1, 0, 0) == 1
        assert offset_class(1, -1, 0) == 2
        assert offset_class(-1, 1, 1) == 3

    def test_weight_cube(self):
        w = stencil_weights_27(A_COEFFS)
        assert w.shape == (3, 3, 3)
        assert w[1, 1, 1] == A_COEFFS[0]
        assert w[0, 1, 1] == A_COEFFS[1]
        assert w[0, 0, 1] == A_COEFFS[2]
        assert w[0, 0, 0] == A_COEFFS[3]


class TestRelaxEquivalence:
    def test_constant_field_eigenvalue(self):
        # A constant field is an eigenvector with eigenvalue sum(weights).
        c = S_COEFFS_A
        total = c[0] + 6 * c[1] + 12 * c[2] + 8 * c[3]
        u = make_grid(4)
        u[...] = 3.0
        out = relax_naive(u, c)
        np.testing.assert_allclose(out[1:-1, 1:-1, 1:-1], 3.0 * total, rtol=1e-14)

    def test_poisson_annihilates_constants(self):
        # The A operator has zero row sum: -8/3 + 6*0 + 12/6 + 8/12 = 0.
        u = make_grid(4)
        u[...] = 1.0
        out = relax_naive(u, A_COEFFS)
        np.testing.assert_allclose(out[1:-1, 1:-1, 1:-1], 0.0, atol=1e-15)

    def test_delta_response_is_weight_cube(self):
        u = make_grid(8)
        u[4, 4, 4] = 1.0
        comm3(u)
        out = relax_naive(u, S_COEFFS_A)
        w = stencil_weights_27(S_COEFFS_A)
        # The 3x3x3 neighbourhood around the spike equals the flipped
        # weight cube; symmetric cube, so equal to the cube itself.
        np.testing.assert_allclose(out[3:6, 3:6, 3:6], w, atol=1e-15)
        # Everything farther away is zero.
        out[3:6, 3:6, 3:6] = 0.0
        assert not out[1:-1, 1:-1, 1:-1].any()

    def test_linearity(self):
        u1 = _random_periodic(4, seed=1)
        u2 = _random_periodic(4, seed=2)
        a = relax_naive(u1 + u2, A_COEFFS)
        b = relax_naive(u1, A_COEFFS) + relax_naive(u2, A_COEFFS)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_out_parameter_reused(self):
        u = _random_periodic(4)
        out = make_grid(4)
        ret = relax_naive(u, A_COEFFS, out=out)
        assert ret is out

    def test_ghosts_of_result_are_zero(self):
        u = _random_periodic(4, seed=5)
        out = relax_naive(u, S_COEFFS_A)
        assert not out[0].any() and not out[-1].any()


def _shift_view(u, o3, o2, o1):
    def ax(o, n):
        return slice(1 + o, n - 1 + o)

    n3, n2, n1 = u.shape
    return u[ax(o3, n3), ax(o2, n2), ax(o1, n1)]


def _ref_naive(u, c):
    """The original allocating formulation (``acc += w * shift``)."""
    w = stencil_weights_27(c)
    out = np.zeros_like(u)
    acc = np.zeros(tuple(n - 2 for n in u.shape))
    for o3 in (-1, 0, 1):
        for o2 in (-1, 0, 1):
            for o1 in (-1, 0, 1):
                acc += w[o3 + 1, o2 + 1, o1 + 1] * _shift_view(u, o3, o2, o1)
    out[1:-1, 1:-1, 1:-1] = acc
    return out


class TestOutContract:
    """The ``out=`` contract fixes: stale ghosts, aliasing, bit-identity."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_stale_out_ghosts_are_zeroed(self, kernel):
        # The documented contract promises a zero ghost shell; a reused
        # out= buffer with stale ghost values used to keep them.
        u = _random_periodic(4, seed=7)
        out = make_grid(4)
        out.fill(7.0)  # stale everywhere, including the ghost shell
        ret = kernel(u, S_COEFFS_A, out=out)
        assert ret is out
        assert not out[0].any() and not out[-1].any()
        assert not out[:, 0].any() and not out[:, -1].any()
        assert not out[:, :, 0].any() and not out[:, :, -1].any()
        np.testing.assert_array_equal(out, kernel(u, S_COEFFS_A))

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    @pytest.mark.parametrize("c", list(STENCILS.values()),
                             ids=list(STENCILS))
    def test_out_aliasing_u_raises(self, kernel, c):
        u = _random_periodic(4, seed=8)
        with pytest.raises(StencilAliasError, match=r"\[MG001\]"):
            kernel(u, c, out=u)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_out_overlapping_view_raises(self, kernel):
        big = np.zeros((8, 8, 8))
        u = big[:6, :6, :6]
        comm3(u)
        overlapping = big[2:8, 2:8, 2:8]
        with pytest.raises(StencilAliasError):
            kernel(u, A_COEFFS, out=overlapping)

    @pytest.mark.parametrize("kernel,ref", [(relax_naive, _ref_naive)],
                             ids=["naive"])
    @pytest.mark.parametrize("c", ALL_COEFFS, ids=["A", "Sa", "Sb", "P", "Q"])
    def test_in_place_rewrite_bit_identical(self, kernel, ref, c):
        # The in-place ufunc rewrite must reproduce the original
        # allocating expressions bit for bit (same association order).
        for seed in (0, 3, 11):
            u = _random_periodic(8, seed=seed)
            np.testing.assert_array_equal(kernel(u, c), ref(u, c))

    def test_workspace_pooling_is_allocation_free_and_exact(self):
        from repro.perf import Workspace

        ws = Workspace()
        u = _random_periodic(8, seed=9)
        for kernel in KERNELS:
            plain = kernel(u, S_COEFFS_A)
            pooled = kernel(u, S_COEFFS_A, ws=ws)
            np.testing.assert_array_equal(pooled, plain)
        warm = ws.allocations
        assert warm > 0
        for kernel in KERNELS:
            kernel(u, A_COEFFS, ws=ws)
        assert ws.allocations == warm  # second round: pure pool hits
        assert ws.hits > 0


class TestOpCounts:
    def test_naive_is_27_26(self):
        for c in ALL_COEFFS:
            oc = op_counts(c)["naive"]
            assert (oc.muls, oc.adds) == (27, 26)

    def test_grouped_muls_paper_claim(self):
        # "the number of multiplications may be reduced to only four" — for
        # stencils with all four coefficients nonzero (P, Q); A and S have a
        # zero coefficient so they need even fewer (3).
        assert op_counts(P_COEFFS)["grouped"].muls == 4
        assert op_counts(Q_COEFFS)["grouped"].muls == 4
        assert op_counts(A_COEFFS)["grouped"].muls == 3
        assert op_counts(S_COEFFS_A)["grouped"].muls == 3

    def test_buffered_adds_in_paper_range(self):
        # "reduce the actual number of additions to values between 12 and
        # 20" — counting the combination with the base operand (v or u),
        # which the benchmark kernels always perform.
        for c in ALL_COEFFS:
            adds = op_counts(c, with_base=True)["buffered"].adds
            assert 12 <= adds <= 20, (c, adds)

    def test_resid_psinv_exact_add_counts(self):
        # NPB resid: 3+3 buffer adds, 2+1 class adds, 3 combining subs = 12.
        assert op_counts(A_COEFFS, with_base=True)["buffered"].adds == 12
        # NPB psinv: 3+3 buffers, 2+2 class adds, 3 combining adds = 13.
        assert op_counts(S_COEFFS_A, with_base=True)["buffered"].adds == 13

    def test_with_base_adds_one(self):
        for c in ALL_COEFFS:
            for form in ("naive", "grouped", "buffered"):
                assert (
                    op_counts(c, with_base=True)[form].adds
                    == op_counts(c)[form].adds + 1
                )

    def test_buffered_never_worse_than_grouped(self):
        for c in ALL_COEFFS:
            ocs = op_counts(c)
            assert ocs["buffered"].adds <= ocs["grouped"].adds
            assert ocs["buffered"].muls == ocs["grouped"].muls

    def test_flops_property(self):
        oc = op_counts(A_COEFFS)["naive"]
        assert oc.flops == oc.muls + oc.adds
