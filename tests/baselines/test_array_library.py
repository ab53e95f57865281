"""The paper's Fig. 10 array library and §3 building blocks, in SAC.

These are the algebraic identities the paper's program relies on, checked
dimension-invariantly.  ``genarray``/``condense``/``scatter``/``embed``/
``take`` are the prelude (:mod:`repro.sac.stdlib`, Fig. 10 verbatim);
``SetupPeriodicBorder`` and ``RelaxKernel`` come from ``mg.sac``, and
the rank-generic kernel from ``examples/sac/generic_relax.sac``.  Each
identity is judged by the three evaluators — the scalar interpreter, the
vectorizing interpreter and the generated code — which must agree to the
bit, and refuse the same misuse with the same error.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.mg_sac import load_mg_program
from repro.sac import CompileOptions, SacProgram, compile_function
from repro.sac.driver import CompilationSession, KernelCache
from repro.sac.errors import SacError, SacRuntimeError, SacTypeError

small_arrays = arrays(
    np.float64,
    st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)

_CACHE = KernelCache()  # one kernel per drawn shape


def _prelude(vectorize):
    return SacProgram(None, _session=CompilationSession(
        "", options=CompileOptions(vectorize=vectorize), cache=_CACHE))


def _mg(vectorize):
    return load_mg_program(vectorize=vectorize)


_GENERIC = (Path(__file__).resolve().parents[2] / "examples" / "sac"
            / "generic_relax.sac").read_text()


def _evaluators(program):
    scalar, vectorizing = program(False), program(True)
    return (scalar.call, vectorizing.call,
            lambda f, *args: compile_function(vectorizing, f, args)(*args))


def sac(fname, *args, program=_prelude):
    """``fname(*args)`` by all three evaluators, which must agree."""
    want, *others = (run(fname, *args) for run in _evaluators(program))
    for got in others:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    return want


def refused(error, fname, *args, program=_prelude):
    for run in _evaluators(program):
        with pytest.raises(error):
            run(fname, *args)


def _shape(*extents):
    return np.array(extents)


class TestGenarray:
    def test_shape_and_value(self):
        a = sac("genarray", _shape(2, 3), 7.5)
        assert a.shape == (2, 3)
        assert (a == 7.5).all()

    def test_any_rank(self):
        assert sac("genarray", _shape(4), 0.0).ndim == 1
        assert sac("genarray", _shape(2, 2, 2, 2), 1.0).ndim == 4


class TestCondenseScatter:
    @given(small_arrays, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_condense_of_scatter_is_identity(self, a, stride):
        spread = sac("scatter", stride, a)
        np.testing.assert_array_equal(sac("condense", stride, spread), a)

    def test_condense_shape(self):
        a = np.arange(10.0)
        assert sac("condense", 2, a).shape == (5,)
        assert sac("condense", 3, a).shape == (3,)

    def test_condense_values(self):
        a = np.arange(8.0)
        np.testing.assert_array_equal(sac("condense", 2, a), [0, 2, 4, 6])

    def test_scatter_zero_fills(self):
        a = np.array([1.0, 2.0])
        np.testing.assert_array_equal(sac("scatter", 2, a),
                                      [1.0, 0.0, 2.0, 0.0])

    def test_scatter_multidim(self):
        a = np.ones((2, 2))
        s = sac("scatter", 2, a)
        assert s.shape == (4, 4)
        assert s.sum() == 4.0
        np.testing.assert_array_equal(s[::2, ::2], a)

    def test_stride_one_is_copy(self):
        a = np.arange(5.0)
        c = sac("condense", 1, a)
        np.testing.assert_array_equal(c, a)
        c[0] = 99
        assert a[0] == 0.0  # value semantics: result is a fresh array

    def test_invalid_stride(self):
        refused(SacRuntimeError, "condense", 0, np.arange(4.0))
        refused(SacRuntimeError, "scatter", 0, np.arange(4.0))


class TestEmbedTake:
    def test_embed_places_at_offset(self):
        e = sac("embed", _shape(5), _shape(2), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(e, [0, 0, 1, 2, 0])

    def test_take_leading(self):
        np.testing.assert_array_equal(sac("take", _shape(4), np.arange(6.0)),
                                      [0, 1, 2, 3])

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_take_of_embed_roundtrip(self, a):
        # embed at the origin then take the original extent: identity.
        bigger = np.array(a.shape) + 2
        e = sac("embed", bigger, 0 * bigger, a)
        np.testing.assert_array_equal(sac("take", np.array(a.shape), e), a)

    def test_embed_rejects_overflow(self):
        refused(SacRuntimeError, "embed", _shape(3), _shape(2), np.arange(2.0))

    def test_take_rejects_overflow(self):
        refused(SacRuntimeError, "take", _shape(7), np.arange(4.0))

    def test_rank_mismatch(self):
        refused(SacTypeError, "embed", _shape(3, 3), _shape(0), np.arange(2.0))
        refused(SacTypeError, "take", _shape(2, 2), np.arange(4.0))

    def test_fine2coarse_shape_algebra(self):
        # The paper's Fig. 8 sequence: condense leaves the array one
        # element short; embed restores the extended-grid extent.
        fine = np.zeros((10, 10, 10))  # extended 8^3
        rc = sac("condense", 2, fine)
        assert rc.shape == (5, 5, 5)
        rn = sac("embed", np.array(rc.shape) + 1, _shape(0, 0, 0), rc)
        assert rn.shape == (6, 6, 6)  # extended 4^3


def border(a):
    return sac("SetupPeriodicBorder", a, program=_mg)


class TestSetupPeriodicBorder:
    def test_vector_case_from_fig5(self):
        # Fig. 5: each original boundary element is replicated on the
        # opposite side.
        a = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 0.0])
        np.testing.assert_array_equal(border(a), [4.0, 1.0, 2.0, 3.0, 4.0, 1.0])

    def test_pure(self):
        a = np.zeros((4, 4))
        a[1:-1, 1:-1] = 1.0
        before = a.copy()
        border(a)
        np.testing.assert_array_equal(a, before)

    def test_matches_comm3_in_3d(self):
        from repro.core.grid import comm3

        rng = np.random.default_rng(0)
        a = np.zeros((6, 6, 6))
        a[1:-1, 1:-1, 1:-1] = rng.standard_normal((4, 4, 4))
        np.testing.assert_array_equal(border(a), comm3(a.copy()))

    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_any_rank(self, m, ndim, seed):
        rng = np.random.default_rng(seed)
        a = np.zeros((m + 2,) * ndim)
        a[(slice(1, -1),) * ndim] = rng.standard_normal((m,) * ndim)
        once = border(a)
        np.testing.assert_array_equal(border(once), once)


def relax(u, c):
    return sac("RelaxKernel", u, np.array(c), program=_mg)


class TestRelaxKernel:
    """``mg.sac``'s 27-point kernel: one coefficient per distance class,
    applied to the inner elements, the borders kept (``modarray``)."""

    def test_borders_preserved(self):
        a = np.arange(216.0).reshape(6, 6, 6)
        out = relax(a, (0.5, 0.25, 0.0, 0.0))
        np.testing.assert_array_equal(out[0], a[0])
        np.testing.assert_array_equal(out[:, :, -1], a[:, :, -1])

    def test_identity_stencil(self):
        a = np.random.default_rng(1).standard_normal((6, 6, 6))
        np.testing.assert_array_equal(relax(a, (1.0, 0.0, 0.0, 0.0)), a)

    def test_matches_naive_3d(self):
        from repro.core.grid import comm3, make_grid
        from repro.core.stencils import S_COEFFS_A, relax_naive

        rng = np.random.default_rng(2)
        u = make_grid(6)
        u[1:-1, 1:-1, 1:-1] = rng.standard_normal((6, 6, 6))
        comm3(u)
        ours = relax(u, S_COEFFS_A)
        ref = relax_naive(u, S_COEFFS_A)
        np.testing.assert_allclose(
            ours[1:-1, 1:-1, 1:-1], ref[1:-1, 1:-1, 1:-1],
            rtol=1e-13, atol=1e-14,
        )

    def test_rank_coefficient_check(self):
        # Four distance classes in 3-D: a shorter vector selects no
        # overload.
        refused(SacError, "RelaxKernel", np.zeros((4, 4, 4)),
                np.array([1.0, 0.5]), program=_mg)

    def test_1d_three_point(self):
        # The rank-generic spelling of the kernel, one coefficient per
        # distance class of the rank.  Only the interpreters run it: the
        # code generator does not select from a coefficient vector it
        # keeps symbolic by a per-offset index.
        a = np.array([0.0, 1.0, 2.0, 3.0, 0.0])
        for vectorize in (False, True):
            program = SacProgram.from_source(
                _GENERIC, options=CompileOptions(vectorize=vectorize))
            out = program.call("GenericRelaxKernel", a, np.array([0.0, 1.0]))
            # inner: sum of the two neighbours.
            np.testing.assert_array_equal(out, [0.0, 2.0, 4.0, 2.0, 0.0])
