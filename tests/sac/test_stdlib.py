"""Tests for the SAC-source prelude: the Fig. 10 library executed through
the interpreter, cross-checked against a NumPy spelling of it."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sac import SacProgram


def _condense(stride, a):
    """Every ``stride``-th element along each axis, ``shape(a) / stride``
    of them: ``a[stride * iv]``."""
    n = tuple(s // stride for s in a.shape)
    return a[tuple(slice(0, k * stride, stride) for k in n)].copy()


def _scatter(stride, a):
    """The inverse of condense; zeros fill the gaps."""
    out = np.zeros(tuple(stride * s for s in a.shape), dtype=a.dtype)
    out[(slice(None, None, stride),) * a.ndim] = a
    return out


def _embed(shp, pos, a):
    """``a`` at offset ``pos`` in a zero array of shape ``shp``."""
    out = np.zeros(tuple(shp), dtype=a.dtype)
    out[tuple(slice(p, p + e) for p, e in zip(pos, a.shape))] = a
    return out


#: The Fig. 10 library in NumPy, the reference the SAC prelude answers to.
ref = SimpleNamespace(
    genarray=lambda shp, val: np.full(tuple(shp), float(val)),
    condense=_condense,
    scatter=_scatter,
    embed=_embed,
    take=lambda shp, a: a[tuple(slice(0, s) for s in shp)].copy(),
)


@pytest.fixture(scope="module")
def prelude():
    return SacProgram.from_source("")


class TestFig10AgainstNumPy:
    @given(st.integers(1, 3), st.integers(0, 2 ** 31), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_condense(self, ndim, seed, stride):
        prog = SacProgram.from_source("")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6,) * ndim)
        np.testing.assert_array_equal(
            prog.call("condense", stride, a), ref.condense(stride, a)
        )

    @given(st.integers(1, 2), st.integers(0, 2 ** 31), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_scatter(self, ndim, seed, stride):
        prog = SacProgram.from_source("")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4,) * ndim)
        np.testing.assert_array_equal(
            prog.call("scatter", stride, a), ref.scatter(stride, a)
        )

    def test_embed(self, prelude):
        a = np.arange(4.0)
        got = prelude.call("embed", np.array([7]), np.array([2]), a)
        np.testing.assert_array_equal(got, ref.embed((7,), (2,), a))

    def test_take(self, prelude):
        a = np.arange(10.0).reshape(2, 5)
        got = prelude.call("take", np.array([2, 3]), a)
        np.testing.assert_array_equal(got, ref.take((2, 3), a))

    def test_genarray(self, prelude):
        got = prelude.call("genarray", np.array([3, 2]), 4.5)
        np.testing.assert_array_equal(got, ref.genarray((3, 2), 4.5))

    @given(st.integers(1, 3), st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_condense_scatter_roundtrip(self, ndim, seed):
        prog = SacProgram.from_source("")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3,) * ndim)
        s = prog.call("scatter", 2, a)
        back = prog.call("condense", 2, s)
        np.testing.assert_array_equal(back, a)


class TestReductions:
    def test_sum_all(self, prelude):
        a = np.arange(6.0).reshape(2, 3)
        assert prelude.call("sum_all", a) == 15.0

    def test_prod_all(self, prelude):
        assert prelude.call("prod_all", np.array([2.0, 3.0, 4.0])) == 24.0

    def test_min_max_all(self, prelude):
        a = np.array([[3.0, -1.0], [7.0, 2.0]])
        assert prelude.call("max_all", a) == 7.0
        assert prelude.call("min_all", a) == -1.0

    def test_count(self, prelude):
        assert prelude.call("count", np.zeros((2, 3, 4))) == 24

    def test_l2norm(self, prelude):
        got = prelude.call("l2norm", np.array([3.0, 4.0]))
        assert got == pytest.approx(np.sqrt(25.0 / 2.0))

    def test_dot(self, prelude):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        assert prelude.call("dot", a, b) == 32.0


class TestElementwiseCrossCheck:
    """The interpreter's native elementwise operators must agree with the
    prelude's WITH-loop definitions."""

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_add(self, seed):
        prog = SacProgram.from_source(
            "double[+] native(double[+] a, double[+] b) { return a + b; }"
        )
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, 4, 4))
        np.testing.assert_array_equal(
            prog.call("native", a, b), prog.call("add_arrays", a, b)
        )

    def test_sub(self, prelude):
        a = np.arange(4.0)
        b = np.ones(4)
        np.testing.assert_array_equal(
            prelude.call("sub_arrays", a, b), a - b
        )

    def test_scale(self, prelude):
        a = np.arange(4.0)
        np.testing.assert_array_equal(prelude.call("scale", 2.0, a), 2 * a)


class TestHelpers:
    def test_rotate_left(self, prelude):
        v = np.arange(5.0)
        np.testing.assert_array_equal(
            prelude.call("rotate_left", 2, v), np.roll(v, -2)
        )

    def test_rotate_full_cycle(self, prelude):
        v = np.arange(4.0)
        np.testing.assert_array_equal(prelude.call("rotate_left", 4, v), v)

    def test_dist_class(self, prelude):
        assert prelude.call("dist_class", np.array([1, 1, 1])) == 0
        assert prelude.call("dist_class", np.array([0, 1, 1])) == 1
        assert prelude.call("dist_class", np.array([0, 1, 2])) == 2
        assert prelude.call("dist_class", np.array([0, 0, 0])) == 3
