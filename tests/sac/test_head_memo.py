"""The interpreter's memo of WITH-loop heads.

An interpreter keeps each loop's resolved head (its space, genarray
shape and index view) per loop node and per what the head's free names
hold: an array read only through ``shape``/``dim`` by its shape, a
scalar or small vector by its value.  Calls on one interpreter must give
a fresh interpreter's bytes, whatever they share; a head that reads
anything else, or that runs per index of an enclosing loop, is resolved
on every call and never stored.
"""

import numpy as np
import pytest

from repro.sac import CompileOptions, SacProgram

VECTORIZE = pytest.mark.parametrize("vectorize", [True, False])


def _program(src: str, vectorize: bool) -> SacProgram:
    return SacProgram.from_source(
        src, options=CompileOptions(vectorize=vectorize))


def _bytes(value) -> tuple:
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def _entries(prog: SacProgram) -> int:
    return sum(len(entries) for _, _, entries in prog.interp.heads.values())


def _same_as_fresh(src: str, vectorize: bool, calls) -> SacProgram:
    """Run ``calls`` (argument tuples) in order on one program and each
    on a program of its own; the bytes must agree call by call."""
    shared = _program(src, vectorize)
    for args in calls:
        fresh = _program(src, vectorize).call("f", *args)
        assert _bytes(shared.call("f", *args)) == _bytes(fresh), args
    return shared


@VECTORIZE
@pytest.mark.parametrize("generator", ["[1] <= iv < shape(a)-1",
                                       "[1] <= iv < .", ". <= iv <= ."])
def test_one_loop_at_two_shapes(vectorize, generator):
    src = (f"double[.] f(double[.] a) {{ return with ({generator})"
           " modarray(a, a[iv] + 2.0 * a[iv * 0]); }")
    rng = np.random.default_rng(1)
    small, large = rng.standard_normal(6), rng.standard_normal(9)
    prog = _same_as_fresh(src, vectorize,
                          [(small,), (large,), (small,), (large,)])
    assert _entries(prog) == 2  # one loop at two shapes


@VECTORIZE
def test_two_values_of_a_small_vector_bound(vectorize):
    src = ("double[+] f(double[.,.] a, int[.] hi) {"
           " return with ([0, 0] <= iv < hi) genarray(hi + 1, a[iv]); }")
    a = np.arange(30.0).reshape(5, 6)
    lo, hi = np.array([2, 3]), np.array([4, 5])
    _same_as_fresh(src, vectorize, [(a, lo), (a, hi), (a, lo)])


@VECTORIZE
@pytest.mark.parametrize("src", [
    "double[.] f(int[.] a) { return with ([0] <= iv < shape(a) - a[0])"
    " genarray(shape(a), tod(a[iv])); }",
    # Inlined, both uses of ``a`` are one node of the optimized tree.
    "inline double[.] g(int[.] a) { return with ([0] <= iv < shape(a) - a[0])"
    " genarray(shape(a), tod(a[iv])); }\n"
    "double[.] f(int[.] b) { return g(b); }",
    # A reduction reads its argument by value.
    "double[.] f(int[.] a) { return with ([0] <= iv < shape(a) - [sum(a) - 18])"
    " genarray(shape(a), tod(a[iv])); }"])
def test_a_bound_read_by_value_is_not_keyed_on_its_shape(vectorize, src):
    # ``a[0]`` reads ``a`` by value: equal shapes, other bounds.
    _same_as_fresh(src, vectorize, [(np.array([1, 5, 6, 7]),),
                                    (np.array([3, 5, 6, 7]),)])
    # An array too long to key by value is resolved on every call.
    long = np.arange(40)
    prog = _same_as_fresh(src, vectorize, [(long,), (long + 4,)])
    assert _entries(prog) == 0


@VECTORIZE
def test_a_bound_through_a_user_call_is_never_stored(vectorize):
    src = ("int first(int[.] x) { return x[0]; }\n"
           "double[.] f(int[.] a) { return with ([0] <= iv < [first(a)])"
           " genarray([4], 1.0); }")
    prog = _same_as_fresh(src, vectorize, [(np.array([1, 0, 0]),),
                                           (np.array([3, 0, 0]),)])
    assert _entries(prog) == 0


@VECTORIZE
def test_a_loop_per_index_of_an_enclosing_loop_stores_nothing_per_point(
        vectorize):
    # The inner bound reads ``i``, a value per point of the outer loop,
    # directly and through a helper's parameter.
    src = ("double g(double[.] a, int n) {"
           " return with ([0] <= j < [n]) fold(+, 0.0, a[j]); }\n"
           "double[.] f(double[.] a) {"
           " return with ([0] <= i < shape(a)) genarray(shape(a),"
           " with ([0] <= j < i + 1) fold(+, 0.0, a[j])"
           " + g(a, i[[0]])); }")
    a = np.arange(1.0, 9.0)
    prog = _same_as_fresh(src, vectorize, [(a,), (a,)])
    # The outer loop's one head, and none for the inner loops' points.
    assert _entries(prog) == 1
