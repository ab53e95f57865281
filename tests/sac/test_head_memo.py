"""The interpreter's memo of WITH-loop heads.

An interpreter keeps each loop's resolved head (its space, genarray
shape and index view) per loop node and per what the head's free names
hold: an array read only through ``shape``/``dim`` by its shape, a
scalar or small vector by its value.  Calls on one interpreter must give
a fresh interpreter's bytes, whatever they share; a head that reads
anything else, or that runs per index of an enclosing loop, is resolved
on every call and never stored.
"""

import dataclasses

import numpy as np
import pytest

from repro.sac import CompileOptions, SacProgram, parse_program
from repro.sac.ast_nodes import Program, Select, WithLoop
from repro.sac.ast_visit import map_stmt_exprs, walk
from repro.sac.errors import SacRuntimeError
from repro.sac.pprint import pprint_expr

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


# -- what a kept view decides: its body's index work ---------------------


TWO_LOOPS = ("double[.] f(double[.] a, double[.] b) {"
             " x = with ([1] <= iv < shape(a) - 1) modarray(a, a[IDX] - a[iv - 1]);"
             " y = with ([2] <= iv < shape(b) - 1) modarray(b, b[IDX] - b[iv - 1]);"
             " return [sum(x), sum(y)]; }")


def _two_shapes():
    # At (6, 7) both loops run over four points, from other offsets.
    rng = np.random.default_rng(2)
    small, large = rng.standard_normal(6), rng.standard_normal(7)
    return [(small, large), (large, small), (small, large)]


@VECTORIZE
@pytest.mark.parametrize("helper", ["inline int[.]", "int[.]"])
def test_an_index_helper_used_by_two_loops_at_two_shapes(vectorize, helper):
    # Inlined, each loop has its own copy; called, one node of the
    # helper is evaluated under both loops' views.
    src = (f"{helper} nb(int[.] iv) {{ return iv + [1]; }}\n"
           + TWO_LOOPS.replace("IDX", "nb(iv)"))
    _same_as_fresh(src, vectorize, _two_shapes())


@VECTORIZE
def test_one_index_node_in_two_loops_at_two_shapes(vectorize):
    src = TWO_LOOPS.replace("IDX", "iv + [1]")
    seen = {}

    def share(node):  # each index text one node, in both loops
        if not isinstance(node, Select):
            return node
        index = seen.setdefault(pprint_expr(node.index), node.index)
        return dataclasses.replace(node, index=index)

    (fun,) = parse_program(src).functions
    fun = dataclasses.replace(fun, body=map_stmt_exprs(fun.body, share))
    shared = SacProgram(Program((fun,)),
                        CompileOptions(optimize=False, vectorize=vectorize))
    (linked,) = shared.interp.functions.overloads("f")
    loops = [n for n in walk(linked.body) if isinstance(n, WithLoop)]
    assert len({id(wl.operation.body.left.index) for wl in loops}) == 1
    for args in _two_shapes():
        fresh = _program(src, vectorize).call("f", *args)
        assert _bytes(shared.call("f", *args)) == _bytes(fresh), args


@VECTORIZE
@pytest.mark.parametrize("generator", [
    "[0] <= iv < shape(a) - 3",
    # ``k`` in the head too: each value has a view of its own.
    "[k] <= iv < shape(a) - 3"])
def test_an_index_plus_a_scalar_that_changes_at_one_shape(vectorize,
                                                         generator):
    src = (f"double[.] f(double[.] a, int k) {{ return with ({generator})"
           " genarray(shape(a), a[iv + k] + a[2 * iv / 2 + [1]]); }")
    a = np.arange(1.0, 10.0) ** 2
    _same_as_fresh(src, vectorize, [(a, k) for k in (0, 1, 3, 1, 0)])


@VECTORIZE
def test_a_nested_loop_whose_index_mixes_two_views(vectorize):
    src = ("double[.,.] f(double[.,.] a) {"
           " return with ([0, 0] <= ov < shape(a) - 2)"
           " genarray(shape(a) - 2, a[ov + [1, 1]]"
           " + with ([0, 0] <= iv < [3, 3]) fold(+, 0.0, a[iv + ov])); }")
    rng = np.random.default_rng(3)
    small, large = rng.standard_normal((4, 5)), rng.standard_normal((6, 6))
    _same_as_fresh(src, vectorize, [(small,), (large,), (small,)])


@VECTORIZE
def test_an_index_out_of_bounds_raises_on_every_call(vectorize):
    src = ("double[.] f(double[.] a) { return with ([0] <= iv < shape(a))"
           " genarray(shape(a), a[iv + [1]]); }")
    prog = _program(src, vectorize)
    for _ in range(2):
        with pytest.raises(SacRuntimeError, match="out of bounds"):
            prog.call("f", np.arange(4.0))


@VECTORIZE
def test_a_literal_returned_to_python_is_fresh_and_writeable(vectorize):
    src = "int[3] f() { return [1, 2, 3]; }"
    prog = _program(src, vectorize)
    first = prog.call("f")
    assert first.flags.writeable
    first[0] = 99
    assert _bytes(prog.call("f")) == _bytes(_program(src, vectorize).call("f"))
    assert prog.call("f") is not prog.call("f")
