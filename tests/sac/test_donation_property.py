"""Differential property test of buffer reuse in generated code.

Hypothesis draws small programs around helper functions that
``modarray`` their parameter — the shape of ``SetupAxis`` and
``RelaxKernel`` in ``mg.sac`` — and calls them in every position the
planner's two rules distinguish: with an argument that is read again
after the call, one that is dead after it, the same one twice, a
selection of a matrix, values carried through a counted loop of up to
three statements (shifted, swapped, or outlived by a result of the last
trip) and one the loop re-reads on every trip.  Whatever the planner elides or
donates, the generated module must return the interpreter's bytes and
leave every argument of the entry point as it was.

The helpers are chosen so that a wrong decision shows in the result:
``fuse`` reads its second parameter after it has written its first (one
buffer donated in both positions), ``delta`` reads its parameter after
the ``modarray`` of it (a copy elided although its source is read
later), ``bump`` is not idempotent (a re-read loop operand written
into).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sac.codegen import compile_function

from .programs import DONATION_N, HELPERS, build, donation_program


def _args(seed: int):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(DONATION_N), rng.standard_normal(DONATION_N),
            rng.standard_normal((2, DONATION_N)))


def _check(src: str, seed: int, optimize: bool = True):
    prog, args = build(src, optimize=optimize), _args(seed)
    before = [a.copy() for a in args]
    want = prog.call("f", *args)
    fn = compile_function(prog, "f", args)
    for _ in range(2):  # the second call is handed the same arguments
        got = fn(*args)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(args, before))
    return fn


class TestGeneratedEqualsInterpreted:
    @given(donation_program(), st.integers(0, 2 ** 31), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_and_arguments_unmutated(self, src, seed, optimize):
        _check(src, seed, optimize)


class TestTheFiveSituations:
    """One fixed program per situation, so that the property above is
    known to reach each decision and not only to survive it."""

    def compiled(self, *body: str) -> tuple[str, str]:
        """The generated module and, of it, the entry point's body."""
        source = _check(
            HELPERS + "double[.] f( double[.] a, double[.] b, double[.,.] m)"
            "\n{\n  " + "\n  ".join(body) + "\n}\n", 11).source
        return source, source.split("def f(a, b, m):")[1]

    def test_dead_after_the_call_is_donated_and_donates_onward(self):
        source, entry = self.compiled(
            "t = a + b;", "t = both( t);", "return( t);")
        assert "both__6_d(_t1)" in entry
        assert "wrap__6_d(p)" in source and "bump__6_d(_t1)" in source
        assert ".copy()" not in source

    def test_live_after_the_call_is_not(self):
        _, entry = self.compiled(
            "t = a + b;", "u = bump( t);", "return( u + t);")
        assert "bump__6(_t1)" in entry and "_d" not in entry

    def test_an_entry_parameter_never_is(self):
        source, entry = self.compiled("return( both( a));")
        assert "both__6(a)" in entry
        assert source.count(".copy()") == 1  # wrap's first frame

    def test_passed_twice_is_not(self):
        _, entry = self.compiled("t = a + b;", "return( blend( t, t));")
        assert "blend__6_6(_t1, _t1)" in entry
        # ... while of two arrays only the frame is of use to blend.
        _, entry = self.compiled(
            "t = a + b;", "u = a - b;", "return( blend( t, u));")
        assert "blend__6_6_d0(_t1, _t2)" in entry

    def test_a_selection_is_not_even_of_a_dead_matrix(self):
        _, entry = self.compiled("w = m * 2.0;", "return( bump( w[[1]]));")
        assert "_t2 = _t1[1]" in entry and "bump__6(_t2)" in entry

    def test_carried_through_a_loop_is_donated_the_reread_one_is_not(self):
        source, entry = self.compiled(
            "x = a + 0.0;", "y = b + 0.0;",
            "for (k = 0; k < 3; k += 1) { x = blend( x, y); }",
            "return( x);")
        # Both die at the call; only x is the body's on every trip.
        assert "f_loop__6_6_d0(_t1, _t2, 3)" in entry
        loop = source.split("def f_loop__6_6_d0(x, y, _n):")[1]
        loop = loop.split("\ndef ")[0]
        assert "_t1 = blend__6_6_d0(x, y)" in loop and "x = _t1" in loop

    def test_a_result_in_the_carried_buffer_outlives_the_loop(self):
        # r is computed into the donated u and u's next value beside it:
        # no trip rebinds u after itself, or the return would read r in
        # what has become u.
        source, entry = self.compiled(
            "u = a + b;", "r = u;",
            "for (k = 0; k < 3; k += 1) { r = u * 2.0; u = r + b; }",
            "return( r + u);")
        assert "f_loop__6_6_d0(_t1, b, 3)" in entry
        loop = source.split("def f_loop__6_6_d0(u, b, _n):")[1]
        assert loop.split("\ndef ")[0].split() == """
            for _ in range(_n):
                if _:
                    u = _t2
                np.multiply(u, 2.0, out=u)
                _t2 = (u + b)
            return _t2, u""".split()
