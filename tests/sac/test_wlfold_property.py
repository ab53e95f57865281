"""Differential property test of WITH-loop folding.

Hypothesis draws producer/consumer pairs over every shape the piecewise
rule distinguishes — ``genarray``/``modarray`` producers on total,
partial and stepped generators; ``genarray``/``modarray`` consumers on
the producer, on another frame or on none, reading it at one to four
literal offsets with stride 1 or 2; ``.`` bounds inclusive and exclusive
on either loop — and each program must give the same array with
``wlfold`` on and off, through the scalar interpreter, the vectorizing
interpreter and generated NumPy: equal everywhere, and equal *bits*
wherever the value is not a zero (dropping a ``+ 0.0`` term can only
turn ``-0.0`` into ``+0.0``).  Borders and off-grid elements are part of
the arrays compared.

``coeffgroup`` is off in both builds: it reassociates sums by design, so
with it on the two builds would differ by rounding in what *it* does to
a folded body, which is not what is under test (the paper's program is
held to bit-identity with it on in ``test_mg_sac.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sac import KernelCache, SacProgram
from repro.sac.codegen import CodegenUnsupported, compile_function
from repro.sac.optim.rewrite import ast_key

from .programs import PAIR_N, build, pair_program


def _build(src: str, wlfold: bool, vectorize: bool = True,
           cache: KernelCache | None = None) -> SacProgram:
    return build(src, cache, vectorize=vectorize, pass_overrides=(
        ("wlfold", wlfold), ("coeffgroup", False)))


def _same_up_to_zero_sign(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    nonzero = want != 0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


def _args(rank: int, seed: int):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((PAIR_N,) * rank),
            rng.standard_normal((PAIR_N,) * rank))


class TestFoldedEqualsUnfolded:
    @given(pair_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_three_evaluators_on_and_off(self, program, seed):
        src, rank = program
        args = _args(rank, seed)
        cache = KernelCache()  # one build per wlfold setting
        want = _build(src, False, False, cache).call("f", *args)
        for wlfold in (False, True):
            _same_up_to_zero_sign(
                _build(src, wlfold, False, cache).call("f", *args), want)
            prog = _build(src, wlfold, cache=cache)
            _same_up_to_zero_sign(prog.call("f", *args), want)
            _same_up_to_zero_sign(
                compile_function(prog, "f", args)(*args), want)

    @given(pair_program())
    @settings(max_examples=40, deadline=None)
    def test_folding_reaches_a_fixpoint(self, program):
        from repro.sac.optim import wlfold_pass

        once = wlfold_pass(_build(program[0], True).program)
        assert ast_key(wlfold_pass(once)) == ast_key(once)


_REFUSED = {
    "width": """
double[.] f(double[.] a, double[.] g)
{
  p = with ([0] <= iv < [6] step 3 width 2) genarray(shape(a), a[iv]);
  r = with ([1] <= jv < shape(a) - 1) modarray(g, p[jv - 1] + p[jv + 1]);
  return( r);
}
""",
    "also passed whole to a call": """
double[.] f(double[.] a, double[.] g)
{
  p = with ([1] <= iv < shape(a) - 1) genarray(shape(a), 2.0 * a[iv]);
  n = sum_all( p);
  r = with ([1] <= jv < shape(a) - 1) modarray(g, p[jv - 1] * n);
  return( r);
}
""",
    "non-affine index": """
double[.] f(double[.] a, double[.] g)
{
  p = with ([1] <= iv < shape(a) - 1) genarray(shape(a), 2.0 * a[iv]);
  r = with ([0] <= jv < [3]) modarray(g, p[jv * jv]);
  return( r);
}
""",
}


class TestRefusals:
    def _f(self, src: str, wlfold: bool):
        prog = _build(src, wlfold)
        return prog, next(f for f in prog.program.functions if f.name == "f")

    def test_refused_pairs_come_out_unfolded_and_unchanged(self):
        args = _args(1, 7)
        for why, src in _REFUSED.items():
            (on, f_on), (off, f_off) = self._f(src, True), self._f(src, False)
            assert ast_key(f_on) == ast_key(f_off), why
            want = _build(src, False, vectorize=False).call("f", *args)
            for prog in (on, off):
                assert prog.call("f", *args).tobytes() == want.tobytes(), why
                try:
                    fn = compile_function(prog, "f", args)
                except CodegenUnsupported:  # a width, a non-affine index
                    continue
                assert fn(*args).tobytes() == want.tobytes(), why
