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

from repro.sac import (CompilationSession, CompileOptions, KernelCache,
                       SacProgram)
from repro.sac.codegen import CodegenUnsupported, compile_function
from repro.sac.optim.rewrite import ast_key

_N = 7  # extent per axis of the producer


def _vec(values) -> str:
    return "[" + ", ".join(str(int(v)) for v in values) + "]"


@st.composite
def pair_program(draw) -> tuple[str, int]:
    """(source, rank) of ``f(a, g)``: a producer ``p`` over ``a`` and a
    consumer ``r`` reading it; ``g`` is a frame of ``a``'s shape."""
    rank = draw(st.integers(1, 3))
    # Half the draws are steered to where a splitting rule applies (A: an
    # unstepped producer that dies, read at one index; B: a stepped one
    # over the whole range, read with unit stride); the rest are free and
    # mostly land on what is refused.
    rule = draw(st.sampled_from(["A", "B", None, None]))

    def ints(lo: int, hi: int) -> list[int]:
        return [draw(st.integers(lo, hi)) for _ in range(rank)]

    # -- the producer ------------------------------------------------------
    pbody = draw(st.sampled_from([
        "a[iv]", "1.5", "2.0 * a[iv] + 1.0", "a[iv] * a[iv]", "-a[iv]"]))
    bounds = "dots" if rule == "B" else draw(
        st.sampled_from(["dots", "open dots", "literal", "symbolic"]))
    if bounds == "dots":
        pgen = ". <= iv <= ."
    elif bounds == "open dots":  # one short of the whole range: refused
        pgen = draw(st.sampled_from([
            ". < iv <= .", ". <= iv < .", ". < iv < ."]))
    elif bounds == "literal":
        pgen = f"{_vec(ints(0, 2))} <= iv < {_vec(ints(_N - 2, _N))}"
    else:
        pgen = "0 * shape(a) + 1 <= iv < shape(a) - 1"
    step = draw(st.sampled_from(
        {"A": [1], "B": [2, 3]}.get(rule, [1, 2, 3])))
    if step > 1 or draw(st.booleans()):
        pgen += f" step {_vec([step] * rank)}" if draw(st.booleans()) \
            else f" step {step}"
    pop = draw(st.sampled_from(["genarray(shape(a), {})", "modarray(a, {})"]))

    # -- the consumer ------------------------------------------------------
    stride = 1 if rule == "B" else draw(st.sampled_from([1, 2]))
    offsets = [ints(-1, 2) for _ in range(draw(st.integers(1, 4)))]
    if rule == "A":
        offsets = offsets[:1] * len(offsets)
    scaled = "jv" if stride == 1 else f"{stride} * jv"
    terms = [f"{draw(st.sampled_from(['0.5', '0.25', '-2.0', '1.0']))} * "
             f"p[{scaled} + {_vec(o)}]" for o in offsets]
    cbody = " + ".join(terms) + draw(st.sampled_from(["", " + 0.75",
                                                      " - g[jv]"]))
    # Every index must stay in [0, _N): bounds per axis from the offsets.
    lo = [max(0, -(min(o[d] for o in offsets) // stride)) for d in range(rank)]
    hi = [min(_N, (_N - 1 - max(o[d] for o in offsets)) // stride + 1)
          for d in range(rank)]  # and g[jv], and the frames p and g
    # A ``.`` bound is on offer where it keeps every index inside.
    dots_lo = [". <= jv"] * (max(lo) == 0) + [". < jv"]
    lo = [draw(st.integers(lo[d], max(lo[d], hi[d] - 1))) for d in range(rank)]
    frame = draw(st.sampled_from(["genarray", "g"] + ["p"] * (rule != "A")))
    extent = [h + draw(st.integers(0, 2)) for h in hi] \
        if frame == "genarray" else [_N] * rank
    cop = f"genarray({_vec(extent)}, {{}})" if frame == "genarray" \
        else f"modarray({frame}, {{}})"
    slack = max(e - h for e, h in zip(extent, hi))
    cgen = draw(st.sampled_from([
        f"{_vec(lo)} <= jv", f"{_vec(x - 1 for x in lo)} < jv",
        f"shape(a) - {_vec(_N - x for x in lo)} <= jv"] + dots_lo))
    cgen += draw(st.sampled_from([
        f" < {_vec(hi)}", f" <= {_vec(x - 1 for x in hi)}",
        f" < shape(a) - {_vec(_N - x for x in hi)}"]
        + [" <= ."] * (slack == 0) + [" < ."] * (slack <= 1)))
    t = "double[" + ",".join("." * rank) + "]"
    return (f"{t} f({t} a, {t} g)\n{{\n"
            f"  p = with ({pgen}) {pop.format(pbody)};\n"
            f"  r = with ({cgen}) {cop.format(cbody)};\n"
            f"  return( r);\n}}\n"), rank


def _build(src: str, wlfold: bool, vectorize: bool = True) -> SacProgram:
    options = CompileOptions(vectorize=vectorize, pass_overrides=(
        ("wlfold", wlfold), ("coeffgroup", False)))
    return SacProgram(None, _session=CompilationSession(
        src, options=options, cache=KernelCache(memory_only=True)))


def _same_up_to_zero_sign(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    nonzero = want != 0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


def _args(rank: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((_N,) * rank), rng.standard_normal((_N,) * rank)


class TestFoldedEqualsUnfolded:
    @given(pair_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_three_evaluators_on_and_off(self, program, seed):
        src, rank = program
        args = _args(rank, seed)
        want = _build(src, False, vectorize=False).call("f", *args)
        for wlfold in (False, True):
            _same_up_to_zero_sign(
                _build(src, wlfold, vectorize=False).call("f", *args), want)
            prog = _build(src, wlfold)
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
