"""Differential testing of the three SAC execution paths.

Hypothesis generates random (but well-formed) WITH-loop programs; each
program must produce identical results through

1. the scalar reference evaluator (the defining semantics),
2. the vectorizing evaluator (slices/gathers), and
3. the shape-specializing codegen backend,

with and without the optimization pipeline.  This is the repository's
strongest guard against miscompilation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sac import CompileOptions, SacProgram
from repro.sac.codegen import CodegenUnsupported, compile_function

# --------------------------------------------------------------------------
# Program generators.
# --------------------------------------------------------------------------

_N = 8  # extent per axis of the test array


@st.composite
def affine_index(draw, rank: int) -> str:
    """An affine index expression in iv staying within [0, _N)."""
    form = draw(st.sampled_from(["plain", "shift", "scale", "scale_div"]))
    if form == "plain":
        return "iv"
    if form == "shift":
        off = draw(st.integers(0, 3))
        # Bound-safe: generator upper bounds are reduced accordingly.
        return f"iv + {off}"
    if form == "scale":
        return "2 * iv"
    return "iv / 2"


@st.composite
def body_expr(draw, index: str) -> str:
    """A scalar body over a[<index>] with arithmetic around it."""
    base = f"a[{index}]"
    wrap = draw(st.sampled_from([
        "{b}",
        "2.0 * {b}",
        "{b} + 1.5",
        "{b} * {b}",
        "-{b}",
        "{b} - 0.5 * {b}",
        "abs({b})",
    ]))
    return wrap.format(b=base)


@st.composite
def withloop_program(draw) -> tuple[str, int]:
    """(source, rank) of a random genarray/modarray program."""
    rank = draw(st.integers(1, 2))
    index = draw(affine_index(rank))
    body = draw(body_expr(index))
    kind = draw(st.sampled_from(["genarray", "modarray", "fold"]))
    # Safe bounds for every index form: iv in [0, _N//2 - 4) keeps
    # iv+3, 2*iv and iv/2 within [0, _N).
    hi = _N // 2 - 4 + draw(st.integers(0, 3))
    lo = draw(st.integers(0, 1))
    lo_vec = "[" + ", ".join([str(lo)] * rank) + "]"
    hi_vec = "[" + ", ".join([str(hi)] * rank) + "]"
    shp = "[" + ", ".join([str(_N)] * rank) + "]"
    rank_ann = "[" + ",".join(["."] * rank) + "]"
    if kind == "genarray":
        expr = (f"with ({lo_vec} <= iv < {hi_vec}) "
                f"genarray({shp}, {body})")
        ret = f"double{rank_ann}"
    elif kind == "modarray":
        expr = f"with ({lo_vec} <= iv < {hi_vec}) modarray(a, {body})"
        ret = f"double{rank_ann}"
    else:
        expr = f"with ({lo_vec} <= iv < {hi_vec}) fold(+, 0.0, {body})"
        ret = "double"
    src = f"{ret} f(double{rank_ann} a) {{ return {expr}; }}"
    return src, rank


def _array(rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((_N,) * rank)


def _run(src, a, *, vectorize, optimize):
    prog = SacProgram.from_source(
        src, options=CompileOptions(vectorize=vectorize, optimize=optimize)
    )
    return prog.call("f", a)


class TestDifferential:
    @given(withloop_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_scalar_vs_vectorized(self, prog_rank, seed):
        src, rank = prog_rank
        a = _array(rank, seed)
        ref = _run(src, a, vectorize=False, optimize=False)
        vec = _run(src, a, vectorize=True, optimize=False)
        if isinstance(ref, float):
            # fold: the reduction order is unspecified (the operation is
            # required to be associative), so compare to tolerance.
            assert vec == pytest.approx(ref, rel=1e-12, abs=1e-13)
        else:
            np.testing.assert_array_equal(vec, ref)

    @given(withloop_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_optimizer_preserves_semantics(self, prog_rank, seed):
        src, rank = prog_rank
        a = _array(rank, seed)
        ref = _run(src, a, vectorize=True, optimize=False)
        opt = _run(src, a, vectorize=True, optimize=True)
        np.testing.assert_allclose(opt, ref, rtol=1e-13, atol=1e-13)

    @given(withloop_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_codegen_matches_interpreter(self, prog_rank, seed):
        src, rank = prog_rank
        a = _array(rank, seed)
        prog = SacProgram.from_source(src)
        want = prog.call("f", a)
        try:
            fn = compile_function(prog, "f", (a,))
        except CodegenUnsupported:
            return  # outside the specializable subset: nothing to compare
        got = fn(a)
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
        else:
            np.testing.assert_array_equal(got, want)


class TestStencilDifferential:
    """The MG-shaped nested pattern across all paths and pass settings."""

    SRC = (
        "double s3(double[.] a, int[.] iv, double[3] c) {\n"
        "  s = with ([0] <= ov < [3]) fold(+, 0.0, "
        "c[ov[[0]]] * a[iv + ov - 1]);\n"
        "  return s;\n"
        "}\n"
        "double[.] f(double[.] a, double[3] c) {\n"
        "  return with ([1] <= iv < shape(a)-1) modarray(a, s3(a, iv, c));\n"
        "}"
    )

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_all_paths_agree(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(10)
        c = rng.standard_normal(3)
        ref = _run_multi(self.SRC, (a, c), vectorize=False, optimize=False)
        for vec, opt in ((True, False), (True, True)):
            got = _run_multi(self.SRC, (a, c), vectorize=vec, optimize=opt)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)
        prog = SacProgram.from_source(self.SRC)
        fn = compile_function(prog, "f", (a, c))
        np.testing.assert_allclose(fn(a, c), ref, rtol=1e-12, atol=1e-13)


def _run_multi(src, args, *, vectorize, optimize):
    prog = SacProgram.from_source(
        src, options=CompileOptions(vectorize=vectorize, optimize=optimize)
    )
    return prog.call("f", *args)
