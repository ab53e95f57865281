"""Differential testing of the three SAC execution paths.

Hypothesis generates random (but well-formed) WITH-loop programs; each
program must produce identical results through

1. the scalar reference evaluator (the defining semantics),
2. the vectorizing evaluator (slices/gathers), and
3. the shape-specializing codegen backend,

with and without the optimization pipeline.  This is the repository's
strongest guard against miscompilation.  The error-agreement property
adds ill-formed programs: every path — typechecker and analyzer, the
three evaluators, the optimizer on and off — returns the same bytes, or
every path raises the same coded error, and each interpreter gives the
same outcome when it is called again.  The per-point property mixes
values per point of a WITH-loop with whole arrays: every path returns
the scalar reference's bytes, or generated code declines.

``--hypothesis-profile=fuzz`` (``conftest.py``) runs each property on
that profile's number of examples.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sac import CompileOptions, KernelCache, SacProgram
from repro.sac.codegen import CodegenUnsupported, compile_function
from repro.sac.errors import SacError

from .programs import (PER_POINT_N, PER_POINT_ROWS, WITHLOOP_N, build,
                       checked_program, per_point_program, withloop_program)


def _examples(n: int) -> int:
    """``n``, or the ``fuzz`` profile's count when that profile is the
    one loaded."""
    fuzz = settings.get_profile("fuzz").max_examples
    return fuzz if settings.default.max_examples == fuzz else n


def _array(rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((WITHLOOP_N,) * rank)


def _run(src, a, *, vectorize, optimize):
    prog = SacProgram.from_source(
        src, options=CompileOptions(vectorize=vectorize, optimize=optimize)
    )
    return prog.call("f", a)


class TestDifferential:
    @given(withloop_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=_examples(60), deadline=None)
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
    @settings(max_examples=_examples(40), deadline=None)
    def test_optimizer_preserves_semantics(self, prog_rank, seed):
        src, rank = prog_rank
        a = _array(rank, seed)
        ref = _run(src, a, vectorize=True, optimize=False)
        opt = _run(src, a, vectorize=True, optimize=True)
        np.testing.assert_allclose(opt, ref, rtol=1e-13, atol=1e-13)

    @given(withloop_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=_examples(40), deadline=None)
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
    @settings(max_examples=_examples(20), deadline=None)
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


def _outcome(run, args) -> tuple:
    """What one path makes of a program: its result's dtype, shape and
    bytes with the arguments unmutated, or the class and codes of the
    SAC error it raised; None where the generated path declines.  A zero
    counts as +0.0: unrolling a fold drops its ``+ 0.0`` neutral, which
    turns a sum of -0.0 terms from +0.0 into -0.0, and nothing else."""
    before = [a.copy() for a in args]
    try:
        got = np.asarray(run())
    except CodegenUnsupported:
        return None
    except SacError as exc:
        return (type(exc).__name__,
                tuple(d.code for d in getattr(exc, "diagnostics", ())))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(args, before))
    if got.dtype.kind == "f":
        got = got + 0.0
    return got.dtype, got.shape, got.tobytes()


def _twice(program, args) -> tuple:
    """The :func:`_outcome` of calling ``f`` twice on one interpreter
    (``program`` builds it once): the second call meets the WITH-loop
    heads the first one resolved, and must give the same outcome."""
    first = _outcome(lambda: program().call("f", *args), args)
    assert _outcome(lambda: program().call("f", *args), args) == first
    return first


class TestErrorAgreement:
    @given(checked_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=_examples(300), deadline=None, derandomize=True)
    def test_same_bytes_or_same_coded_error(self, program, seed):
        src, rank, defect = program
        # Integer values: every body and fold is exact in any order.
        args = (np.random.default_rng(seed).integers(
            -8, 9, (WITHLOOP_N,) * rank).astype(np.float64),)
        outcomes = set()
        for optimize in (False, True):
            cache = KernelCache()

            def path(vectorize: bool) -> SacProgram:
                return build(src, cache, analyze=True, optimize=optimize,
                             vectorize=vectorize)

            outcomes |= {
                _twice(functools.cache(lambda: path(False)), args),
                _twice(functools.cache(lambda: path(True)), args),
                _outcome(lambda: compile_function(path(True), "f", args)(
                    *args), args)} - {None}
        assert len(outcomes) == 1, outcomes
        (outcome,) = outcomes
        if defect is None:
            assert not isinstance(outcome[0], str), outcome
        else:
            assert isinstance(outcome[0], str) and outcome[1], outcome


def _per_point_outcomes(src: str, args) -> dict:
    """The :func:`_outcome` of every path: the interpreter per index and
    vectorized and generated code, each with the optimizer off and on."""
    outcomes = {}
    for optimize in (False, True):
        cache = KernelCache()

        def path(vectorize: bool) -> SacProgram:
            return build(src, cache, optimize=optimize, vectorize=vectorize)

        outcomes[optimize, "scalar"] = _outcome(
            lambda: path(False).call("f", *args), args)
        outcomes[optimize, "vectorized"] = _outcome(
            lambda: path(True).call("f", *args), args)
        outcomes[optimize, "generated"] = _outcome(
            lambda: compile_function(path(True), "f", args)(*args), args)
    return outcomes


class TestPerPoint:
    @given(per_point_program(), st.integers(0, 2 ** 31))
    @settings(max_examples=_examples(80), deadline=None, derandomize=True)
    def test_every_path_gives_the_scalar_reference(self, src, seed):
        rng = np.random.default_rng(seed)
        args = tuple(rng.integers(-4, 5, shape).astype(np.float64) for shape
                     in ((PER_POINT_ROWS, PER_POINT_N), (PER_POINT_N,),
                         (PER_POINT_N,)))
        outcomes = _per_point_outcomes(src, args)
        want = outcomes[False, "scalar"]
        assert not isinstance(want[0], str), want
        assert {o for (_, path), o in outcomes.items()
                if path != "generated" or o is not None} == {want}, outcomes


#: Programs over ``a``, ``v`` and ``w`` (below) that mix values per
#: point with whole arrays, what each gives, and whether generated code
#: may decline it.
PER_POINT_CASES = {
    "element of a row": ("with ([0] <= iv < [2]) genarray([2], a[iv][[1]])",
                         [2.25, 1.5], False),
    "whole array per point": ("with ([0] <= iv < [2]) genarray([2], a)",
                              [[[0.5, 2.25, 4.0], [9.0, 1.5, 7.75]]] * 2,
                              False),
    "scalar plus vector": ("with ([0] <= iv < [2]) genarray([2], w[iv] + w)",
                           [[20.0, 30.0], [30.0, 40.0]], False),
    "builtin of scalar and vector": (
        "with ([0] <= iv < [3]) genarray([3], min(v[iv], w))",
        [[1.0, 1.0], [-2.0, -2.0], [4.0, 4.0]], False),
    "nested genarray": (
        "with ([0] <= i < [2]) genarray([2], with ([0] <= j < [2]) "
        "genarray([2], w[i] + 10.0 * w[j]))",
        [[110.0, 210.0], [120.0, 220.0]], True),
    "helper of a row": ("with ([0] <= iv < [2]) genarray([2], g(a[iv]))",
                        [6.75, 18.25], False),
    "vector of vectors": ("[v, v + 1.0]",
                          [[1.0, -2.0, 4.0], [2.0, -1.0, 5.0]], False),
    "vector neutral": ("with ([0] <= iv < [2]) fold(+, [0.0, 0.0], w)",
                       [20.0, 40.0], False),
    "reduction of a row": ("with ([0] <= iv < [2]) genarray([2], sum(a[iv]))",
                           [6.75, 18.25], False),
    "empty cells": ("with ([0, 0] <= iv < [2, 3]) genarray([2, 3], "
                    "shape(1.0))", np.zeros((2, 3, 0), np.int64), False),
    "double body in an int frame": (
        "with ([0] <= iv < [2]) modarray([1, 2, 3], 0.5)", [0.5, 0.5, 3.0],
        False),
}


@pytest.mark.parametrize("case", sorted(PER_POINT_CASES))
def test_per_point_programs(case):
    body, expected, may_decline = PER_POINT_CASES[case]
    src = ("double g(double[.] x) { return sum(x); }\n"
           "double[*] f(double[.,.] a, double[.] v, double[.] w) "
           f"{{ return {body}; }}")
    args = (np.array([[0.5, 2.25, 4.0], [9.0, 1.5, 7.75]]),
            np.array([1.0, -2.0, 4.0]), np.array([10.0, 20.0]))
    outcomes = _per_point_outcomes(src, args)
    expected = np.asarray(expected)
    want = expected.dtype, expected.shape, expected.tobytes()
    assert outcomes.pop((False, "scalar")) == want
    for (optimize, path), outcome in outcomes.items():
        if outcome is None:
            assert path == "generated" and may_decline, (optimize, path)
        else:
            assert outcome == want, (optimize, path)
