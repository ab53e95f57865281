"""The ``partialsum`` pass: shared partial sums of a grouped stencil.

A property over random stencil bodies holds the pass to the three
evaluators — with it on, the vectorizing interpreter, the scalar
interpreter and the generated module return the same bytes, and they
agree with the pass off up to the rounding of the reassociated sums.
Unit tests pin what it makes of ``mg.sac``'s relaxations: ``mg.f``'s
``u1``/``u2`` buffers, lowered to 1-D temporaries.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mg_sac.loader import load_mg_program
from repro.sac import (CompilationSession, CompileOptions, KernelCache,
                       SacProgram)
from repro.sac.ast_nodes import Assign, Program, WithLoop
from repro.sac.ast_visit import walk
from repro.sac.codegen import compile_function, trace_module
from repro.sac.optim import partialsum_pass
from repro.sac.optim.rewrite import ast_key

_COEFFS = (0.5, -0.25, 1.0 / 3.0, 2.0, -0.125, 1.0)


def _vec(values) -> str:
    return "[" + ", ".join(map(str, values)) + "]"


#: How an offset's coefficient class is chosen: by distance (the MG
#: stencils), by the distance along each axis, by the distance in the y-z
#: plane and the signed x offset (shared sums in differently weighted
#: groups), or per offset.
_CLASS_OF = {
    "distance": lambda o: sum(map(abs, o)),
    "profile": lambda o: tuple(map(abs, o)),
    "signed": lambda o: (abs(o[0]) + abs(o[1]), o[2]),
    "offset": lambda o: o,
}


@st.composite
def stencil(draw) -> str:
    """``f(a)``: a 3-D relaxation whose body sums ``c * a[iv + o]`` over
    the offsets of a box of {-1, 0, 1}^3 with holes along each axis, in
    a random order, each ``c`` the coefficient of its class."""
    axes = [sorted(draw(st.sets(st.sampled_from((-1, 0, 1)), min_size=1)))
            for _ in range(3)]
    offsets = draw(st.permutations(list(itertools.product(*axes))))
    class_of = _CLASS_OF[draw(st.sampled_from(sorted(_CLASS_OF)))]
    coeff: dict = {}
    for o in offsets:
        coeff.setdefault(class_of(o), draw(st.sampled_from(_COEFFS)))
    terms = [f"{coeff[class_of(o)]!r} * a[iv + {_vec(o)}]" for o in offsets]
    return ("double[+] f(double[+] a) { return with (0*shape(a)+1 <= iv "
            f"< shape(a)-1) modarray(a, {' + '.join(terms)}); }}")


def _build(src: str, on: bool, vectorize: bool = True) -> SacProgram:
    options = CompileOptions(vectorize=vectorize,
                             pass_overrides=(("partialsum", on),))
    return SacProgram(None, _session=CompilationSession(
        src, options=options, cache=KernelCache(memory_only=True)))


_A = (-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)  # NPB's resid coefficients
_MG_RESID = ("double[+] f(double[+] a) { return with (0*shape(a)+1 <= iv "
             "< shape(a)-1) modarray(a, " + " + ".join(
                 f"{_A[sum(map(abs, o))]!r} * a[iv + {_vec(o)}]"
                 for o in itertools.product((-1, 0, 1), repeat=3)) + "); }")


#: Shares a pattern along y in its 1/2 group and another along z in its
#: -1/4 group: the pass must take both in one run.
_TWO_AXES = ("double[+] f(double[+] a) { return with (0*shape(a)+1 <= iv "
             "< shape(a)-1) modarray(a, " + " + ".join(
                 f"{-0.25 if o[1] == 0 and 0 not in (o[0], o[2]) else 0.5!r}"
                 f" * a[iv + {_vec(o)}]"
                 for o in itertools.product((-1, 0, 1), repeat=3)) + "); }")


class TestThreeEvaluators:
    @given(stencil(), st.tuples(*[st.integers(4, 10)] * 3),
           st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    @example(_MG_RESID, (6, 5, 7), 0)
    @example(_TWO_AXES, (5, 6, 7), 1)
    def test_same_bytes_on_and_close_to_off(self, src, shape, seed):
        a = np.random.default_rng(seed).standard_normal(shape)
        on = _build(src, True)
        want = on.call("f", a)
        assert _build(src, True, vectorize=False).call("f", a).tobytes() \
            == want.tobytes()
        assert compile_function(on, "f", (a,))(a).tobytes() == want.tobytes()
        off = _build(src, False).call("f", a)
        np.testing.assert_allclose(want, off, rtol=1e-13,
                                   atol=1e-13 * np.abs(off).max())

    @given(stencil())
    @settings(max_examples=30, deadline=None)
    @example(_TWO_AXES)
    def test_a_second_run_changes_nothing(self, src):
        once = _build(src, True).program
        assert ast_key(partialsum_pass(once)) == ast_key(once)


def _bindings(fun) -> list[str]:
    return [n.target for n in walk(fun.body) if isinstance(n, Assign)
            and n.target.startswith("_ps") and isinstance(n.value, WithLoop)]


class TestMGRelaxations:
    @pytest.fixture(scope="class")
    def prog(self):
        return load_mg_program(True, True)

    def test_fires_on_the_relaxations_only(self, prog):
        found = {f.name: _bindings(f) for f in prog.program.functions}
        # u2 and u1 for resid; psinv shares u1 only (its corner class is
        # zero, so u2 is read once and summed in place).  The generic
        # kernel, with a coefficient vector of four unknowns, has both.
        assert found["Resid"] == ["_ps1_u", "_ps2_u"]
        assert found["Smooth"] == ["_ps1_r"]
        assert found["RelaxKernel"] == ["_ps1_u", "_ps2_u"]
        assert {n for n, b in found.items() if b} == {
            "Resid", "Smooth", "RelaxKernel"}

    def test_reads_mg_f_u1_in_its_order(self, prog):
        from repro.sac.pprint import pprint_program

        resid = next(f for f in prog.program.functions if f.name == "Resid")
        text = pprint_program(Program((resid,)))
        # u1 = y-1, y+1, z-1, z+1; corners, then edges, then the centre.
        assert ("u[_inl3_iv + [0, -1, 0]] + u[_inl3_iv + [0, 1, 0]] + "
                "u[_inl3_iv + [-1, 0, 0]] + u[_inl3_iv + [1, 0, 0]]") in text
        assert ("0.08333333333333333 * (_ps1_u[_inl3_iv + [0, 0, -1]] + "
                "_ps1_u[_inl3_iv + [0, 0, 1]]) + 0.16666666666666666 * "
                "(_ps1_u[_inl3_iv + [0, 0, 0]] + _ps2_u[_inl3_iv + "
                "[0, 0, -1]] + _ps2_u[_inl3_iv + [0, 0, 1]])") in text

    @pytest.mark.parametrize("name", ["Resid", "Smooth"])
    def test_partial_sums_are_flat_temporaries(self, prog, name):
        entry = trace_module(prog, name, (np.zeros((34, 34, 34)),))[1]
        assert entry.text.count(".reshape(-1)") == 1
        assert "np.zeros" not in entry.text
        # Arrays the def allocates over the whole flat range
        # [k0, k1) = [1191, 38113) or more: u1, u2 (rows of one
        # allocation) and the accumulator for Resid, u1 and two sums for
        # Smooth.
        whole = [ins for ins in entry.instrs if ins.dst is not None
                 and ins.kind in ("elementwise", "alloc", "copy")
                 and np.prod(ins.shape) >= 38113 - 1191]
        rows = [ins.op for ins in entry.instrs
                if ins.kind == "alloc" and ins.dst is None]
        assert rows == (["_t4, _t13 = np.empty((2, 36924), dtype=np.float64)"]
                        if name == "Resid" else [])
        assert len(whole) + 2 * len(rows) <= 3

    def test_pass_report_counts_four_rewrites(self):
        from repro.harness.experiments import pass_report

        # The three above, and the restriction's relaxation that WITH-loop
        # folding left dead (dce drops it with its partial sums).
        runs = [e for e in pass_report()["executions"]
                if e["pass"] == "partialsum"]
        assert [e["rewrites"] for e in runs] == [4]
