"""One record per builtin, and every consumer of it held to it.

Parametrized over :data:`repro.sac.builtins.BUILTINS`, so a record added
there is covered without a test of its own: the scalar interpreter, the
vectorizing interpreter and generated NumPy return the same bytes and
dtype on scalar and array operands, directly and per point of a
WITH-loop; a call with one argument too few or too many is SAC004; and
the shape analyzer gives its result the rank the interpreter's has.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.sac import KernelCache, compile_function
from repro.sac.analysis.shapes import Affine, AValue, ShapeAnalyzer
from repro.sac.ast_nodes import Call, Program, Var
from repro.sac.builtins import BUILTINS
from repro.sac.parser import parse_program
from repro.sac.typecheck import collect_diagnostics

from .conftest import assert_same_bytes
from .programs import build

LANGUAGE = Path(__file__).resolve().parents[2] / "docs" / "LANGUAGE.md"
A = np.array([[0.5, 2.25, 4.0], [9.0, 1.5, 7.75]])
B = np.array([[1.0, 0.25, 6.5], [2.0, 3.5, 7.75]])

#: Where each operand of the builtin comes from: the whole arrays, one
#: element per point of a WITH-loop, or one row per point.
BODIES = {
    "arrays": "{call}",
    "scalars": "with ([0, 0] <= iv < shape(a)) genarray(shape(a), {call})",
    "rows": "with ([0] <= iv < [2]) genarray([2], {call})",
}


def _source(name: str, operands: str) -> str:
    b = BUILTINS[name]
    args = ", ".join("ab"[:b.arity]) if operands == "arrays" else \
        ", ".join(f"{x}[iv]" for x in "ab"[:b.arity])
    result = "int" if b.dtype == np.int64 else "double"
    body = BODIES[operands].format(call=f"{name}({args})")
    return (f"{result}[*] f(double[.,.] a, double[.,.] b) "
            f"{{ return {body}; }}")


@pytest.mark.parametrize("operands", sorted(BODIES))
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_three_evaluators_give_the_same_bytes(name, operands):
    src = _source(name, operands)
    want = build(src, vectorize=False).call("f", A, B)
    prog = build(src, cache=KernelCache())
    assert_same_bytes(prog.call("f", A, B), want)
    assert_same_bytes(compile_function(prog, "f", (A, B))(A, B), want)
    if BUILTINS[name].dtype is not None:
        assert np.asarray(want).dtype == BUILTINS[name].dtype


@pytest.mark.parametrize("off_by", [-1, 1])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_one_argument_too_few_or_too_many_is_sac004(name, off_by):
    nargs = BUILTINS[name].arity + off_by
    src = f"int f(double a) {{ x = {name}({', '.join(['a'] * nargs)}); " \
          "return 0; }"
    assert [d.code for d in collect_diagnostics(parse_program(src))] \
        == ["SAC004"]


@pytest.mark.parametrize("operand", ["scalar", "array"])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_the_analyzer_gives_the_interpreters_rank(name, operand):
    b = BUILTINS[name]
    value, abstract = {
        "scalar": (2.25, AValue.scalar()),
        "array": (A, AValue.array((Affine.of(2), Affine.of(3)))),
    }[operand]
    got = ShapeAnalyzer(Program(()), sink=[].append).eval(
        Call(name, (Var("a"),) * b.arity), {"a": abstract})
    want = np.ndim(b.fn(*[value] * b.arity))
    assert (0 if got.is_scalar else got.rank) == want


class TestDocDrift:
    """docs/LANGUAGE.md must describe every builtin the records define."""

    def test_every_record_documented_with_its_arity_and_kind(self):
        # Table rows look like `| `sqrt` | 1 | elementwise | double |`.
        rows = dict((name, (int(arity), kind)) for name, arity, kind in
                    re.findall(r"^\s*\| `(\w+)` \| (\d) \| (\w+) \|",
                               LANGUAGE.read_text(), re.M))
        assert rows == {n: (b.arity, b.kind) for n, b in BUILTINS.items()}
