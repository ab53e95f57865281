"""WITH-loop heads are resolved once per shape, and what a kept head
decides is worked out once: a warm class-S solve of ``mg.sac`` through
the interpreter resolves no generator, builds no constant vector
literal, runs no index arithmetic, computes no selection's slices and
scores no overload afresh; a cold one resolves each distinct head once.
Counts, not clocks."""

from collections import Counter

import pytest

from repro.core.zran3 import zran3
from repro.mg_sac.loader import load_mg_program, solve_sac_mg
from repro.sac import withloop
from repro.sac.ast_nodes import BoolLit, DoubleLit, IntLit
from repro.sac.interp import FunctionTable, Interpreter
from repro.sac.values import IndexView

pytestmark = pytest.mark.perf

#: The S ``rnm2`` of the interpreter, bit for bit.
RNM2_S = "0x1.bd3e23d9218edp-15"

#: What each count wraps.
COUNTED = {
    "heads": [(withloop, "_resolve_space")],
    "index operations": [(IndexView, op)
                         for op in ("add", "sub", "mul", "floordiv")],
    "slices": [(IndexView, "slices")],
    "resolutions": [(FunctionTable, "_pick")],
}


@pytest.fixture
def counts(monkeypatch):
    seen = Counter()

    def count(name, owner, attr):
        wrapped = getattr(owner, attr)

        def counting(*args):
            seen[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(owner, attr, counting)

    for name, where in COUNTED.items():
        for owner, attr in where:
            count(name, owner, attr)
    vector = Interpreter.eval_VectorLit

    def literal(self, expr, env):
        if id(expr) not in self.literals and all(
                isinstance(e, (IntLit, DoubleLit, BoolLit))
                for e in expr.elements):
            seen["constant literals"] += 1
        return vector(self, expr, env)

    monkeypatch.setattr(Interpreter, "eval_VectorLit", literal)
    # Expression dispatch keeps its methods per class: forget them around.
    monkeypatch.delattr(Interpreter, "_expr_dispatch_table", raising=False)
    yield seen
    Interpreter.__dict__.get("_expr_dispatch_table", {}).clear()


def test_a_warm_solve_resolves_no_head(counts):
    """A warm solve resolves no head and redoes no work a kept head
    decides."""
    v = zran3(32)
    solve_sac_mg("S", v=v)
    counts.clear()
    assert solve_sac_mg("S", v=v).rnm2.hex() == RNM2_S
    assert dict(counts) == {}


def test_a_cold_solve_resolves_each_distinct_head_once(counts):
    interp = Interpreter(load_mg_program().interp.functions)
    interp.call("FinalResidual", zran3(32), 4)
    entries = sum(len(e) for _, _, e in interp.heads.values())
    assert counts["heads"] == entries == 112
    # The first use of each kept view still does its index work.
    assert counts["index operations"] and counts["slices"]
    assert counts["constant literals"]
