"""WITH-loop heads are resolved once per shape: a warm class-S solve of
``mg.sac`` through the interpreter resolves no generator afresh, and a
cold one resolves each distinct head once.  Counts, not clocks."""

import pytest

from repro.core.zran3 import zran3
from repro.mg_sac.loader import load_mg_program, solve_sac_mg
from repro.sac import withloop
from repro.sac.interp import Interpreter

pytestmark = pytest.mark.perf

#: The S ``rnm2`` of the interpreter, bit for bit.
RNM2_S = "0x1.bd3e23d9218edp-15"


@pytest.fixture
def resolutions(monkeypatch):
    calls = []
    resolve = withloop._resolve_space

    def counting(*args):
        calls.append(args[2])
        return resolve(*args)

    monkeypatch.setattr(withloop, "_resolve_space", counting)
    return calls


def test_a_warm_solve_resolves_no_head(resolutions):
    v = zran3(32)
    solve_sac_mg("S", v=v)
    resolutions.clear()
    assert solve_sac_mg("S", v=v).rnm2.hex() == RNM2_S
    assert resolutions == []


def test_a_cold_solve_resolves_each_distinct_head_once(resolutions):
    interp = Interpreter(load_mg_program().interp.functions)
    interp.call("FinalResidual", zran3(32), 4)
    entries = sum(len(e) for _, _, e in interp.heads.values())
    assert len(resolutions) == entries == 112
