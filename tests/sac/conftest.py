"""The codegen contract, checked wherever these tests compile anything.

Every specialization ``compile_function`` traces while a test of the
modules below runs is executed once on its example arguments and must
return the bytes the tree-walking interpreter returns for the same
function and arguments, and leave those arguments as they were: whatever
the buffer planner lets a callee write into, the entry point's
parameters are its caller's.  One helper, so no test carries its own
copy of the comparison and a new test in these modules is covered by
writing it.

It also registers the ``fuzz`` hypothesis profile: 2 000 examples per
property (``pytest --hypothesis-profile=fuzz``).
"""

import numpy as np
import pytest
from hypothesis import settings

from repro.sac import codegen
from repro.sac.driver import KernelCache
from repro.sac.interp import Interpreter

settings.register_profile("fuzz", max_examples=2_000)

_CONTRACT_MODULES = {"test_codegen", "test_mg_sac", "test_bufplan",
                     "test_donation_property"}


def assert_same_bytes(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(autouse=True)
def generated_code_matches_interpreter(request, monkeypatch):
    if request.module.__name__.rpartition(".")[2] not in _CONTRACT_MODULES:
        return
    trace = codegen.trace_fundef

    def checked_trace(table, fun, example_args, **kwargs):
        compiled = trace(table, fun, example_args, **kwargs)
        args = [Interpreter._ingest(a) for a in example_args]
        before = [np.array(a) for a in args]  # copies
        got = compiled(*args)
        for after, was in zip(args, before):
            assert_same_bytes(after, was)
        assert_same_bytes(got, Interpreter(table).apply_fundef(fun, args))
        return compiled

    monkeypatch.setattr(codegen, "trace_fundef", checked_trace)
    # A kernel an earlier test left in the shared cache is never traced.
    monkeypatch.setattr(KernelCache, "get_kernel", lambda self, key: None)
