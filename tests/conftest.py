"""Fixtures shared across the suite."""

import sys

import pytest

from repro.core.zran3 import zran3 as real_zran3


def _rebind_zran3(monkeypatch, replacement):
    """Bind ``replacement`` over every ``repro.*`` module global that is
    ``zran3`` — each solver entry and harness command calls it through
    its own — until the test ends.  Only modules already imported are
    seen: import what is under test at the top of the test module."""
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(mod).items()):
                if value is real_zran3:
                    monkeypatch.setattr(mod, attr, replacement)


@pytest.fixture
def zran3_calls(monkeypatch):
    """The ``nx`` of every ``zran3`` call made during the test."""
    calls = []
    _rebind_zran3(monkeypatch,
                  lambda nx: calls.append(nx) or real_zran3(nx))
    return calls


@pytest.fixture
def forbid_zran3(monkeypatch):
    """``forbid_zran3()`` makes every later ``zran3`` call fail: what a
    test says once it has built the ``v`` it passes in."""
    def unreachable(*args):
        raise AssertionError("zran3 called although v was passed")

    return lambda: _rebind_zran3(monkeypatch, unreachable)
