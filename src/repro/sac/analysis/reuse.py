"""Retired: buffer reuse is decided once, by :mod:`repro.sac.bufplan`.

Only the benchmark's ``sac.analysis.reuse_hints`` count still calls
:func:`certify_program`, which now reports no sites (ROADMAP 5(j)).
"""


def certify_program(program: object) -> list[object]:
    return []
