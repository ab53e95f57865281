"""The MG benchmark written in SAC, executed by the mini-SAC pipeline."""

from .loader import (
    SacMGResult,
    load_mg_program,
    mg_source_path,
    solve_generated_mg,
    solve_sac_mg,
)

__all__ = ["SacMGResult", "load_mg_program", "mg_source_path",
           "solve_generated_mg", "solve_sac_mg"]
