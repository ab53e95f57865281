"""Verified NAS MG core: grids, stencils, random stream, V-cycle solver."""

from .classes import CLASSES, SizeClass, get_class
from .grid import (
    comm3,
    ghost_fill,
    interior,
    make_extended,
    make_grid,
    setup_periodic_border,
    zero3,
)
from .mg import (
    MGResult,
    interp_add,
    mg3P,
    psinv,
    resid,
    rprj3,
    solve,
    synthesize_mg_trace,
)
from .norms import norm2u3
from .randlc import RandlcState, power_mod, randlc, vranlc
from .stencils import (
    A_COEFFS,
    P_COEFFS,
    Q_COEFFS,
    S_COEFFS_A,
    S_COEFFS_B,
    STENCILS,
    op_counts,
    relax_naive,
    relax_variable,
)
from .zran3 import fill_random_grid, zran3

__all__ = [
    "CLASSES",
    "SizeClass",
    "get_class",
    "comm3",
    "ghost_fill",
    "interior",
    "make_extended",
    "make_grid",
    "setup_periodic_border",
    "zero3",
    "MGResult",
    "interp_add",
    "mg3P",
    "psinv",
    "resid",
    "rprj3",
    "solve",
    "norm2u3",
    "RandlcState",
    "power_mod",
    "randlc",
    "vranlc",
    "A_COEFFS",
    "P_COEFFS",
    "Q_COEFFS",
    "S_COEFFS_A",
    "S_COEFFS_B",
    "STENCILS",
    "op_counts",
    "relax_naive",
    "relax_variable",
    "synthesize_mg_trace",
    "fill_random_grid",
    "zran3",
]
