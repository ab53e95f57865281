"""The paper's three comparison implementations of NAS MG.

* :class:`FortranMG` — serial NPB 2.3 Fortran-77 reference (port),
* :class:`CMG` — RWCP C/OpenMP port structure,
* :class:`SacStyleMG` — the paper's high-level SAC formulation.
"""

from .c_mg import CMG
from .common import MGImplementation, MGKernels
from .fortran_mg import FortranMG
from .sac_style_mg import SacStyleMG

#: All comparison implementations, keyed by short name.
IMPLEMENTATIONS = {
    impl.name: impl for impl in (FortranMG(), CMG(), SacStyleMG())
}

__all__ = [
    "CMG",
    "FortranMG",
    "SacStyleMG",
    "MGImplementation",
    "MGKernels",
    "IMPLEMENTATIONS",
]
