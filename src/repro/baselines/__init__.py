"""The paper's three comparison implementations of NAS MG.

* :class:`FortranMG` — serial NPB 2.3 Fortran-77 reference (port),
* :class:`CMG` — RWCP C/OpenMP port structure,
* :class:`SacMG` — the paper's SAC program ``mg.sac``, compiled.
"""

from .c_mg import CMG
from .common import MGImplementation, MGKernels
from .fortran_mg import FortranMG
from .sac_mg import SacMG

#: All comparison implementations, keyed by short name.
IMPLEMENTATIONS = {
    impl.name: impl for impl in (FortranMG(), CMG(), SacMG())
}

__all__ = [
    "CMG",
    "FortranMG",
    "SacMG",
    "MGImplementation",
    "MGKernels",
    "IMPLEMENTATIONS",
]
