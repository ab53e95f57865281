"""Fortran-77 reference style (NPB 2.3 ``mg.f``).

The repository's verified core *is* a structural port of the serial
NPB 2.3 Fortran reference — expression-order-exact, with the 4-coefficient
factorization and the shared ``u1``/``u2`` auxiliary buffers.  This module
packages it behind the common comparison interface.
"""

from __future__ import annotations

from repro.core.mg import numpy_kernels

from .common import MGImplementation

__all__ = ["FortranMG", "FORTRAN_KERNELS"]

FORTRAN_KERNELS = numpy_kernels()


class FortranMG(MGImplementation):
    """Serial NPB 2.3 Fortran-77 reference implementation (port)."""

    name = "f77"
    label = "Fortran-77"
    kernels = FORTRAN_KERNELS
