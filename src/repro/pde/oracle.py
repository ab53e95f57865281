"""Sparse-direct oracle for the family's discrete systems.

Assembles exactly the matrix that :meth:`FaceOperator.apply` applies
through the ghost contract — the diagonal comes from
:meth:`FaceOperator.diag` (which already folds in the affine ghost
dependence at physical boundaries), the off-diagonals from the scaled
face coefficients, with wrap couplings for periodic boundaries — and
solves it with ``scipy.sparse.linalg.spsolve``.  Test-only: scipy is
imported lazily so the solver stack itself stays numpy-only.
"""

from __future__ import annotations

import numpy as np

from .operators import FaceOperator
from .specs import FloatArray

__all__ = ["assemble", "oracle_solve"]


def assemble(op: FaceOperator):
    """The operator as a ``scipy.sparse.csr_matrix`` over the
    C-order-flattened interior cells."""
    from scipy.sparse import coo_matrix

    shape = op.shape
    n = int(np.prod(shape))
    idx = np.arange(n).reshape(shape)
    rows = [idx.ravel()]
    cols = [idx.ravel()]
    vals = [op.diag().ravel()]
    for d in range(op.ndim):
        sf = op.faces(d)
        inner = [slice(None)] * op.ndim
        inner[d] = slice(1, -1)
        w = sf[tuple(inner)].ravel()
        lo = [slice(None)] * op.ndim
        hi = [slice(None)] * op.ndim
        lo[d] = slice(0, -1)
        hi[d] = slice(1, None)
        lo_cells = idx[tuple(lo)].ravel()
        hi_cells = idx[tuple(hi)].ravel()
        # cell i couples to i-1 through its lower face and vice versa.
        rows += [hi_cells, lo_cells]
        cols += [lo_cells, hi_cells]
        vals += [-w, -w]
        if op.boundary.kind == "periodic":
            first = [slice(None)] * op.ndim
            last = [slice(None)] * op.ndim
            first[d] = slice(0, 1)
            last[d] = slice(-1, None)
            f_cells = idx[tuple(first)].ravel()
            l_cells = idx[tuple(last)].ravel()
            rows += [f_cells, l_cells]
            cols += [l_cells, f_cells]
            vals += [-sf[tuple(first)].ravel(),
                     -sf[tuple(last)].ravel()]
    mat = coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return mat.tocsr()


def oracle_solve(op: FaceOperator, f: FloatArray) -> FloatArray:
    """Direct solve of the assembled system; interior-shaped result."""
    from scipy.sparse.linalg import spsolve

    mat = assemble(op)
    u = spsolve(mat, np.asarray(f, dtype=np.float64).ravel())
    return np.asarray(u, dtype=np.float64).reshape(op.shape)
