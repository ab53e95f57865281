"""C port style (RWCP Omni OpenMP distribution).

The paper's C comparator was ported "almost literally" from the Fortran
reference: same algorithm, same 4-coefficient stencil optimization and
auxiliary buffers, but a different low-level realization (row-pointer
loops instead of Fortran array indexing).  The paper measures it 14–23 %
*slower* than the Fortran code (§5) without a conclusive explanation.

We mirror that structure: the same arithmetic, organized as an explicit
loop over ``i3`` planes with per-plane buffer arrays — the unit at which
the C code walks its pointer rows — rather than whole-volume slice
arithmetic.  Per-element expression order is identical to the Fortran
port, so results are bit-identical; only the execution structure (and
hence the measured cost profile) differs.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import comm3, make_grid

from .common import MGImplementation, MGKernels

__all__ = ["CMG", "C_KERNELS", "resid_planes", "psinv_planes",
           "rprj3_planes", "interp_add_planes"]


def _plane_sums_at(w: np.ndarray, i3: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``u1``/``u2`` buffers for one ``i3`` plane (full x extent)."""
    t1 = w[i3, :-2, :] + w[i3, 2:, :] + w[i3 - 1, 1:-1, :] + w[i3 + 1, 1:-1, :]
    t2 = (w[i3 - 1, :-2, :] + w[i3 - 1, 2:, :]
          + w[i3 + 1, :-2, :] + w[i3 + 1, 2:, :])
    return t1, t2


def resid_planes(u: np.ndarray, v: np.ndarray, a, *,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``r = v - A u`` computed plane by plane (C loop structure).

    ``out`` may alias ``v``: each plane of ``v`` is read before that
    plane of the result is written."""
    a = tuple(float(x) for x in a)
    n = u.shape[0]
    r = np.zeros_like(u) if out is None else out
    for i3 in range(1, n - 1):
        u1, u2 = _plane_sums_at(u, i3)
        acc = v[i3, 1:-1, 1:-1] - a[0] * u[i3, 1:-1, 1:-1]
        if a[1] != 0.0:
            acc = acc - a[1] * ((u[i3, 1:-1, :-2] + u[i3, 1:-1, 2:])
                                + u1[:, 1:-1])
        acc = acc - a[2] * ((u2[:, 1:-1] + u1[:, :-2]) + u1[:, 2:])
        acc = acc - a[3] * (u2[:, :-2] + u2[:, 2:])
        r[i3, 1:-1, 1:-1] = acc
    comm3(r)
    return r


def psinv_planes(r: np.ndarray, u: np.ndarray, c) -> np.ndarray:
    """``u += S r`` computed plane by plane (C loop structure)."""
    c = tuple(float(x) for x in c)
    n = u.shape[0]
    for i3 in range(1, n - 1):
        r1, r2 = _plane_sums_at(r, i3)
        acc = u[i3, 1:-1, 1:-1] + c[0] * r[i3, 1:-1, 1:-1]
        acc = acc + c[1] * ((r[i3, 1:-1, :-2] + r[i3, 1:-1, 2:]) + r1[:, 1:-1])
        acc = acc + c[2] * ((r2[:, 1:-1] + r1[:, :-2]) + r1[:, 2:])
        if c[3] != 0.0:
            acc = acc + c[3] * (r2[:, :-2] + r2[:, 2:])
        u[i3, 1:-1, 1:-1] = acc
    comm3(u)
    return u


def rprj3_planes(r: np.ndarray) -> np.ndarray:
    """Fine-to-coarse projection, one coarse plane at a time."""
    nf = r.shape[0] - 2
    if nf < 4 or nf % 2:
        raise ValueError(f"cannot project a grid with interior {nf}")
    n = nf + 2
    mj = nf // 2
    s = make_grid(mj)
    c1 = slice(2, n - 1, 2)
    m1 = slice(1, n - 2, 2)
    p1 = slice(3, n, 2)
    ox = slice(1, n, 2)
    for j3 in range(1, mj + 1):
        i3 = 2 * j3  # fine center plane (0-based)
        x1 = (r[i3, m1, ox] + r[i3, p1, ox]
              + r[i3 - 1, c1, ox] + r[i3 + 1, c1, ox])
        y1 = (r[i3 - 1, m1, ox] + r[i3 + 1, m1, ox]
              + r[i3 - 1, p1, ox] + r[i3 + 1, p1, ox])
        x2 = (r[i3, m1, c1] + r[i3, p1, c1]
              + r[i3 - 1, c1, c1] + r[i3 + 1, c1, c1])
        y2 = (r[i3 - 1, m1, c1] + r[i3 + 1, m1, c1]
              + r[i3 - 1, p1, c1] + r[i3 + 1, p1, c1])
        acc = 0.5 * r[i3, c1, c1]
        acc = acc + 0.25 * ((r[i3, c1, m1] + r[i3, c1, p1]) + x2)
        acc = acc + 0.125 * ((x1[:, :-1] + x1[:, 1:]) + y2)
        acc = acc + 0.0625 * (y1[:, :-1] + y1[:, 1:])
        s[j3, 1:-1, 1:-1] = acc
    comm3(s)
    return s


def interp_add_planes(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Trilinear prolongation, one coarse plane at a time."""
    m = z.shape[0] - 2
    nf = u.shape[0] - 2
    if nf != 2 * m:
        raise ValueError(f"interp shape mismatch: coarse {m} fine {nf}")
    n = nf + 2
    L = slice(0, -1)
    H = slice(1, None)
    E = slice(0, n - 1, 2)
    O = slice(1, n, 2)
    for j3 in range(0, m + 1):
        zc, zn = z[j3], z[j3 + 1]
        z1 = zc[H, :] + zc[L, :]
        z2 = zn[L, :] + zc[L, :]
        z3 = (zn[H, :] + zn[L, :]) + z1
        e3, o3 = 2 * j3, 2 * j3 + 1
        u[e3, E, E] += zc[L, L]
        u[e3, E, O] += 0.5 * (zc[L, H] + zc[L, L])
        u[e3, O, E] += 0.5 * z1[:, :-1]
        u[e3, O, O] += 0.25 * (z1[:, :-1] + z1[:, 1:])
        u[o3, E, E] += 0.5 * z2[:, :-1]
        u[o3, E, O] += 0.25 * (z2[:, :-1] + z2[:, 1:])
        u[o3, O, E] += 0.25 * z3[:, :-1]
        u[o3, O, O] += 0.125 * (z3[:, :-1] + z3[:, 1:])
    return u


C_KERNELS = MGKernels(
    resid=resid_planes,
    psinv=psinv_planes,
    rprj3=rprj3_planes,
    interp_add=interp_add_planes,
)


class CMG(MGImplementation):
    """C port of the reference implementation (RWCP Omni style)."""

    name = "c"
    label = "C / OpenMP"
    kernels = C_KERNELS
