"""The paper's high-level SAC formulation (Figs. 4–10) in NumPy.

This module is a *literal transcription* of the SAC program presented in
the paper — the recursive ``VCycle``, the four V-cycle operations built
from ``SetupPeriodicBorder`` + a generic ``RelaxKernel``, and the array
library functions ``genarray`` / ``condense`` / ``scatter`` / ``embed``
/ ``take`` of Fig. 10 — with NumPy arrays standing in for SAC's
value-semantic arrays (every operation returns a fresh array; nothing is
updated in place).

The same program text, in actual SAC syntax, lives in
``examples/sac/mg.sac`` and runs through this repository's SAC front end
(:mod:`repro.sac`); both are equivalence-tested against the verified
NPB-exact core.

Dimension-invariance: exactly like the paper's code, nothing here
assumes three dimensions — the library functions and the V-cycle work
for arrays of any rank (property-tested in 1-D/2-D/3-D).
"""

from __future__ import annotations

import numpy as np

from repro.core.classes import SizeClass, get_class
from repro.core.mg import MGResult, checked_rhs
from repro.core.norms import norm2u3
from repro.core.stencils import (
    A_COEFFS,
    P_COEFFS,
    Q_COEFFS,
    S_COEFFS_A,
    S_COEFFS_B,
)
from repro.core.trace import Trace
from repro.core.zran3 import zran3

from .common import MGImplementation

__all__ = [
    "genarray",
    "condense",
    "scatter",
    "embed",
    "take",
    "setup_periodic_border",
    "relax_kernel",
    "resid_op",
    "smooth",
    "fine2coarse",
    "coarse2fine",
    "vcycle",
    "mgrid_iterate",
    "SacStyleMG",
]


# ---------------------------------------------------------------------------
# Fig. 10 — the SAC array library, dimension-invariant.
# ---------------------------------------------------------------------------

def genarray(shp, val: float) -> np.ndarray:
    """``genarray(shp, val)``: array of shape ``shp`` filled with ``val``."""
    return np.full(tuple(int(s) for s in shp), float(val))


def condense(stride: int, a: np.ndarray) -> np.ndarray:
    """``condense(str, a)``: every ``str``-th element along each axis.

    Result extent per axis is ``shape(a) / str`` (integer division), with
    elements taken at ``a[str * iv]`` — exactly the Fig. 10 WITH-loop.
    """
    if stride < 1:
        raise ValueError("condense: stride must be >= 1")
    out_shape = tuple(s // stride for s in a.shape)
    sel = tuple(slice(0, n * stride, stride) for n in out_shape)
    return a[sel].copy()


def scatter(stride: int, a: np.ndarray) -> np.ndarray:
    """``scatter(str, a)``: inverse of condense; zeros fill the gaps."""
    if stride < 1:
        raise ValueError("scatter: stride must be >= 1")
    out = np.zeros(tuple(stride * s for s in a.shape), dtype=a.dtype)
    out[tuple(slice(0, None, stride) for _ in a.shape)] = a
    return out


def embed(shp, pos, a: np.ndarray) -> np.ndarray:
    """``embed(shp, pos, a)``: place ``a`` at offset ``pos`` in a zero
    array of shape ``shp``."""
    shp = tuple(int(s) for s in shp)
    pos = tuple(int(p) for p in pos)
    if len(shp) != a.ndim or len(pos) != a.ndim:
        raise ValueError("embed: shape/pos rank mismatch")
    for s, p, e in zip(shp, pos, a.shape):
        if p < 0 or p + e > s:
            raise ValueError("embed: array does not fit at given position")
    out = np.zeros(shp, dtype=a.dtype)
    out[tuple(slice(p, p + e) for p, e in zip(pos, a.shape))] = a
    return out


def take(shp, a: np.ndarray) -> np.ndarray:
    """``take(shp, a)``: leading subarray of extent ``shp``."""
    shp = tuple(int(s) for s in shp)
    if len(shp) != a.ndim:
        raise ValueError("take: shape rank mismatch")
    for s, e in zip(shp, a.shape):
        if s < 0 or s > e:
            raise ValueError("take: requested extent exceeds array")
    return a[tuple(slice(0, s) for s in shp)].copy()


def setup_periodic_border(a: np.ndarray) -> np.ndarray:
    """Fig. 5: replicate each boundary face from the opposite interior
    face, axis by axis (value-semantic version of ``comm3``), any rank."""
    out = a.copy()
    for axis in reversed(range(a.ndim)):
        idx_lo = [slice(None)] * a.ndim
        idx_hi = [slice(None)] * a.ndim
        src_lo = [slice(None)] * a.ndim
        src_hi = [slice(None)] * a.ndim
        idx_lo[axis], src_hi[axis] = 0, -2
        idx_hi[axis], src_lo[axis] = -1, 1
        out[tuple(idx_lo)] = out[tuple(src_hi)]
        out[tuple(idx_hi)] = out[tuple(src_lo)]
    return out


def relax_kernel(a: np.ndarray, c) -> np.ndarray:
    """The generic fixed-boundary relaxation kernel of [16].

    Applies the distance-class stencil ``c`` to every inner element; the
    boundary elements of the result keep their argument values (SAC's
    ``modarray`` semantics).  Works for any rank: the coefficient vector
    ``c`` must have ``ndim + 1`` entries (distance classes 0..ndim).
    """
    c = tuple(float(x) for x in c)
    if len(c) < a.ndim + 1:
        raise ValueError(
            f"relax_kernel: need {a.ndim + 1} coefficients for rank {a.ndim}"
        )
    out = a.copy()
    inner = tuple(slice(1, -1) for _ in range(a.ndim))
    acc = np.zeros(tuple(s - 2 for s in a.shape), dtype=a.dtype)
    # Group offsets by distance class, one multiply per class (the
    # paper notes the SAC compiler performs this grouping implicitly).
    groups: dict[int, np.ndarray] = {}
    for off in np.ndindex(*(3,) * a.ndim):
        o = tuple(x - 1 for x in off)
        cls = sum(abs(x) for x in o)
        view = a[tuple(slice(1 + x, s - 1 + x) for x, s in zip(o, a.shape))]
        if cls in groups:
            groups[cls] = groups[cls] + view
        else:
            groups[cls] = view.astype(a.dtype, copy=True)
    for cls, grp in sorted(groups.items()):
        if c[cls] != 0.0:
            acc = acc + c[cls] * grp
    out[inner] = acc
    return out


# ---------------------------------------------------------------------------
# Figs. 4, 6, 7 — the benchmark program.
# ---------------------------------------------------------------------------

def resid_op(u: np.ndarray, c=A_COEFFS) -> np.ndarray:
    """Fig. 6 ``Resid``: A applied to ``u`` (the ``v -`` happens outside)."""
    u = setup_periodic_border(u)
    return relax_kernel(u, c)


def smooth(r: np.ndarray, c=S_COEFFS_A) -> np.ndarray:
    """Fig. 6 ``Smooth``: S applied to ``r``."""
    r = setup_periodic_border(r)
    return relax_kernel(r, c)


def fine2coarse(r: np.ndarray) -> np.ndarray:
    """Fig. 7 ``Fine2Coarse``: P-relaxation, condense, re-embed."""
    rs = setup_periodic_border(r)
    rr = relax_kernel(rs, P_COEFFS)
    rc = condense(2, rr)
    rn = embed(tuple(s + 1 for s in rc.shape), tuple(0 for _ in rc.shape), rc)
    return rn


def coarse2fine(rn: np.ndarray) -> np.ndarray:
    """Fig. 7 ``Coarse2Fine``: scatter, trim, Q-relaxation."""
    rp = setup_periodic_border(rn)
    rs = scatter(2, rp)
    rt = take(tuple(s - 2 for s in rs.shape), rs)
    return relax_kernel(rt, Q_COEFFS)


def vcycle(r: np.ndarray, smoother=S_COEFFS_A, trace: Trace | None = None,
           level: int | None = None) -> np.ndarray:
    """Fig. 4 ``VCycle``: the recursive V-cycle operator ``M^k``."""
    n = r.shape[0] - 2
    lvl = n.bit_length() - 1 if level is None else level
    if trace is not None:
        pts = n ** 3 if r.ndim == 3 else int(np.prod([s - 2 for s in r.shape]))
    if r.shape[0] > 2 + 2:
        rn = fine2coarse(r)
        if trace is not None:
            mpts = (n // 2) ** 3 if r.ndim == 3 else 1
            trace.record("rprj3", lvl - 1, mpts)
        zn = vcycle(rn, smoother, trace, lvl - 1)
        z = coarse2fine(zn)
        if trace is not None:
            trace.record("interp", lvl, pts)
        r = r - resid_op(z)
        if trace is not None:
            trace.record("resid", lvl, pts)
            trace.record("comm3", lvl, pts)
        z = z + smooth(r, smoother)
        if trace is not None:
            trace.record("psinv", lvl, pts)
            trace.record("comm3", lvl, pts)
    else:
        z = smooth(r, smoother)
        if trace is not None:
            trace.record("psinv", lvl, pts)
            trace.record("comm3", lvl, pts)
    return z


def mgrid_iterate(v: np.ndarray, iterations: int, smoother=S_COEFFS_A,
                  trace: Trace | None = None,
                  history: list[float] | None = None) -> np.ndarray:
    """Fig. 4 ``MGrid``: alternate residual and V-cycle correction."""
    u = genarray(v.shape, 0.0)
    n = v.shape[0] - 2
    lvl = n.bit_length() - 1
    pts = int(np.prod([s - 2 for s in v.shape]))
    for _ in range(iterations):
        r = v - resid_op(u)
        if trace is not None:
            trace.record("resid", lvl, pts)
            trace.record("comm3", lvl, pts)
        if history is not None:
            history.append(norm2u3(r)[0])
        u = u + vcycle(r, smoother, trace, lvl)
    return u


class SacStyleMG(MGImplementation):
    """High-level SAC-style implementation (paper Figs. 4–10)."""

    name = "sac"
    label = "SAC"

    def solve(self, size_class: str | SizeClass, nit: int | None = None, *,
              v: np.ndarray | None = None, collect_trace: bool = False,
              keep_history: bool = False) -> MGResult:
        sc = get_class(size_class) if isinstance(size_class, str) else size_class
        iters = sc.nit if nit is None else nit
        smoother = S_COEFFS_A if sc.smoother == "a" else S_COEFFS_B
        trace = Trace() if collect_trace else None
        history: list[float] | None = [] if keep_history else None

        v = zran3(sc.nx) if v is None else checked_rhs(sc, v)
        u = mgrid_iterate(v, iters, smoother, trace, history)
        r = v - resid_op(u)
        if trace is not None:
            trace.record("resid", sc.lt, sc.nx ** 3)
            trace.record("comm3", sc.lt, sc.nx ** 3)
        rnm2, rnmu = norm2u3(r)
        if trace is not None:
            trace.record("norm2u3", sc.lt, sc.nx ** 3)
        if history is not None:
            history.append(rnm2)
        return MGResult(sc, rnm2, rnmu, u, r, trace, history or [])
