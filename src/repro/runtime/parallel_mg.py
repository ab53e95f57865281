"""Shared-memory parallel MG kernels (implicit parallelization target).

Each V-cycle kernel is expressed as a *chunk kernel* over a range of
result planes plus a dispatch through a :class:`ThreadTeam` region —
exactly the code shape the SAC compiler emits for its multithreaded
WITH-loops, including its choice to run small loops sequentially: the
team forks a region or runs it inline as one chunk, whichever it
measured faster for that operator and grid shape.  Workers write
disjoint plane slabs of the shared output array; the border exchange
(``comm3``) runs on the master between regions, as in SAC's runtime.

Per-element arithmetic matches the serial kernels expression-for-
expression, so parallel results are bit-identical to serial ones for
any team size and partition (tested) — determinism the paper's runtime
also provides.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.classes import SizeClass, get_class
from repro.core.grid import comm3, make_grid
from repro.core.mg import MGResult
from repro.core.norms import norm2u3
from repro.core.stencils import A_COEFFS, S_COEFFS_A, S_COEFFS_B
from repro.core.zran3 import zran3

from .executor import ThreadTeam
from .scheduler import Chunk, block_partition

__all__ = [
    "resid_chunk",
    "psinv_chunk",
    "rprj3_chunk",
    "interp_chunk",
    "parallel_resid",
    "parallel_psinv",
    "parallel_rprj3",
    "parallel_interp_add",
    "ParallelMG",
]

_C = slice(1, -1)
_M = slice(0, -2)
_P = slice(2, None)


def _zrange(z0: int, z1: int, off: int = 0) -> slice:
    """Extended-array slice of interior planes ``z0..z1`` shifted by
    ``off`` (interior plane ``p`` lives at extended index ``p + 1``)."""
    return slice(z0 + 1 + off, z1 + 1 + off)


def _scratch(ws, name: str, planes: int, tail: tuple[int, ...],
             z0: int, z1: int) -> np.ndarray:
    """Uninitialized scratch for planes ``[z0, z1)`` of a level.

    With a workspace this is a plane-range view of one pooled
    ``(planes, *tail)`` buffer: disjoint chunks get disjoint memory, and
    the pool's footprint is the same for every partition and team size.
    """
    if ws is None:
        return np.empty((z1 - z0,) + tail)
    return ws.get(name, (planes,) + tail)[z0:z1]


# ---------------------------------------------------------------------------
# Chunk kernels (a range of result planes each).
# ---------------------------------------------------------------------------

def resid_chunk(u: np.ndarray, v: np.ndarray, a, r: np.ndarray,
                z0: int, z1: int, ws=None) -> None:
    """``r = v - A u`` on interior planes ``[z0, z1)``."""
    a = tuple(float(x) for x in a)
    zc, zm, zp = _zrange(z0, z1), _zrange(z0, z1, -1), _zrange(z0, z1, +1)
    m, n2, n1 = u.shape[0] - 2, u.shape[1], u.shape[2]
    u1 = _scratch(ws, "chunk.u1", m, (n2 - 2, n1), z0, z1)
    u2 = _scratch(ws, "chunk.u2", m, (n2 - 2, n1), z0, z1)
    np.add(u[zc, _M, :], u[zc, _P, :], out=u1)
    np.add(u1, u[zm, _C, :], out=u1)
    np.add(u1, u[zp, _C, :], out=u1)
    np.add(u[zm, _M, :], u[zm, _P, :], out=u2)
    np.add(u2, u[zp, _M, :], out=u2)
    np.add(u2, u[zp, _P, :], out=u2)
    acc = _scratch(ws, "chunk.acc", m, (n2 - 2, n1 - 2), z0, z1)
    tmp = _scratch(ws, "chunk.tmp", m, (n2 - 2, n1 - 2), z0, z1)
    np.multiply(u[zc, _C, _C], a[0], out=tmp)
    np.subtract(v[zc, _C, _C], tmp, out=acc)
    if a[1] != 0.0:
        np.add(u[zc, _C, _M], u[zc, _C, _P], out=tmp)
        np.add(tmp, u1[:, :, _C], out=tmp)
        np.multiply(tmp, a[1], out=tmp)
        np.subtract(acc, tmp, out=acc)
    np.add(u2[:, :, _C], u1[:, :, _M], out=tmp)
    np.add(tmp, u1[:, :, _P], out=tmp)
    np.multiply(tmp, a[2], out=tmp)
    np.subtract(acc, tmp, out=acc)
    np.add(u2[:, :, _M], u2[:, :, _P], out=tmp)
    np.multiply(tmp, a[3], out=tmp)
    np.subtract(acc, tmp, out=acc)
    r[zc, _C, _C] = acc


def psinv_chunk(r: np.ndarray, u: np.ndarray, c,
                z0: int, z1: int, ws=None) -> None:
    """``u += S r`` on interior planes ``[z0, z1)``."""
    c = tuple(float(x) for x in c)
    zc, zm, zp = _zrange(z0, z1), _zrange(z0, z1, -1), _zrange(z0, z1, +1)
    m, n2, n1 = r.shape[0] - 2, r.shape[1], r.shape[2]
    r1 = _scratch(ws, "chunk.u1", m, (n2 - 2, n1), z0, z1)
    r2 = _scratch(ws, "chunk.u2", m, (n2 - 2, n1), z0, z1)
    np.add(r[zc, _M, :], r[zc, _P, :], out=r1)
    np.add(r1, r[zm, _C, :], out=r1)
    np.add(r1, r[zp, _C, :], out=r1)
    np.add(r[zm, _M, :], r[zm, _P, :], out=r2)
    np.add(r2, r[zp, _M, :], out=r2)
    np.add(r2, r[zp, _P, :], out=r2)
    acc = _scratch(ws, "chunk.acc", m, (n2 - 2, n1 - 2), z0, z1)
    tmp = _scratch(ws, "chunk.tmp", m, (n2 - 2, n1 - 2), z0, z1)
    np.multiply(r[zc, _C, _C], c[0], out=tmp)
    np.add(u[zc, _C, _C], tmp, out=acc)
    np.add(r[zc, _C, _M], r[zc, _C, _P], out=tmp)
    np.add(tmp, r1[:, :, _C], out=tmp)
    np.multiply(tmp, c[1], out=tmp)
    np.add(acc, tmp, out=acc)
    np.add(r2[:, :, _C], r1[:, :, _M], out=tmp)
    np.add(tmp, r1[:, :, _P], out=tmp)
    np.multiply(tmp, c[2], out=tmp)
    np.add(acc, tmp, out=acc)
    if c[3] != 0.0:
        np.add(r2[:, :, _M], r2[:, :, _P], out=tmp)
        np.multiply(tmp, c[3], out=tmp)
        np.add(acc, tmp, out=acc)
    u[zc, _C, _C] = acc


def rprj3_chunk(r: np.ndarray, s: np.ndarray, j0: int, j1: int,
                ws=None) -> None:
    """Project fine ``r`` onto coarse planes ``[j0, j1)`` of ``s``.

    ``r`` may be a z-slab: the x/y slicing is derived from the (cubic)
    x/y extent, the plane indices from the given range."""
    n = r.shape[1]
    c1 = slice(2, n - 1, 2)
    m1 = slice(1, n - 2, 2)
    p1 = slice(3, n, 2)
    ox = slice(1, n, 2)
    # Fine center planes for coarse interior planes j (0-based interior).
    zc = slice(2 * (j0 + 1), 2 * j1 + 1, 2)
    zm = slice(2 * (j0 + 1) - 1, 2 * j1, 2)
    zp = slice(2 * (j0 + 1) + 1, 2 * j1 + 2, 2)
    mj, mh = (r.shape[0] - 2) // 2, (n - 2) // 2
    x1 = _scratch(ws, "chunk.x1", mj, (mh, mh + 1), j0, j1)
    y1 = _scratch(ws, "chunk.y1", mj, (mh, mh + 1), j0, j1)
    np.add(r[zc, m1, ox], r[zc, p1, ox], out=x1)
    np.add(x1, r[zm, c1, ox], out=x1)
    np.add(x1, r[zp, c1, ox], out=x1)
    np.add(r[zm, m1, ox], r[zp, m1, ox], out=y1)
    np.add(y1, r[zm, p1, ox], out=y1)
    np.add(y1, r[zp, p1, ox], out=y1)
    x2 = _scratch(ws, "chunk.x2", mj, (mh, mh), j0, j1)
    y2 = _scratch(ws, "chunk.y2", mj, (mh, mh), j0, j1)
    np.add(r[zc, m1, c1], r[zc, p1, c1], out=x2)
    np.add(x2, r[zm, c1, c1], out=x2)
    np.add(x2, r[zp, c1, c1], out=x2)
    np.add(r[zm, m1, c1], r[zp, m1, c1], out=y2)
    np.add(y2, r[zm, p1, c1], out=y2)
    np.add(y2, r[zp, p1, c1], out=y2)
    acc = _scratch(ws, "chunk.racc", mj, (mh, mh), j0, j1)
    tmp = _scratch(ws, "chunk.rtmp", mj, (mh, mh), j0, j1)
    np.multiply(r[zc, c1, c1], 0.5, out=acc)
    np.add(r[zc, c1, m1], r[zc, c1, p1], out=tmp)
    np.add(tmp, x2, out=tmp)
    np.multiply(tmp, 0.25, out=tmp)
    np.add(acc, tmp, out=acc)
    np.add(x1[:, :, :-1], x1[:, :, 1:], out=tmp)
    np.add(tmp, y2, out=tmp)
    np.multiply(tmp, 0.125, out=tmp)
    np.add(acc, tmp, out=acc)
    np.add(y1[:, :, :-1], y1[:, :, 1:], out=tmp)
    np.multiply(tmp, 0.0625, out=tmp)
    np.add(acc, tmp, out=acc)
    s[_zrange(j0, j1), 1:-1, 1:-1] = acc


def interp_chunk(z: np.ndarray, u: np.ndarray, j0: int, j1: int,
                 ws=None) -> None:
    """Prolongate coarse plane rows ``[j0, j1)`` (0..m inclusive range)
    into fine ``u``.  Each coarse row ``j`` owns fine planes ``2j`` and
    ``2j+1``, so slabs of distinct ``j`` never overlap.  ``z``/``u`` may
    be z-slabs: the x/y slicing derives from the (cubic) x/y extent.

    Whole-slab ufunc chains, term for term in the order of
    ``core.mg.interp_add`` (bit-identical to it): a handful of large
    GIL-releasing calls per chunk instead of two dozen per plane.
    """
    n = u.shape[1]
    L = slice(0, -1)
    H = slice(1, None)
    E = slice(0, n - 1, 2)
    O = slice(1, n, 2)
    rows, nc = z.shape[0] - 1, z.shape[1]
    zc, zn = z[j0:j1], z[j0 + 1:j1 + 1]
    ue, uo = u[2 * j0:2 * j1:2], u[2 * j0 + 1:2 * j1 + 1:2]
    z1 = _scratch(ws, "chunk.z1", rows, (nc - 1, nc), j0, j1)
    z2 = _scratch(ws, "chunk.z2", rows, (nc - 1, nc), j0, j1)
    z3 = _scratch(ws, "chunk.z3", rows, (nc - 1, nc), j0, j1)
    tmp = _scratch(ws, "chunk.itmp", rows, (nc - 1, nc - 1), j0, j1)
    np.add(zc[:, H, :], zc[:, L, :], out=z1)
    np.add(zn[:, L, :], zc[:, L, :], out=z2)
    np.add(zn[:, H, :], zn[:, L, :], out=z3)
    np.add(z3, z1, out=z3)
    ue[:, E, E] += zc[:, L, L]
    np.add(zc[:, L, H], zc[:, L, L], out=tmp)
    np.multiply(tmp, 0.5, out=tmp)
    ue[:, E, O] += tmp
    np.multiply(z1[:, :, :-1], 0.5, out=tmp)
    ue[:, O, E] += tmp
    np.add(z1[:, :, :-1], z1[:, :, 1:], out=tmp)
    np.multiply(tmp, 0.25, out=tmp)
    ue[:, O, O] += tmp
    np.multiply(z2[:, :, :-1], 0.5, out=tmp)
    uo[:, E, E] += tmp
    np.add(z2[:, :, :-1], z2[:, :, 1:], out=tmp)
    np.multiply(tmp, 0.25, out=tmp)
    uo[:, E, O] += tmp
    np.multiply(z3[:, :, :-1], 0.25, out=tmp)
    uo[:, O, E] += tmp
    np.add(z3[:, :, :-1], z3[:, :, 1:], out=tmp)
    np.multiply(tmp, 0.125, out=tmp)
    uo[:, O, O] += tmp


# ---------------------------------------------------------------------------
# Fork-join wrappers.
# ---------------------------------------------------------------------------

def _plane_chunks(nplanes: int, team: ThreadTeam) -> list[Chunk]:
    return block_partition((nplanes,), team.nthreads)


def parallel_resid(u: np.ndarray, v: np.ndarray, a, team: ThreadTeam,
                   lib=None, ws=None, monitor=None,
                   boundary=comm3, *, out=None) -> np.ndarray:
    """``r = v - A u``; with ``lib`` (a
    :class:`~repro.runtime.kernels.SacKernelLibrary`) the per-slab
    stencil is the compiled SAC ``RelaxKernel`` instead of the NumPy
    chunk kernel — one shared specialization per slab shape, so that
    path always forks (an inline visit would compile a whole-grid
    specialization per level just to time it).

    ``out`` (default: the pooled buffer when ``ws`` is given) is fully
    overwritten — interior by the chunks, which tile all planes, ghosts
    by the master-side ``boundary`` fill (default: periodic ``comm3``).
    It may alias ``v`` as in ``core.mg.resid``: each chunk reads its own
    planes of ``v`` once, before writing them.
    """
    t0 = time.perf_counter() if monitor is not None else 0.0
    r = out
    if r is None:
        r = np.zeros_like(u) if ws is None else ws.get("presid.r", u.shape)
    m = u.shape[0] - 2
    if lib is not None:
        team.run(lambda c: lib.resid_slab(u, v, a, r, c.lo[0], c.hi[0]),
                 _plane_chunks(m, team))
    else:
        team.region(("resid", u.shape), lambda c: resid_chunk(
            u, v, a, r, c.lo[0], c.hi[0], ws=ws), m, ws)
    boundary(r)
    if monitor is not None:
        monitor.add("resid", time.perf_counter() - t0)
    return r


def parallel_psinv(r: np.ndarray, u: np.ndarray, c, team: ThreadTeam,
                   lib=None, ws=None, monitor=None,
                   boundary=comm3) -> np.ndarray:
    t0 = time.perf_counter() if monitor is not None else 0.0
    m = u.shape[0] - 2
    if lib is not None:
        team.run(lambda ch: lib.psinv_slab(r, u, c, ch.lo[0], ch.hi[0]),
                 _plane_chunks(m, team))
    else:
        team.region(("psinv", u.shape), lambda ch: psinv_chunk(
            r, u, c, ch.lo[0], ch.hi[0], ws=ws), m, ws)
    boundary(u)
    if monitor is not None:
        monitor.add("psinv", time.perf_counter() - t0)
    return u


def parallel_rprj3(r: np.ndarray, team: ThreadTeam, ws=None,
                   monitor=None, boundary=comm3) -> np.ndarray:
    t0 = time.perf_counter() if monitor is not None else 0.0
    nf = r.shape[0] - 2
    if nf < 4 or nf % 2:
        raise ValueError(f"cannot project a grid with interior {nf}")
    mj = nf // 2
    # Fully overwritten: interior by the chunks, ghosts by comm3.
    s = make_grid(mj) if ws is None else ws.get("prprj3.s", (mj + 2,) * 3)
    team.region(("rprj3", r.shape), lambda c: rprj3_chunk(
        r, s, c.lo[0], c.hi[0], ws=ws), mj, ws)
    boundary(s)
    if monitor is not None:
        monitor.add("rprj3", time.perf_counter() - t0)
    return s


def parallel_interp_add(z: np.ndarray, u: np.ndarray, team: ThreadTeam,
                        ws=None, monitor=None) -> np.ndarray:
    t0 = time.perf_counter() if monitor is not None else 0.0
    m = z.shape[0] - 2
    nf = u.shape[0] - 2
    if nf != 2 * m:
        raise ValueError(f"interp shape mismatch: coarse {m} fine {nf}")
    team.region(("interp", u.shape), lambda c: interp_chunk(
        z, u, c.lo[0], c.hi[0], ws=ws), m + 1, ws)
    if monitor is not None:
        monitor.add("interp", time.perf_counter() - t0)
    return u


class ParallelMG:
    """The full benchmark through the fork-join kernels.

    ``kernels="numpy"`` (default) runs the expression-order-exact chunk
    kernels (bit-identical to serial).  ``kernels="sac"`` runs the
    residual and smoother sweeps through compiled SAC ``RelaxKernel``
    specializations from the shared driver cache — each slab shape is
    compiled once (or loaded warm from disk) and shared by every worker
    thread; results then match serial to floating-point tolerance.

    The solver keeps one :class:`ThreadTeam` for its lifetime, so the
    team's measured fork policy (see :meth:`ThreadTeam.region`) learned
    in one solve — a warm-up, say — serves every later one;
    :attr:`decisions` shows it.  :meth:`close` (or ``with``) joins the
    workers; an unclosed solver's workers exit when it is collected.
    """

    def __init__(self, nthreads: int, *, kernels: str = "numpy",
                 kernel_library=None, workspace=False, monitor=None):
        if kernels not in ("numpy", "sac"):
            raise ValueError(f"kernels must be 'numpy' or 'sac', "
                             f"got {kernels!r}")
        if kernel_library is not None and kernels != "sac":
            raise ValueError("kernel_library requires kernels='sac'")
        self.nthreads = nthreads
        self.kernels = kernels
        self.kernel_library = kernel_library
        if kernels == "sac" and kernel_library is None:
            from .kernels import SacKernelLibrary

            self.kernel_library = SacKernelLibrary()
        #: Persistent scratch pool, shared across solves so repeated
        #: runs stay allocation-free.  ``workspace=True`` creates one;
        #: a Workspace instance is used as-is.
        if workspace is True:
            from repro.perf.workspace import Workspace

            self.workspace = Workspace("parallel-mg")
        else:
            self.workspace = workspace or None
        #: Master-side per-operator timer (any ``add(section, dt)``).
        self.monitor = monitor
        self.team = ThreadTeam(nthreads)

    @property
    def decisions(self):
        """The team's fork-policy table: ``(op, grid shape)`` ->
        :class:`~repro.runtime.executor.Decision` (forked?, t_inline,
        t_forked) — why each level ran inline or forked."""
        return self.team.decisions

    def close(self) -> None:
        self.team.shutdown()

    def __enter__(self) -> "ParallelMG":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def solve(self, size_class: str | SizeClass,
              nit: int | None = None, *,
              on_iteration=None) -> MGResult:
        sc = get_class(size_class) if isinstance(size_class, str) else size_class
        iters = sc.nit if nit is None else nit
        a = A_COEFFS
        c = S_COEFFS_A if sc.smoother == "a" else S_COEFFS_B
        lt, lb = sc.lt, 1
        lib = self.kernel_library
        ws, mon, team = self.workspace, self.monitor, self.team
        u = make_grid(sc.nx)
        v = zran3(sc.nx)
        r = {lt: parallel_resid(u, v, a, team, lib, ws, mon)}
        for it in range(iters):
            for k in range(lt, lb, -1):
                r[k - 1] = parallel_rprj3(r[k], team, ws, mon)
            if ws is None:
                uk = make_grid(1 << lb)
            else:
                uk = ws.zeros("pmg.u", ((1 << lb) + 2,) * 3)
            parallel_psinv(r[lb], uk, c, team, lib, ws, mon)
            u_levels = {lb: uk}
            for k in range(lb + 1, lt):
                if ws is None:
                    uk = make_grid(1 << k)
                else:
                    uk = ws.zeros("pmg.u", ((1 << k) + 2,) * 3)
                parallel_interp_add(u_levels[k - 1], uk, team, ws, mon)
                # Pooled: update r[k] in place, as core.mg3P does.
                r[k] = parallel_resid(uk, r[k], a, team, lib, ws, mon,
                                      out=r[k] if ws is not None else None)
                parallel_psinv(r[k], uk, c, team, lib, ws, mon)
                u_levels[k] = uk
            parallel_interp_add(u_levels[lt - 1], u, team, ws, mon)
            r[lt] = parallel_resid(u, v, a, team, lib, ws, mon)
            parallel_psinv(r[lt], u, c, team, lib, ws, mon)
            r[lt] = parallel_resid(u, v, a, team, lib, ws, mon)
            if on_iteration is not None:
                # Residual-trajectory hook (the supervisor's
                # numerical watchdog); raising aborts the solve here.
                on_iteration(it, norm2u3(r[lt])[0])
        rnm2, rnmu = norm2u3(r[lt])
        return MGResult(sc, rnm2, rnmu, u, r[lt])
