"""27-point stencil operators of NAS MG.

All four operators of the benchmark (paper §3: A, S, P, Q) are 27-point
stencils whose coefficient depends only on the Manhattan-distance class
of the offset — center (1 point), face (6), edge (12), corner (8).  Each
operator is therefore fully described by a 4-vector ``c = (c0, c1, c2,
c3)``:

* ``A``  — residual operator (discrete Poisson), ``(-8/3, 0, 1/6, 1/12)``
* ``S(a)`` — smoother for classes S/W/A, ``(-3/8, 1/32, -1/64, 0)``
* ``S(b)`` — smoother for classes B/C, ``(-3/17, 1/33, -1/61, 0)``
* ``P``  — full-weighting projection, ``(1/2, 1/4, 1/8, 1/16)``
* ``Q``  — trilinear interpolation, ``(1, 1/2, 1/4, 1/8)``

This module provides the *generic* dense relaxation kernel (apply a
coefficient-class stencil to every interior point of an extended grid)
once, in its naive form — 27 multiplies + 26 adds per point,
:func:`relax_naive` — as the oracle the solvers are tested against, and
:func:`relax_variable`, its per-point-coefficient twin.  The paper's §5
argues with two cheaper arithmetic forms of the same sum, and both run
where they matter rather than here: the *coefficient-grouped* form (one
multiply per distance class) is what the SAC compiler's ``coeffgroup``
pass makes of ``mg.sac``, and the *buffered* form (grouped multiplies
plus the ``u1``/``u2`` partial plane sums shared between neighbouring
result points, 12–20 adds) is :mod:`repro.core.mg`'s ``resid``/``psinv``
bodies and the C style's plane loops.  :func:`op_counts` reports the
per-point multiply/add counts of all three forms for each operator,
regenerating the §5 arithmetic claims.

Both kernels share one ``out=`` contract: the interior holds the
stencil result and the ghost shell is zero — *also* when a
caller-supplied ``out`` buffer with stale ghost values is reused (the
ghost shell is explicitly cleared), and ``out`` must not alias ``u``
(slice views of ``u`` are read while the interior of ``out`` is
written; aliasing is detected and raises :class:`StencilAliasError`,
code ``MG001``).  The kernels accumulate with in-place ufunc ``out=``
forms into scratch buffers — pass a
:class:`~repro.perf.workspace.Workspace` as ``ws`` to reuse the scratch
across calls and run allocation-free; the arithmetic order is identical
either way, so results are bit-identical to the original
``acc = acc + w * (...)`` formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "A_COEFFS",
    "S_COEFFS_A",
    "S_COEFFS_B",
    "P_COEFFS",
    "Q_COEFFS",
    "STENCILS",
    "StencilAliasError",
    "offset_class",
    "offsets_by_class",
    "stencil_weights_27",
    "relax_naive",
    "relax_variable",
    "OpCount",
    "op_counts",
]


class StencilAliasError(ValueError):
    """``out=`` aliases the input grid (error code ``MG001``).

    The relaxation kernels read shifted slice views of ``u`` while
    writing ``out``'s interior; with overlapping storage the reads
    observe partially updated values and the result is silently
    corrupted, so aliasing is rejected up front.
    """

    code = "MG001"

    def __init__(self, kernel: str):
        super().__init__(
            f"[{self.code}] {kernel}: out= shares memory with the input "
            "grid u; the kernel reads shifted views of u while writing "
            "out's interior, which would silently corrupt the result. "
            "Pass a distinct output buffer."
        )

#: Residual operator A (paper §3 / NPB ``a``).
A_COEFFS = (-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)
#: Smoother S for classes S, W, A (NPB ``c``, variant S(a)).
S_COEFFS_A = (-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0)
#: Smoother S for classes B, C (variant S(b)).
S_COEFFS_B = (-3.0 / 17.0, 1.0 / 33.0, -1.0 / 61.0, 0.0)
#: Projection P (``rprj3`` full weighting).
P_COEFFS = (0.5, 0.25, 0.125, 0.0625)
#: Prolongation Q (``interp`` trilinear weights).
Q_COEFFS = (1.0, 0.5, 0.25, 0.125)

STENCILS: dict[str, tuple[float, float, float, float]] = {
    "A": A_COEFFS,
    "S": S_COEFFS_A,
    "Sb": S_COEFFS_B,
    "P": P_COEFFS,
    "Q": Q_COEFFS,
}


def offset_class(o3: int, o2: int, o1: int) -> int:
    """Manhattan-distance class of a stencil offset (0..3)."""
    return abs(o3) + abs(o2) + abs(o1)


def offsets_by_class() -> list[list[tuple[int, int, int]]]:
    """The 27 offsets grouped by distance class: [1, 6, 12, 8] offsets."""
    groups: list[list[tuple[int, int, int]]] = [[], [], [], []]
    for o3 in (-1, 0, 1):
        for o2 in (-1, 0, 1):
            for o1 in (-1, 0, 1):
                groups[offset_class(o3, o2, o1)].append((o3, o2, o1))
    return groups


def stencil_weights_27(c) -> np.ndarray:
    """Expand a coefficient 4-vector into the full (3,3,3) weight cube."""
    c = np.asarray(c, dtype=np.float64)
    w = np.empty((3, 3, 3))
    for o3 in (-1, 0, 1):
        for o2 in (-1, 0, 1):
            for o1 in (-1, 0, 1):
                w[o3 + 1, o2 + 1, o1 + 1] = c[offset_class(o3, o2, o1)]
    return w


def _shift(u: np.ndarray, o3: int, o2: int, o1: int) -> np.ndarray:
    """Interior-shaped view of ``u`` shifted by an offset triple."""

    def ax(o: int, n: int) -> slice:
        stop = n - 1 + o
        return slice(1 + o, stop)

    n3, n2, n1 = u.shape
    return u[ax(o3, n3), ax(o2, n2), ax(o1, n1)]


def _scratch(ws: object, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialized whole-array scratch, pooled when a workspace is
    given — the one such helper of the NumPy solvers.

    Every caller overwrites all of it before reading (a full-write
    ufunc such as ``np.add(a, b, out=buf)``, an explicit ``fill``, or a
    kernel interior plus its ghost fill), so reused contents can never
    leak into a result.
    """
    if ws is None:
        return np.empty(shape)
    return ws.get(name, shape)


def _prepare_out(kernel: str, u: np.ndarray, out: np.ndarray | None,
                 ws) -> np.ndarray:
    """Resolve and sanitize the ``out=`` buffer of a relaxation kernel.

    Rejects buffers aliasing ``u`` (:class:`StencilAliasError`, MG001)
    and zeroes the ghost shell so the documented "ghosts are zero"
    contract holds even for reused buffers with stale ghost values.
    """
    if out is None:
        if ws is None:
            return np.zeros_like(u)
        out = ws.get(f"{kernel}.out", u.shape)
    elif np.shares_memory(out, u):
        raise StencilAliasError(kernel)
    # Zero the six ghost faces (the interior is fully overwritten).
    out[0] = 0.0
    out[-1] = 0.0
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    out[:, :, 0] = 0.0
    out[:, :, -1] = 0.0
    return out


def relax_naive(u: np.ndarray, c, out: np.ndarray | None = None, *,
                ws=None) -> np.ndarray:
    """Apply the stencil with one multiply per neighbour (27 mul, 26 add).

    ``u`` must have valid ghost layers.  Returns an extended grid whose
    interior holds the stencil result and whose ghosts are zero (callers
    refresh them with :func:`~repro.core.grid.comm3` when needed); see
    the module docstring for the full ``out=``/``ws`` contract.
    """
    w = stencil_weights_27(c)
    out = _prepare_out("relax_naive", u, out, ws)
    m = tuple(n - 2 for n in u.shape)
    acc = _scratch(ws, "relax.acc", m)
    tmp = _scratch(ws, "relax.tmp", m)
    acc.fill(0.0)
    for o3 in (-1, 0, 1):
        for o2 in (-1, 0, 1):
            for o1 in (-1, 0, 1):
                np.multiply(_shift(u, o3, o2, o1),
                            w[o3 + 1, o2 + 1, o1 + 1], out=tmp)
                np.add(acc, tmp, out=acc)
    out[1:-1, 1:-1, 1:-1] = acc
    return out


def relax_variable(u: np.ndarray, cfields, out: np.ndarray | None = None,
                   *, ws=None) -> np.ndarray:
    """Apply a *variable-coefficient* class stencil (per-point 4-vector).

    ``cfields`` holds four extended-shape arrays ``(c0, c1, c2, c3)``;
    the coefficient of every neighbour is looked up at the **centre**
    point and its distance class, so the interior result is::

        out[p] = sum_cls cfields[cls][p] * sum_{|o|_1 == cls} u[p + o]

    This is the isotropic variable-coefficient member of the stencil
    taxonomy (``StencilSpec(kind="variable")``) and the exact numpy twin
    of the SAC ``VarRelaxKernel`` WITH-loop.  Same ghost/``out=``/``ws``
    contract as :func:`relax_naive`.
    """
    cfields = tuple(np.asarray(cf) for cf in cfields)
    if len(cfields) != 4:
        raise ValueError(f"expected 4 coefficient fields, got {len(cfields)}")
    for cf in cfields:
        if cf.shape != u.shape:
            raise ValueError(
                f"coefficient field shape {cf.shape} does not match the "
                f"extended grid shape {u.shape}")
    out = _prepare_out("relax_variable", u, out, ws)
    m = tuple(n - 2 for n in u.shape)
    acc = _scratch(ws, "relax.acc", m)
    group = _scratch(ws, "relax.group", m)
    tmp = _scratch(ws, "relax.tmp", m)
    acc.fill(0.0)
    for cls, offs in enumerate(offsets_by_class()):
        group.fill(0.0)
        for o in offs:
            np.add(group, _shift(u, *o), out=group)
        np.multiply(group, cfields[cls][1:-1, 1:-1, 1:-1], out=tmp)
        np.add(acc, tmp, out=acc)
    out[1:-1, 1:-1, 1:-1] = acc
    return out


@dataclass(frozen=True)
class OpCount:
    """Per-interior-point floating operation counts of a formulation."""

    muls: float
    adds: float

    @property
    def flops(self) -> float:
        return self.muls + self.adds


def op_counts(c, with_base: bool = False) -> dict[str, OpCount]:
    """Static per-point op counts for each formulation of stencil ``c``.

    Regenerates the §5 arithmetic analysis: naive 27/26; grouped 4 muls
    (fewer if coefficients vanish); buffered additionally shares the
    ``t1``/``t2`` partial sums so each costs 3 adds amortized instead of
    being recomputed.

    With ``with_base=True`` the combination with a second operand is
    included (``r = v - A u`` / ``u = u + S r``), one extra add per
    formulation — the accounting under which the benchmark kernels land
    in the paper's "12 to 20 additions" window.
    """
    c = tuple(float(x) for x in c)
    base = 1 if with_base else 0
    nonzero = [x != 0.0 for x in c]
    class_sizes = (1, 6, 12, 8)

    naive = OpCount(muls=27, adds=26 + base)

    # Grouped: sum members of each nonzero class, multiply once per class,
    # then add the class products together.
    g_muls = sum(nonzero)
    g_adds = sum(sz - 1 for sz, nz in zip(class_sizes, nonzero) if nz)
    g_adds += max(0, sum(nonzero) - 1) + base
    grouped = OpCount(muls=g_muls, adds=g_adds)

    # Buffered: t1 and t2 cost 3 adds each per point (shared between the
    # three x-neighbouring uses).  Combination adds per class:
    #   c0: center, 0 adds within class
    #   c1: u(x-1)+u(x+1)+t1      -> 2 adds (+3 amortized for t1)
    #   c2: t2 + t1(x-1) + t1(x+1)-> 2 adds (t1 already built; +3 for t2)
    #   c3: t2(x-1)+t2(x+1)       -> 1 add
    b_adds = 0.0
    needs_t1 = nonzero[1] or nonzero[2]
    needs_t2 = nonzero[2] or nonzero[3]
    if needs_t1:
        b_adds += 3
    if needs_t2:
        b_adds += 3
    if nonzero[1]:
        b_adds += 2
    if nonzero[2]:
        b_adds += 2
    if nonzero[3]:
        b_adds += 1
    b_adds += max(0, sum(nonzero) - 1) + base
    buffered = OpCount(muls=g_muls, adds=b_adds)

    return {"naive": naive, "grouped": grouped, "buffered": buffered}
