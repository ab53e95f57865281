"""NPB pseudo-random number generator (``randlc`` / ``vranlc``).

The NAS Parallel Benchmarks define a linear congruential generator over
46-bit integers,

    x_{k+1} = a * x_k  mod 2**46,        r_k = x_k * 2**-46,

with the default multiplier ``a = 5**13 = 1220703125`` and, for MG, the
seed ``x_0 = 314159265``.  The Fortran reference implements the 92-bit
intermediate product with pairs of IEEE doubles; every operation there is
exact, so the stream is bit-reproducible.  Here we provide

* :func:`randlc` / :class:`RandlcState` — an exact scalar generator using
  Python integers (arbitrary precision, trivially exact),
* :func:`vranlc` — a vectorized generator producing ``n`` doubles at once
  using 23-bit split-word arithmetic in ``uint64`` (all intermediate
  products fit in 64 bits, hence also exact),
* :func:`power_mod` — computes ``a**n mod 2**46`` by binary
  exponentiation, used to jump ahead in the stream (NPB's ``power``).

The two implementations are property-tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "A_DEFAULT",
    "SEED_DEFAULT",
    "MOD46",
    "R46",
    "RandlcState",
    "randlc",
    "vranlc",
    "power_mod",
    "jump_state",
]

#: Default LCG multiplier, ``5**13`` (NPB constant ``a``).
A_DEFAULT = 5 ** 13
#: Default MG seed (NPB constant ``314159265.0``).
SEED_DEFAULT = 314159265
#: Modulus ``2**46``.
MOD46 = 1 << 46
#: ``2**-46`` as a float; exact in IEEE double.
R46 = 2.0 ** -46

_MASK23 = (1 << 23) - 1
_MASK46 = MOD46 - 1


@dataclass
class RandlcState:
    """Mutable generator state holding the 46-bit integer seed.

    Mirrors the in-out ``x`` argument of the Fortran ``randlc``.
    """

    x: int = SEED_DEFAULT
    a: int = A_DEFAULT

    def next(self) -> float:
        """Advance one step and return the next uniform double in (0, 1)."""
        self.x = (self.x * self.a) & _MASK46
        return self.x * R46

    def skip(self, n: int) -> None:
        """Jump ``n`` steps ahead in O(log n) multiplications."""
        self.x = (self.x * power_mod(self.a, n)) & _MASK46

    def clone(self) -> "RandlcState":
        return RandlcState(self.x, self.a)


def randlc(state: RandlcState) -> float:
    """Functional spelling of :meth:`RandlcState.next` (NPB ``randlc``)."""
    return state.next()


def power_mod(a: int, n: int) -> int:
    """Return ``a**n mod 2**46`` (NPB's ``power`` function).

    ``n`` may be zero; negative exponents are rejected.
    """
    if n < 0:
        raise ValueError("power_mod: exponent must be non-negative")
    return pow(a, n, MOD46)


def jump_state(seed: int, a: int, n: int) -> int:
    """State after ``n`` steps from ``seed``: ``seed * a**n mod 2**46``."""
    return (seed * power_mod(a, n)) & _MASK46


def _split23(v: np.ndarray | int):
    """Split 46-bit values into (hi, lo) 23-bit halves as uint64 arrays."""
    v = np.asarray(v, dtype=np.uint64)
    return v >> np.uint64(23), v & np.uint64(_MASK23)


def vranlc(n: int, state: RandlcState) -> np.ndarray:
    """Generate ``n`` consecutive uniforms, advancing ``state`` by ``n``.

    Vectorized equivalent of NPB ``vranlc``.  Strategy: precompute the
    multiplier powers ``a**1 .. a**n mod 2**46`` by a cumulative split-word
    product, then form ``x0 * a**k mod 2**46`` elementwise.

    All products are of 23-bit by 46-bit quantities or smaller, so every
    intermediate fits in ``uint64`` and the result is exact.
    """
    if n < 0:
        raise ValueError("vranlc: n must be non-negative")
    if n == 0:
        return np.empty(0, dtype=np.float64)

    # Cumulative powers of ``a`` mod 2**46 via chunked exact multiplies.
    # mulmod46(u, v): u, v < 2**46.  Split v into 23-bit halves:
    #   u*v mod 2**46 = (u*v_lo mod 2**46 + ((u*v_hi mod 2**23) << 23)) mod 2**46
    # u*v_lo < 2**69 overflows, so also split u.
    powers = np.empty(n, dtype=np.uint64)
    a = state.a & _MASK46
    # Generate powers sequentially but in exact Python ints chunk-free is
    # O(n) big-int multiplies; instead compute powers by repeated doubling
    # of blocks: powers[0:m] then powers[m:2m] = powers[0:m] * a**m.
    m = 1
    powers[0] = a & _MASK46
    while m < n:
        step = int(powers[m - 1])  # a**m mod 2**46
        take = min(m, n - m)
        block = powers[:take]
        powers[m : m + take] = _mulmod46(block, step)
        m += take
    x0 = state.x & _MASK46
    xs = _mulmod46(powers, x0)
    state.x = int(xs[-1])
    return xs.astype(np.float64) * R46


def _mulmod46(u: np.ndarray, v: int) -> np.ndarray:
    """Exact elementwise ``u * v mod 2**46`` for 46-bit uint64 ``u``, int ``v``."""
    v &= _MASK46
    v_hi, v_lo = v >> 23, v & _MASK23
    u = np.asarray(u, dtype=np.uint64)
    u_hi, u_lo = _split23(u)
    # u * v_lo = (u_hi << 23) * v_lo + u_lo * v_lo; each product < 2**46.
    t1 = (u_hi * np.uint64(v_lo)) & np.uint64(_MASK23)  # contributes << 23
    lo = u_lo * np.uint64(v_lo)  # < 2**46
    # u * v_hi << 23: only low 23 bits of (u * v_hi) survive mod 2**46.
    t2 = (u_lo * np.uint64(v_hi)) & np.uint64(_MASK23)
    hi_part = ((t1 + t2) & np.uint64(_MASK23)) << np.uint64(23)
    return (lo + hi_part) & np.uint64(_MASK46)
