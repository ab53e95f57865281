"""Content-addressed in-process cache for compilation artifacts.

Two artifact kinds are cached, both keyed by sha-256 content digests so
a hit can never serve a stale result:

* **programs** — the post-pipeline AST plus its analysis report, keyed
  by :func:`program_key` = digest of (module source, prelude source,
  the ``CompileOptions`` fields that decide the program).  Editing the
  source, flipping one of those options, or upgrading the prelude all
  change the key, which *is* the invalidation.
* **kernels** — executable :class:`~repro.sac.codegen.CompiledFunction`
  specializations, keyed by :func:`kernel_key` = digest of (program
  digest, overload name, :func:`shape_signature` of the arguments).  A
  new argument shape is a new key; same shape, same program → same
  generated source, so a hit is bit-identical to a cold compile.

A build is deterministic, so a failed one is cached too: when a program
build or a trace raises :class:`~repro.sac.errors.SacError`, the error is
stored under the key that failed, and a lookup re-raises it instead of
building again.

The cache lives as long as the process.  Compilation happens before any
timed section, as ``zran3`` does in NPB, so nothing is kept on disk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from ..errors import SacError

__all__ = [
    "CacheStats",
    "ProgramEntry",
    "KernelCache",
    "default_cache",
    "source_digest",
    "program_key",
    "shape_signature",
    "kernel_key",
]


# -- keys --------------------------------------------------------------------


def source_digest(text: str) -> str:
    """Hex digest of a source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_key(src_digest: str, prelude_digest: str, options) -> str:
    """Cache key for an optimized program and its analysis report: the
    sources and the ``CompileOptions`` fields that decide them.
    ``vectorize`` is not among those — it only picks the interpreter's
    WITH-loop evaluator — so both settings share one program and every
    kernel traced from it."""
    # Every field but ``vectorize``: one added later re-keys by default.
    deciding = replace(options, vectorize=True)
    h = hashlib.sha256()
    for part in ("program", src_digest, prelude_digest, repr(deciding)):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def shape_signature(args) -> tuple[str, ...]:
    """Canonical signature of a specialization's arguments.

    Mirrors the backend's baking rules: float64 arrays stay symbolic, so
    only their *shape* matters — as it does for a value the tracer
    already holds symbolically (a shape and a dtype, no data);
    everything else is baked into the generated code, so its *value*
    matters.  The one signature function: kernel-cache keys and the
    tracer's specializations use it.
    """
    import numpy as np

    parts: list[str] = []
    for a in args:
        if isinstance(a, np.ndarray) and a.dtype != np.float64:
            digest = hashlib.sha256(a.tobytes()).hexdigest()[:16]
            parts.append(f"baked-arr:{a.dtype}{list(a.shape)}:{digest}")
        elif hasattr(a, "shape") and not isinstance(a, np.generic):
            kind = "f64" if a.dtype == np.float64 else a.dtype.name
            parts.append(f"{kind}{list(a.shape)}")
        else:
            parts.append(f"baked:{type(a).__name__}:{a!r}")
    return tuple(parts)


def kernel_key(program_digest: str, overload: str,
               signature: tuple[str, ...]) -> str:
    """Cache key for one compiled kernel specialization."""
    h = hashlib.sha256()
    h.update(b"kernel\x00")
    h.update(program_digest.encode())
    h.update(b"\x00")
    h.update(overload.encode())
    for part in signature:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


# -- entries -----------------------------------------------------------------


@dataclass(frozen=True)
class ProgramEntry:
    """A cached post-pipeline program and its analysis report."""

    program: object  #: the optimized :class:`~repro.sac.ast_nodes.Program`
    analysis_report: object = None


@dataclass
class CacheStats:
    """Observability: every lookup outcome is counted."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Always 0 (nothing is kept on disk); the benchmark's layers pass
    #: still reports it.
    disk_hits: int = 0


# -- the cache ---------------------------------------------------------------


class KernelCache:
    """In-process content-addressed cache of programs and kernels.

    ``root`` must be ``None``, which ``.root`` reads back: the
    benchmark's layers pass still builds ``KernelCache(cache.root)``.
    """

    def __init__(self, root: None = None):
        if root is not None:
            raise ValueError(
                f"KernelCache keeps nothing on disk; root must be None, "
                f"got {root!r}")
        self.root = None
        self.stats = CacheStats()
        self._programs: dict[str, ProgramEntry] = {}
        self._kernels: dict[str, object] = {}  #: key -> CompiledFunction

    def _get(self, entries: dict, key: str):
        value = entries.get(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        if isinstance(value, SacError):
            raise value.with_traceback(None)
        return value

    def _put(self, entries: dict, key: str, value) -> None:
        entries[key] = value
        self.stats.stores += 1

    def get_program(self, key: str) -> ProgramEntry | None:
        """The entry stored under ``key``, or ``None``; raises the
        :class:`SacError` a failed build stored there."""
        return self._get(self._programs, key)

    def put_program(self, key: str, entry: ProgramEntry | SacError) -> None:
        self._put(self._programs, key, entry)

    def get_kernel(self, key: str):
        """The :class:`CompiledFunction` stored under ``key``, or ``None``;
        raises the :class:`SacError` a failed trace stored there."""
        return self._get(self._kernels, key)

    def put_kernel(self, key: str, compiled) -> None:
        self._put(self._kernels, key, compiled)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (f"<KernelCache hits={s.hits} misses={s.misses} "
                f"stores={s.stores}>")


_DEFAULT: KernelCache | None = None


def default_cache() -> KernelCache:
    """The process-wide shared cache (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = KernelCache()
    return _DEFAULT
