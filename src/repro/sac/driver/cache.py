"""Content-addressed cache for compilation artifacts.

Two artifact kinds are cached, both keyed by sha-256 content digests so
a hit can never serve a stale result:

* **programs** — the post-pipeline AST plus its analysis report, keyed
  by :func:`program_key` = digest of (module source, prelude source,
  the ``CompileOptions`` fields that decide the program).  Editing the
  source, flipping one of those options, or upgrading the prelude all
  change the key, which *is* the invalidation.
* **kernels** — :class:`~repro.sac.codegen.KernelArtifact`
  specializations, keyed by :func:`kernel_key` = digest of (program
  digest, overload name, :func:`shape_signature` of the arguments).  A
  new argument shape is a new key; same shape, same program → same
  generated source, so warm loads are bit-identical to cold compiles.

The cache has two layers.  The in-memory layer holds loaded executables
and artifacts for this process.  The on-disk layer (default
``~/.cache/repro-sac``, override with ``REPRO_SAC_CACHE_DIR``, disable
with ``REPRO_SAC_CACHE=off``) holds version-stamped pickles written
atomically (temp file + ``os.replace``), so concurrent writers — e.g.
SPMD ranks warming the same kernel — can never expose a torn entry.
Corrupt or version-stale entries are discarded (and unlinked), never
raised.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "ProgramEntry",
    "KernelCache",
    "default_cache",
    "source_digest",
    "compiler_fingerprint",
    "program_key",
    "shape_signature",
    "kernel_key",
]

#: Bump when the pickled entry layout or the compiler's generated-code
#: conventions change; older on-disk entries are then discarded as stale.
CACHE_VERSION = 1

_ENV_DIR = "REPRO_SAC_CACHE_DIR"
_ENV_TOGGLE = "REPRO_SAC_CACHE"


# -- keys --------------------------------------------------------------------


def source_digest(text: str) -> str:
    """Hex digest of a source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_FINGERPRINT: str | None = None


def compiler_fingerprint() -> str:
    """Digest of the compiler's own sources (computed once per process).

    Cache keys must change when the *compiler* changes, not just the
    compiled source: an edited optimization pass silently served last
    week's pipeline output would be a miscompile.  Hashing the package's
    ``.py`` files costs a few milliseconds, once.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent  # repro/sac
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\x00")
            try:
                h.update(path.read_bytes())
            except OSError:
                pass
            h.update(b"\x00")
        _FINGERPRINT = h.hexdigest()
    return _FINGERPRINT


def program_key(src_digest: str, prelude_digest: str, options) -> str:
    """Cache key for an optimized program and its analysis report: the
    sources and the ``CompileOptions`` fields that decide them.
    ``vectorize`` is not among those — it only picks the interpreter's
    WITH-loop evaluator — so both settings share one program and every
    kernel traced from it."""
    # Every field but ``vectorize``: one added later re-keys by default.
    deciding = replace(options, vectorize=True)
    h = hashlib.sha256()
    for part in ("program", compiler_fingerprint(), src_digest,
                 prelude_digest, repr(deciding)):
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
    """A cached post-pipeline program and its sidecar artifacts."""

    program: object  #: the optimized :class:`~repro.sac.ast_nodes.Program`
    analysis_report: object = None
    source_digest: str = ""


@dataclass
class CacheStats:
    """Observability: every lookup outcome is counted."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    corrupt_discarded: int = 0
    stale_discarded: int = 0
    #: Discards (corrupt or stale) per cache key.  A key that keeps
    #: being discarded — a corrupt-entry storm — is what the runtime
    #: supervisor's compile circuit breaker trips on, instead of the
    #: cache silently eating the corruption on every lookup.
    discards_by_key: dict = field(default_factory=dict)

    def note_discard(self, key: str, *, stale: bool = False) -> None:
        """Count one discarded entry, globally and per key."""
        if stale:
            self.stale_discarded += 1
        else:
            self.corrupt_discarded += 1
        self.discards_by_key[key] = self.discards_by_key.get(key, 0) + 1

    def snapshot(self) -> dict:
        out = dict(self.__dict__)
        out["discards_by_key"] = dict(self.discards_by_key)
        return out


@dataclass
class _Layer:
    """One artifact namespace (programs or kernels)."""

    name: str
    memory: dict[str, object] = field(default_factory=dict)


# -- the cache ---------------------------------------------------------------


def _default_root() -> Path | None:
    toggle = os.environ.get(_ENV_TOGGLE, "").strip().lower()
    if toggle in ("off", "0", "false", "disabled", "no"):
        return None
    override = os.environ.get(_ENV_DIR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-sac"


class KernelCache:
    """Two-layer (memory + disk) content-addressed artifact cache.

    ``root=None`` with ``memory_only=True`` gives a purely in-process
    cache; otherwise ``root`` defaults to the environment-configured
    location (which may itself disable the disk layer).
    """

    def __init__(self, root: str | Path | None = None, *,
                 memory_only: bool = False):
        if memory_only:
            self.root = None
        elif root is not None:
            self.root = Path(root)
        else:
            self.root = _default_root()
        self.stats = CacheStats()
        self._programs = _Layer("programs")
        self._kernels = _Layer("kernels")  #: key -> KernelArtifact
        self._loaded: dict[str, object] = {}  #: key -> CompiledFunction

    # -- generic layer machinery --------------------------------------------

    def _path(self, layer: _Layer, key: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"v{CACHE_VERSION}" / layer.name / key[:2] / key

    def _disk_read(self, layer: _Layer, key: str):
        path = self._path(layer, key)
        if path is None:
            return None
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self.stats.note_discard(key)
            self._unlink(path)
            return None
        if (not isinstance(payload, dict)
                or payload.get("version") != CACHE_VERSION
                or payload.get("key") != key
                or "value" not in payload):
            self.stats.note_discard(key, stale=True)
            self._unlink(path)
            return None
        return payload["value"]

    def _disk_write(self, layer: _Layer, key: str, value) -> None:
        path = self._path(layer, key)
        if path is None:
            return
        payload = {"version": CACHE_VERSION, "key": key, "value": value}
        try:
            blob = pickle.dumps(payload)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                self._unlink(Path(tmp))
                raise
        except (OSError, pickle.PicklingError):
            # A read-only or full disk degrades to memory-only caching.
            pass

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _get(self, layer: _Layer, key: str):
        value = layer.memory.get(key)
        if value is not None:
            self.stats.hits += 1
            return value
        value = self._disk_read(layer, key)
        if value is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            layer.memory[key] = value
            return value
        self.stats.misses += 1
        return None

    def _put(self, layer: _Layer, key: str, value) -> None:
        layer.memory[key] = value
        self._disk_write(layer, key, value)
        self.stats.stores += 1

    # -- programs -----------------------------------------------------------

    def get_program(self, key: str) -> ProgramEntry | None:
        entry = self._get(self._programs, key)
        return entry if isinstance(entry, ProgramEntry) else None

    def put_program(self, key: str, entry: ProgramEntry) -> None:
        self._put(self._programs, key, entry)

    # -- kernels ------------------------------------------------------------

    def get_artifact(self, key: str):
        """The raw :class:`KernelArtifact` for ``key``, if cached."""
        return self._get(self._kernels, key)

    def get_kernel(self, key: str):
        """A ready-to-call :class:`CompiledFunction` for ``key``, or
        ``None``.  Executables are built from the artifact once per
        process and memoized."""
        compiled = self._loaded.get(key)
        if compiled is not None:
            self.stats.hits += 1
            return compiled
        artifact = self._get(self._kernels, key)
        if artifact is None:
            return None
        from ..codegen import load_artifact

        try:
            compiled = load_artifact(artifact)
        except Exception:
            # An artifact that no longer execs is as good as corrupt.
            self.stats.note_discard(key)
            self._kernels.memory.pop(key, None)
            path = self._path(self._kernels, key)
            if path is not None:
                self._unlink(path)
            return None
        self._loaded[key] = compiled
        return compiled

    def put_kernel(self, key: str, artifact) -> None:
        self._put(self._kernels, key, artifact)

    # -- maintenance --------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.root) if self.root else "memory-only"
        s = self.stats
        return (f"<KernelCache {where} hits={s.hits} misses={s.misses} "
                f"stores={s.stores}>")


_DEFAULT: KernelCache | None = None


def default_cache() -> KernelCache:
    """The process-wide shared cache (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = KernelCache()
    return _DEFAULT
