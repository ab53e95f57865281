"""Correctness of the content-addressed kernel cache (driver.cache)."""

import pickle

import numpy as np
import pytest

from repro.sac import CompileOptions, SacProgram, compile_function
from repro.sac.codegen import trace_event_count
from repro.sac.driver import CompilationSession, KernelCache
from repro.sac.driver.cache import (
    CACHE_VERSION,
    kernel_key,
    program_key,
    shape_signature,
    source_digest,
)

SRC = """
double[+] scale(double[+] u, double f)
{
  s = with (0*shape(u) <= iv < shape(u))
      modarray(u, f * u[iv]);
  return s;
}
"""


def _session(tmp_path, source=SRC, options=None):
    return CompilationSession(source, options=options or CompileOptions(),
                              cache=KernelCache(tmp_path / "cache"))


def _compile(session, args):
    """``scale`` specialized through ``session``'s cache and digest."""
    return compile_function(SacProgram(None, _session=session), "scale", args)


class TestKeys:
    def test_shape_signature_symbolic_floats(self):
        sig = shape_signature([np.zeros((3, 4)), np.zeros(2, dtype=np.int64),
                               7, 2.5])
        assert sig[0] == "f64[3, 4]"
        assert sig[1].startswith("baked-arr:int64[2]:")
        assert sig[2] == "baked:int:7"
        assert sig[3] == "baked:float:2.5"

    def test_float_value_does_not_change_signature(self):
        a = shape_signature([np.zeros((3, 3))])
        b = shape_signature([np.ones((3, 3))])
        assert a == b

    def test_shape_change_changes_signature(self):
        a = shape_signature([np.zeros((3, 3))])
        b = shape_signature([np.zeros((3, 4))])
        assert a != b

    def test_kernel_key_sensitive_to_every_part(self):
        base = kernel_key("prog", "f(double[+])", ("f64[3]",))
        assert kernel_key("prog2", "f(double[+])", ("f64[3]",)) != base
        assert kernel_key("prog", "g(double[+])", ("f64[3]",)) != base
        assert kernel_key("prog", "f(double[+])", ("f64[4]",)) != base

    def test_program_key_covers_options(self):
        a = program_key(source_digest(SRC), "p", CompileOptions())
        b = program_key(source_digest(SRC), "p",
                        CompileOptions(optimize=False))
        assert a != b


class TestWarmKernels:
    def test_warm_hit_bit_identical_to_cold(self, tmp_path):
        u = np.arange(27.0).reshape(3, 3, 3)
        cold = _session(tmp_path)
        k_cold = _compile(cold, [u, 2.0])
        before = trace_event_count()
        # A brand-new session and cache instance over the same directory:
        # the kernel must come off disk, with zero tracing.
        warm = _session(tmp_path)
        k_warm = _compile(warm, [u, 2.0])
        assert trace_event_count() == before
        assert k_warm.source == k_cold.source
        assert k_warm.baked == k_cold.baked
        np.testing.assert_array_equal(k_warm(u, 2.0), k_cold(u, 2.0))

    def test_fresh_process_reloads_the_planned_source(self, tmp_path):
        # The artifact on disk is the planned module text: a process
        # that never traces must load the very source, and bytes, the
        # tracing process got.
        import os
        import subprocess
        import sys

        child = (
            "import hashlib, numpy as np\n"
            "from repro.mg_sac import load_mg_program\n"
            "from repro.sac import compile_function\n"
            "from repro.sac.codegen import trace_event_count\n"
            "v = np.random.default_rng(5).standard_normal((10, 10, 10))\n"
            "fn = compile_function(load_mg_program(), 'FinalResidual',"
            " (v, 1))\n"
            "print(trace_event_count(),"
            " hashlib.sha256(fn.source.encode()).hexdigest(),"
            " hashlib.sha256(fn(v, 1).tobytes()).hexdigest())\n"
        )
        env = dict(os.environ, REPRO_SAC_CACHE_DIR=str(tmp_path / "cache"))
        env.pop("REPRO_SAC_CACHE", None)
        runs = [subprocess.run([sys.executable, "-c", child], env=env,
                               capture_output=True, text=True, timeout=120)
                for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
        (cold_traces, *cold), (warm_traces, *warm) = (
            r.stdout.split() for r in runs)
        assert (cold_traces, warm_traces) == ("1", "0")
        assert warm == cold

    def test_compile_function_takes_the_programs_cache(self, tmp_path):
        # No cache= argument: a SacProgram brings its session's cache
        # and digest, so an identical second call traces nothing.
        program = SacProgram(None, _session=_session(tmp_path))
        u = np.arange(27.0).reshape(3, 3, 3)
        first = compile_function(program, "scale", [u, 2.0])
        before = trace_event_count()
        second = compile_function(program, "scale", [u, 2.0])
        assert trace_event_count() == before
        np.testing.assert_array_equal(second(u, 2.0), first(u, 2.0))

    def test_shape_change_invalidates(self, tmp_path):
        s = _session(tmp_path)
        _compile(s, [np.zeros((3, 3, 3)), 2.0])
        before = trace_event_count()
        _compile(s, [np.zeros((4, 4, 4)), 2.0])
        assert trace_event_count() == before + 1  # re-traced

    def test_baked_value_change_invalidates(self, tmp_path):
        s = _session(tmp_path)
        k2 = _compile(s, [np.zeros((3, 3, 3)), 2.0])
        k3 = _compile(s, [np.zeros((3, 3, 3)), 3.0])
        assert k2.baked != k3.baked

    def test_source_edit_invalidates(self, tmp_path):
        u = np.zeros((3, 3, 3))
        _compile(_session(tmp_path), [u, 2.0])
        edited = SRC.replace("f * u[iv]", "f + u[iv]")
        before = trace_event_count()
        k = _compile(_session(tmp_path, source=edited), [u, 2.0])
        assert trace_event_count() == before + 1
        np.testing.assert_array_equal(k(np.zeros((3, 3, 3)), 2.0),
                                      np.full((3, 3, 3), 2.0))

    def test_options_flip_invalidates(self, tmp_path):
        u = np.zeros((3, 3, 3))
        _compile(_session(tmp_path), [u, 2.0])
        before = trace_event_count()
        _compile(_session(tmp_path, options=CompileOptions(optimize=False)),
                 [u, 2.0])
        assert trace_event_count() == before + 1


class TestDiskRobustness:
    def _kernel_files(self, tmp_path):
        root = tmp_path / "cache" / f"v{CACHE_VERSION}" / "kernels"
        return [p for p in root.rglob("*") if p.is_file()]

    def test_corrupt_entry_discarded_not_crashed(self, tmp_path):
        u = np.zeros((3, 3, 3))
        _compile(_session(tmp_path), [u, 2.0])
        files = self._kernel_files(tmp_path)
        assert files
        for f in files:
            f.write_bytes(b"\x80\x04 this is not a pickle")
        warm = _session(tmp_path)
        k = _compile(warm, [u, 2.0])  # must not raise
        assert k is not None
        assert warm.cache.stats.corrupt_discarded >= 1
        # Discards are attributed per key, and surfaced via the session.
        assert warm.cache.stats.discards_by_key
        assert sum(warm.cache.stats.discards_by_key.values()) >= 1
        assert (warm.cache_stats.discards_by_key
                == warm.cache.stats.discards_by_key)
        snap = warm.cache.stats.snapshot()
        assert snap["discards_by_key"] == warm.cache.stats.discards_by_key
        snap["discards_by_key"]["tampered"] = 99  # snapshot is a copy
        assert "tampered" not in warm.cache.stats.discards_by_key
        # The corrupt files were unlinked and replaced by the re-compile.
        for f in self._kernel_files(tmp_path):
            assert pickle.loads(f.read_bytes())["version"] == CACHE_VERSION

    def test_stale_version_discarded(self, tmp_path):
        u = np.zeros((3, 3, 3))
        _compile(_session(tmp_path), [u, 2.0])
        for f in self._kernel_files(tmp_path):
            payload = pickle.loads(f.read_bytes())
            payload["version"] = CACHE_VERSION + 1
            f.write_bytes(pickle.dumps(payload))
        warm = _session(tmp_path)
        k = _compile(warm, [u, 2.0])
        assert k is not None
        assert warm.cache.stats.stale_discarded >= 1
        assert warm.cache.stats.discards_by_key  # stale counts per key too

    def test_truncated_program_entry_discarded(self, tmp_path):
        _session(tmp_path)  # populates the program cache
        root = tmp_path / "cache" / f"v{CACHE_VERSION}" / "programs"
        files = [p for p in root.rglob("*") if p.is_file()]
        assert files
        for f in files:
            f.write_bytes(f.read_bytes()[:10])
        warm = _session(tmp_path)  # must rebuild, not raise
        assert not warm.from_cache()
        assert warm.cache.stats.corrupt_discarded >= 1

    def test_memory_only_cache_touches_no_disk(self, tmp_path):
        cache = KernelCache(memory_only=True)
        CompilationSession(SRC, cache=cache)
        assert cache.root is None
        assert not list(tmp_path.iterdir())

    def test_env_toggle_disables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SAC_CACHE", "off")
        monkeypatch.setenv("REPRO_SAC_CACHE_DIR", str(tmp_path / "never"))
        cache = KernelCache()
        assert cache.root is None

    def test_env_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SAC_CACHE", raising=False)
        monkeypatch.setenv("REPRO_SAC_CACHE_DIR", str(tmp_path / "mine"))
        cache = KernelCache()
        assert cache.root == tmp_path / "mine"


class TestVectorizeSharesArtifacts:
    """``vectorize`` picks the interpreter's WITH-loop evaluator and
    nothing else: both settings share one program and its kernels."""

    def test_vectorize_off_after_default_is_a_program_hit(self, tmp_path):
        default = _session(tmp_path)
        assert not default.from_cache()
        stores = default.cache.stats.stores
        scalar = CompilationSession(
            SRC, options=CompileOptions(vectorize=False), cache=default.cache)
        assert scalar.from_cache()
        assert scalar.program_digest == default.program_digest
        assert scalar.program is default.program
        assert default.cache.stats.stores == stores
        assert not scalar.interpreter.vectorize
        u = np.arange(8.0).reshape(2, 2, 2)
        assert scalar.interpreter.call("scale", u, 2.0).tobytes() \
            == default.interpreter.call("scale", u, 2.0).tobytes()

    def test_kernel_compiled_under_one_is_served_to_the_other(self, tmp_path):
        u = np.arange(27.0).reshape(3, 3, 3)
        default = _session(tmp_path)
        compiled = _compile(default, [u, 2.0])
        stores, before = default.cache.stats.stores, trace_event_count()
        scalar = CompilationSession(
            SRC, options=CompileOptions(vectorize=False), cache=default.cache)
        served = _compile(scalar, [u, 2.0])
        assert served.artifact == compiled.artifact
        assert trace_event_count() == before
        assert default.cache.stats.stores == stores

    @pytest.mark.parametrize("flip", [
        {"typecheck": False}, {"analyze": True}, {"optimize": False},
        {"pass_overrides": (("cse", False),)}], ids=lambda d: next(iter(d)))
    def test_each_deciding_field_still_misses(self, tmp_path, flip):
        default = _session(tmp_path)
        other = CompilationSession(SRC, options=CompileOptions(**flip),
                                   cache=default.cache)
        assert not other.from_cache()
        assert other.program_digest != default.program_digest
