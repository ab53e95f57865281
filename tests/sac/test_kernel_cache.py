"""Correctness of the content-addressed kernel cache (driver.cache)."""

import linecache
import traceback

import numpy as np
import pytest

from repro.sac import CompileOptions, SacProgram, compile_function
from repro.sac.codegen import trace_event_count
from repro.sac.driver import CompilationSession, KernelCache
from repro.sac.driver.cache import (
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


@pytest.fixture
def cache():
    return KernelCache()


def _session(cache, source=SRC, options=None):
    return CompilationSession(source, options=options or CompileOptions(),
                              cache=cache)


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
    def test_warm_hit_bit_identical_to_cold(self, cache):
        u = np.arange(27.0).reshape(3, 3, 3)
        cold = _session(cache)
        k_cold = _compile(cold, [u, 2.0])
        before = trace_event_count()
        # A brand-new session over the same cache: the kernel must be
        # served, with zero tracing.
        warm = _session(cache)
        k_warm = _compile(warm, [u, 2.0])
        assert trace_event_count() == before
        assert k_warm is k_cold
        np.testing.assert_array_equal(k_warm(u, 2.0), k_cold(u, 2.0))

    def test_fresh_process_reloads_the_planned_source(self):
        # Nothing outlives a process, so each one traces its own kernel:
        # two processes with different string-hash seeds must plan the
        # very same source, and compute the same bytes.
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
        runs = [subprocess.run([sys.executable, "-c", child],
                               env=dict(os.environ, PYTHONHASHSEED=seed),
                               capture_output=True, text=True, timeout=120)
                for seed in ("1", "2")]
        assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
        (traces_1, *first), (traces_2, *second) = (
            r.stdout.split() for r in runs)
        assert (traces_1, traces_2) == ("1", "1")
        assert second == first

    def test_compile_function_takes_the_programs_cache(self, cache):
        # No cache= argument: a SacProgram brings its session's cache
        # and digest, so an identical second call traces nothing.
        program = SacProgram(None, _session=_session(cache))
        u = np.arange(27.0).reshape(3, 3, 3)
        first = compile_function(program, "scale", [u, 2.0])
        before = trace_event_count()
        second = compile_function(program, "scale", [u, 2.0])
        assert trace_event_count() == before
        np.testing.assert_array_equal(second(u, 2.0), first(u, 2.0))

    def test_shape_change_invalidates(self, cache):
        s = _session(cache)
        _compile(s, [np.zeros((3, 3, 3)), 2.0])
        before = trace_event_count()
        _compile(s, [np.zeros((4, 4, 4)), 2.0])
        assert trace_event_count() == before + 1  # re-traced

    def test_baked_value_change_invalidates(self, cache):
        s = _session(cache)
        k2 = _compile(s, [np.zeros((3, 3, 3)), 2.0])
        k3 = _compile(s, [np.zeros((3, 3, 3)), 3.0])
        assert k2.baked != k3.baked

    def test_source_edit_invalidates(self, cache):
        u = np.zeros((3, 3, 3))
        _compile(_session(cache), [u, 2.0])
        edited = SRC.replace("f * u[iv]", "f + u[iv]")
        before = trace_event_count()
        k = _compile(_session(cache, source=edited), [u, 2.0])
        assert trace_event_count() == before + 1
        np.testing.assert_array_equal(k(np.zeros((3, 3, 3)), 2.0),
                                      np.full((3, 3, 3), 2.0))

    def test_options_flip_invalidates(self, cache):
        u = np.zeros((3, 3, 3))
        _compile(_session(cache), [u, 2.0])
        before = trace_event_count()
        _compile(_session(cache, options=CompileOptions(optimize=False)),
                 [u, 2.0])
        assert trace_event_count() == before + 1


class TestDiskRobustness:
    def test_memory_only_cache_touches_no_disk(self, tmp_path, monkeypatch):
        # Wherever HOME and the working directory point, building a
        # program and a kernel writes nothing.
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        cache = KernelCache()
        _compile(_session(cache), [np.zeros((3, 3, 3)), 2.0])
        assert cache.root is None and cache.stats.stores == 2
        assert not list(tmp_path.iterdir())


class TestVectorizeSharesArtifacts:
    """``vectorize`` picks the interpreter's WITH-loop evaluator and
    nothing else: both settings share one program and its kernels."""

    def test_vectorize_off_after_default_is_a_program_hit(self, cache):
        default = _session(cache)
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

    def test_kernel_compiled_under_one_is_served_to_the_other(self, cache):
        u = np.arange(27.0).reshape(3, 3, 3)
        default = _session(cache)
        compiled = _compile(default, [u, 2.0])
        stores, before = default.cache.stats.stores, trace_event_count()
        scalar = CompilationSession(
            SRC, options=CompileOptions(vectorize=False), cache=default.cache)
        served = _compile(scalar, [u, 2.0])
        assert served is compiled
        assert trace_event_count() == before
        assert default.cache.stats.stores == stores

    @pytest.mark.parametrize("flip", [
        {"typecheck": False}, {"analyze": True}, {"optimize": False},
        {"pass_overrides": (("cse", False),)}], ids=lambda d: next(iter(d)))
    def test_each_deciding_field_still_misses(self, cache, flip):
        default = _session(cache)
        other = CompilationSession(SRC, options=CompileOptions(**flip),
                                   cache=default.cache)
        assert not other.from_cache()
        assert other.program_digest != default.program_digest


class TestInProcess:
    def test_root_accepts_only_none(self):
        assert KernelCache(None).root is None
        assert KernelCache().stats.disk_hits == 0
        with pytest.raises(ValueError, match="nothing on disk"):
            KernelCache("cache-dir")

    def test_generated_source_is_in_linecache(self):
        # Each specialization's module text is registered under its own
        # filename, so tracebacks and inspect show the generated lines.
        from repro.mg_sac import load_mg_program

        codes = []
        for n in (34, 66):  # classes S and W
            fn = compile_function(load_mg_program(), "FinalResidual",
                                  (np.zeros((n, n, n)), 4))
            codes.append((fn._callable.__code__, fn.source))
        assert codes[0][0].co_filename != codes[1][0].co_filename
        for code, source in codes:
            line = linecache.getline(code.co_filename, code.co_firstlineno)
            assert line.startswith(f"def {code.co_name}(")
            assert line == source.splitlines(True)[code.co_firstlineno - 1]


class TestFailedBuilds:
    """A build is deterministic, so a failed one is cached as its error."""

    def test_failed_trace_is_raised_again_untraced(self, cache,
                                                   monkeypatch):
        from repro.sac import codegen
        from repro.sac.errors import SacError

        traced = []

        def trace(table, fun, args, **kwargs):
            traced.append(fun.name)
            raise SacError("untraceable")

        monkeypatch.setattr(codegen, "trace_fundef", trace)
        session = _session(cache)
        raised = []
        for _ in range(3):
            with pytest.raises(SacError, match="untraceable") as ei:
                _compile(session, (np.zeros(4), 2.0))
            raised.append(ei.value)
        assert traced == ["scale"]
        assert raised[0] is raised[1] is raised[2]
        assert cache.stats.hits == 2
        # A lookup raises it afresh: its traceback does not grow.
        depths = [len(traceback.extract_tb(e.__traceback__))
                  for e in raised[1:]]
        assert depths[0] == depths[1]
        # Another key still traces.
        with pytest.raises(SacError):
            _compile(session, (np.zeros(5), 2.0))
        assert traced == ["scale", "scale"]

    def test_failed_program_build_is_raised_again_unbuilt(self, cache):
        from repro.sac.errors import SacError

        broken = SRC.replace("return s;", "return s")
        with pytest.raises(SacError) as first:
            _session(cache, source=broken)
        assert cache.stats.stores == 1
        with pytest.raises(SacError) as second:
            _session(cache, source=broken)
        assert second.value is first.value
        assert cache.stats.hits == 1 and cache.stats.stores == 1
