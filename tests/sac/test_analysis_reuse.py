"""Reuse certification (SAC5xx layer 3): ReuseCertificates and the
SAC502/SAC510 diagnostics."""

from repro.sac.analysis import analyze_program, analyze_source
from repro.sac.analysis.effects import EffectsAnalysis
from repro.sac.analysis.reuse import certify_function, certify_program
from repro.sac.ast_nodes import Program
from repro.sac.parser import parse_program
from repro.sac.stdlib import load_prelude


def mg_program():
    user = parse_program(open("src/repro/mg_sac/mg.sac").read(), "mg.sac")
    return Program(tuple(load_prelude().functions) + tuple(user.functions))


def certify(src, name=None):
    prog = parse_program(src)
    eff = EffectsAnalysis(prog)
    fun = prog.functions[-1] if name is None else next(
        f for f in prog.functions if f.name == name)
    found = []

    def sink(code, message, pos, function):
        found.append((code, message))

    return certify_function(fun, eff, sink), found


REUSABLE = """
double[+] f(double[+] a) {
    lo = a + 1.0;
    hi = with ([1] <= iv < shape(a) - 1) modarray(lo, lo[iv] * 2.0);
    return hi;
}
"""

OFFSET_BODY = """
double[+] f(double[+] a) {
    lo = a + 1.0;
    hi = with ([1] <= iv < shape(a) - 1) modarray(lo, lo[iv - 1]);
    return hi;
}
"""


class TestCertification:
    def test_dead_local_frame_certifies(self):
        certs, found = certify(REUSABLE)
        cert = next(c for c in certs if c.target == "hi")
        assert cert.buffer_reuse
        assert cert.frame == "lo"
        assert ("SAC510",) == tuple(c for c, _ in found)

    def test_point_read_is_destructive(self):
        certs, _ = certify(REUSABLE)
        cert = next(c for c in certs if c.target == "hi")
        assert cert.destructive

    def test_offset_read_blocks_destructive_not_reuse(self):
        certs, _ = certify(OFFSET_BODY)
        cert = next(c for c in certs if c.target == "hi")
        assert cert.buffer_reuse
        assert not cert.destructive
        assert "lo" in cert.hazards

    def test_param_frame_refused(self):
        certs, found = certify(
            "double[+] f(double[+] a) { r = with ([1] <= iv < "
            "shape(a) - 1) modarray(a, a[iv] * 2.0); return r; }")
        cert = next(c for c in certs if c.target == "r")
        assert not cert.buffer_reuse
        assert any("parameter" in r for r in cert.reasons)
        assert found == []

    def test_live_frame_refused(self):
        certs, _ = certify(
            "double f(double[+] a) { lo = a + 1.0; "
            "hi = with ([1] <= iv < shape(a) - 1) "
            "modarray(lo, lo[iv]); return sum(hi) + sum(lo); }")
        cert = next(c for c in certs if c.target == "hi")
        assert not cert.buffer_reuse
        assert any("live after" in r for r in cert.reasons)

    def test_aliased_frame_refused(self):
        # b aliases parameter a, so writing b in place would scribble
        # on the caller's buffer.
        certs, _ = certify(
            "double[+] f(double[+] a) { b = a[[0]]; "
            "hi = with ([1] <= iv < shape(b) - 1) "
            "modarray(b, b[iv] * 2.0); return hi; }")
        cert = next(c for c in certs if c.target == "hi")
        assert not cert.buffer_reuse
        assert any("alias" in r for r in cert.reasons)

    def test_genarray_never_reuses(self):
        certs, _ = certify(
            "double[+] f(double[+] a) { r = with (0 * shape(a) <= iv "
            "< shape(a)) genarray(shape(a), a[iv]); return r; }")
        cert = next(c for c in certs if c.target == "r")
        assert not cert.buffer_reuse
        assert cert.kind == "genarray"

    def test_fold_never_reuses(self):
        certs, _ = certify(
            "double f(double[+] a) { s = with (0 * shape(a) <= iv "
            "< shape(a)) fold(+, 0.0, a[iv]); return s; }")
        cert = next(c for c in certs if c.target == "s")
        assert not cert.buffer_reuse
        assert cert.kind == "fold"


#: (what, producer, reader, folded) over ``f(double[.] a, double[.] g,
#: int k)``: every way a reader meets a several-piece producer, and
#: whether with-loop folding splits it.
_PAIRS = [
    ("one offset into a partial genarray",
     "with ([1] <= iv < shape(a)-1) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv - 1])", True),
    ("two offsets into a partial genarray",
     "with ([1] <= iv < shape(a)-1) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv - 1] + t[iv + 1])",
     False),
    ("a strided read of a partial modarray",
     "with ([1] <= iv < shape(a)-1) modarray(a, 2.0 * a[iv])",
     "with ([0] <= iv < shape(a)/2) genarray(shape(a)/2, t[2 * iv])", True),
    ("literal offsets into a stepped genarray",
     "with (. <= iv <= . step 2) genarray(shape(a), 2.0 * a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv + [-1]] + t[iv + [1]])",
     True),
    ("a width",
     "with ([0] <= iv < shape(a)-1 step 3 width 2) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv - 1])", False),
    ("a step that is no literal",
     "with (. <= iv <= . step [k]) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv + [-1]])", False),
    ("a stride into a stepped producer",
     "with (. <= iv <= . step 2) genarray(shape(a), a[iv])",
     "with ([0] <= iv < shape(a)/2) modarray(g, t[2 * iv])", False),
    ("a stepped producer on part of the range",
     "with ([2] <= iv < shape(a) step 2) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv + [-1]])", False),
    ("no vector to take the rank from",
     "with (. <= iv <= . step 2) genarray(shape(a), a[iv])",
     "with (0*shape(a)+1 <= iv < shape(a)-1) modarray(g, t[iv-1] + t[iv+1])",
     False),
    ("a live stepped producer with a bare selection for a body",
     "with (. <= iv <= . step 2) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(t, t[iv + [-1]] + t[iv + [1]])",
     True),
    ("a live stepped producer with an arithmetic body",
     "with (. <= iv <= . step 2) genarray(shape(a), 2.0 * a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(t, t[iv + [-1]] + t[iv + [1]])",
     False),
    ("an exclusive '.' bound on the producer",
     "with (. < iv <= .) modarray(a, 2.0 * a[iv])",
     "with ([0] <= iv < shape(a)) modarray(g, t[iv])", False),
    ("an exclusive '.' bound on a stepped producer",
     "with (. < iv <= . step 2) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv + [-1]] + t[iv + [1]])",
     False),
    ("an exclusive '.' bound on the reader",
     "with (. <= iv <= . step 2) genarray(shape(a), a[iv])",
     "with (. < iv < .) modarray(g, t[iv + [-1]] + t[iv + [1]])", False),
    ("a fold over a partial producer",
     "with ([1] <= iv < shape(a)-1) genarray(shape(a), a[iv])",
     "with ([0] <= iv < shape(a)) fold(+, 0.0, t[iv])", False),
]


class TestPartitionDependence:
    @staticmethod
    def _sac502(src):
        return [d.message for d in analyze_source(src).diagnostics
                if d.code == "SAC502"]

    def test_warned_exactly_when_left_unfolded(self):
        from repro.sac.optim import wlfold_pass
        from repro.sac.optim.rewrite import ast_key

        for what, producer, reader, folded in _PAIRS:
            ret = "double" if " fold(" in reader else "double[.]"
            src = (f"{ret} f(double[.] a, double[.] g, int k) {{\n"
                   f"  t = {producer};\n  s = {reader};\n  return s;\n}}")
            prog = parse_program(src)
            changed = ast_key(wlfold_pass(prog)) != ast_key(prog)
            assert changed == folded, what
            assert bool(self._sac502(src)) == (not folded), what

    def test_in_place_update_is_no_fusion_candidate(self):
        # mg.sac's SetupAxis: ``hi`` updates ``lo`` in place, so ``lo``
        # stays live whatever is folded — neither split nor warned about.
        src = """
        double[.] f(double[.] a) {
            lo = with ([0] <= iv < [1]) modarray(a, a[iv + 3]);
            hi = with ([4] <= iv < [5]) modarray(lo, lo[iv - 3]);
            return hi;
        }
        """
        assert self._sac502(src) == []

    def test_offset_read_of_partial_producer_warns(self):
        # At two offsets, that is: one index is folded (rule A) and no
        # longer warned about.
        src = """
        double[+] f(double[+] a) {
            t = with ([1] <= iv < shape(a) - 1)
                genarray(shape(a), a[iv]);
            s = with ([1] <= iv < shape(a) - 1)
                modarray(a, t[iv - 1] + t[iv + 1]);
            return s;
        }
        """
        (message,) = self._sac502(src)
        assert "'t'" in message and "more than one index" in message

    def test_point_read_of_partial_producer_is_fine(self):
        src = """
        double[+] f(double[+] a) {
            t = with ([1] <= iv < shape(a) - 1)
                genarray(shape(a), a[iv]);
            s = with ([1] <= iv < shape(a) - 1)
                modarray(a, t[iv]);
            return s;
        }
        """
        assert self._sac502(src) == []


class TestDriverIntegration:
    def test_report_carries_reuse_certificates(self):
        report = analyze_source(REUSABLE)
        assert any(c.buffer_reuse for c in report.reuse_certificates)
        assert any(d.code == "SAC510" for d in report.diagnostics)

    def test_notes_do_not_fail_the_report(self):
        report = analyze_source(REUSABLE)
        assert report.ok

    def test_mg_program_certificates(self):
        prog = mg_program()
        found = []
        certs = certify_program(
            prog, lambda c, m, p, f: found.append((c, f)))
        # Every user WITH-loop has a certificate; exactly one reuse
        # opportunity (SetupAxis hi <- lo) and no SAC5xx errors.
        user_certs = {(c.function, c.target) for c in certs}
        for fn, tgt in [("StencilSum", "s"), ("RelaxKernel", "r"),
                        ("SetupAxis", "lo"), ("SetupAxis", "hi"),
                        ("Interior", "ai")]:
            assert (fn, tgt) in user_certs
        reused = [c for c in certs if c.buffer_reuse]
        assert [(c.function, c.target, c.frame) for c in reused] \
            == [("SetupAxis", "hi", "lo")]
        assert [d for d in analyze_program(prog).diagnostics
                if d.code == "SAC502"] == []
        assert [c for c, _ in found if c == "SAC510"] \
            == ["SAC510"]

    def test_certified_sites_of_the_optimized_program(self):
        # Folding the transfer operators into pieces leaves nine more
        # in-place sites than the source has (SetupAxis hi <- lo).
        from collections import Counter

        from repro.mg_sac import load_mg_program

        certs = certify_program(load_mg_program().program)
        assert Counter(c.function for c in certs if c.buffer_reuse) == {
            "SetupAxis": 1, "Fine2Coarse": 1, "Coarse2Fine": 8}


class TestMG001Agreement:
    """The static certificates and the runtime alias guard are two
    views of one invariant and must never disagree."""

    def test_relax_frame_refused_like_mg001(self):
        # The runtime relax kernels raise StencilAliasError (MG001)
        # when out aliases u; statically, RelaxKernel's loop must be
        # refused reuse of u for the same reason, with u on record as
        # the hazard the stencil reads at an offset.
        certs = certify_program(mg_program())
        relax = next(c for c in certs
                     if c.function == "RelaxKernel"
                     and c.target == "r")
        assert not relax.buffer_reuse
        assert "u" in relax.hazards

    def test_certified_loop_frame_is_offset_free(self):
        # Conversely a certificate implies the loop body never reads
        # its frame at an offset — exactly the condition under which
        # the runtime guard could fire.
        prog = mg_program()
        eff = EffectsAnalysis(prog)
        for cert in certify_program(prog):
            if not cert.destructive or cert.wl is None:
                continue
            reads = eff.expr_reads(
                cert.wl.operation.body,
                frozenset({cert.wl.generator.var}))
            assert not any(
                r.name == cert.frame and r.kind.name == "OFFSET"
                for r in reads), cert
