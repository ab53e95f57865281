"""The ipup pass and what the code generator makes of the sites it
certifies: every one is a dead temp of its trace, so the buffer planner
elides the frame copy there with or without the hint — bit-identical
results — and the certificates agree with the runtime MG001 alias
guard."""

import numpy as np

from repro.sac.analysis.effects import EffectsAnalysis
from repro.sac.analysis.reuse import certify_program
from repro.sac.ast_nodes import Program, WithLoop
from repro.sac.ast_visit import walk
from repro.sac.codegen import compile_function
from repro.sac.driver.passes import registered_passes, schedule_for
from repro.sac.optim.ipup import ipup_pass
from repro.sac.optim.pipeline import PassOptions, optimize_program
from repro.sac.parser import parse_program
from repro.sac.stdlib import load_prelude


def hinted_loops(program):
    return [(f.name, n.hint) for f in program.functions
            for n in walk(f.body)
            if isinstance(n, WithLoop) and n.hint is not None]


REUSABLE = """
double[+] f(double[+] a) {
    lo = a + 1.0;
    hi = with ([1] <= iv < shape(a) - 1) modarray(lo, lo[iv] * 2.0);
    return hi;
}
"""


def mg_program():
    prelude = load_prelude()
    user = parse_program(
        open("src/repro/mg_sac/mg.sac").read(), "mg.sac")
    return Program(tuple(prelude.functions) + tuple(user.functions))


class TestIpupPass:
    def test_annotates_certified_loops(self):
        out = ipup_pass(parse_program(REUSABLE))
        assert hinted_loops(out) == [
            ("f", out.functions[0].body.statements[1].value.hint)]
        hint = hinted_loops(out)[0][1]
        assert hint.buffer_reuse and hint.destructive
        assert hint.frame == "lo"

    def test_no_certificates_returns_same_object(self):
        prog = parse_program(
            "double[+] f(double[+] a) { r = with ([1] <= iv < "
            "shape(a) - 1) modarray(a, a[iv] * 2.0); return r; }")
        assert ipup_pass(prog) is prog

    def test_untouched_functions_keep_identity(self):
        prog = mg_program()
        out = ipup_pass(prog)
        same = sum(1 for a, b in zip(prog.functions, out.functions)
                   if a is b)
        assert same == len(prog.functions) - 1  # only SetupAxis changes

    def test_registered_and_scheduled(self):
        assert "ipup" in registered_passes()
        assert registered_passes()["ipup"].invalidates == ("kernels",)
        assert schedule_for(PassOptions())[-1] == "ipup"
        assert "ipup" not in schedule_for(PassOptions.none())

    def test_hints_survive_the_full_pipeline(self):
        opt = optimize_program(mg_program(), PassOptions())
        names = {fn for fn, _ in hinted_loops(opt)}
        assert "SetupAxis" in names

    def test_annotations_are_self_consistent(self):
        # Re-certifying the annotated program must refute nothing: the
        # static proof and the recorded hints agree by construction.
        out = optimize_program(mg_program(), PassOptions())
        found = []
        certify_program(out, lambda c, m, p, f: found.append(c))
        assert "SAC501" not in found


class TestCodegenReuse:
    def test_copy_elided_for_certified_loop(self):
        # The planner's liveness finds what the certificate proves (and
        # does not read it): the generated text is the same.
        prog = parse_program(REUSABLE)
        a = np.arange(8.0)
        with_h = compile_function(ipup_pass(prog), "f",
                                  example_args=(a,))
        without = compile_function(prog, "f", example_args=(a,))
        assert ".copy()" not in with_h.source
        assert "_t1[1:7] = _t3" in with_h.source
        assert with_h.source == without.source

    def test_results_bit_identical(self):
        prog = parse_program(REUSABLE)
        a = np.arange(8.0)
        with_h = compile_function(ipup_pass(prog), "f",
                                  example_args=(a,))
        without = compile_function(prog, "f", example_args=(a,))
        assert with_h(a).tobytes() == without(a).tobytes()

    def test_caller_buffer_untouched(self):
        # The certified frame is the *local* lo, never the parameter:
        # the caller's array must come back unmodified.
        prog = ipup_pass(parse_program(REUSABLE))
        a = np.arange(8.0)
        fn = compile_function(prog, "f", example_args=(a,))
        snapshot = a.copy()
        fn(a)
        assert np.array_equal(a, snapshot)

    def test_mg_kernel_elides_copies(self):
        from repro.core.zran3 import zran3

        v = zran3(32)
        with_h = compile_function(
            optimize_program(mg_program(), PassOptions()),
            "FinalResidual", example_args=(v, 1))
        without = compile_function(
            optimize_program(mg_program(), PassOptions(ipup=False)),
            "FinalResidual", example_args=(v, 1))
        assert with_h.source.count(".copy()") == 4
        assert with_h.source == without.source
        assert with_h(v, 1).tobytes() == without(v, 1).tobytes()


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

    def test_end_to_end_class_t_verifies(self):
        from repro.mg_sac import solve_sac_mg

        with_h = solve_sac_mg("T", jit=True)
        without = solve_sac_mg("T", jit=True,
                               pass_overrides=(("ipup", False),))
        assert with_h.r.tobytes() == without.r.tobytes()
        assert with_h.rnm2 == without.rnm2
