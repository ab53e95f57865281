"""The buffer planner: which elementwise operations write into an
operand, which frame copies are elided, which call operands are
donated, what gets ``del``-ed, and that none of it changes a bit.

Hand-built traces pin each rule down case by case; each is also
executed planned and unplanned (the unplanned rendering is the parent
emission: one fresh array per operation, nothing freed).  Tiny SAC
programs then go through the whole of ``compile_function``, where
``conftest.py`` compares every trace with the interpreter.
"""

import numpy as np
import pytest

from repro.sac import SacProgram
from repro.sac.bufplan import Instr, plan, render
from repro.sac.codegen import CodegenUnsupported, compile_function

F8 = np.dtype(np.float64)
I8 = np.dtype(np.int64)
B1 = np.dtype(np.bool_)


def ew(dst, op, *operands, shape=(4,), dtype=F8):
    return Instr(dst, "elementwise", op, operands, shape, dtype)


def view(dst, base, sel="0:4", shape=(4,), dtype=F8):
    return Instr(dst, "view", f"{{}}[{sel}]", (base,), shape, dtype)


def ret(name):
    return Instr(None, "return", "return {}", (name,))


def copy(dst, src, shape=(4,), dtype=F8):
    return Instr(dst, "copy", "{}.copy()", (src,), shape, dtype)


def store(target, value, sel="1:3"):
    return Instr(None, "store", f"{{}}[{sel}] = {{}}", (target, value))


def call(dst, fn, *operands, base=None, donate=None, shape=(4,)):
    """``fn`` is a key of :func:`run`'s namespace; by default every
    operand is one the callee would take."""
    return Instr(dst, "call", f"{fn}({', '.join(['{}'] * len(operands))})",
                 operands, shape, F8, base=base,
                 donate=tuple(range(len(operands))) if donate is None
                 else donate)


def run(instrs, **params):
    body = "\n".join("    " + render(i) for i in instrs)
    ns = {"np": np, "_C0": np.array([1.0, 2.0, 3.0, 4.0]),
          "inc": lambda a: a + 1.0, "add": lambda a, b: a + b,
          "same": lambda a: a}
    exec(f"def f({', '.join(params)}):\n{body}\n", ns)
    return ns["f"](*params.values())


def planned(trace, owned=(), **params):
    """Plan a trace, the parameters named in ``owned`` donated; executed,
    it must return the unplanned bytes and leave the others alone."""
    out, used = plan(
        trace, {k: (params[k].shape, params[k].dtype) for k in owned})
    assert used <= set(owned)
    before = {k: v.copy() for k, v in params.items()}
    want = np.asarray(run(trace, **params))
    # Each run is a call of its own: what it is donated is dead after.
    given = {k: v.copy() if k in owned else v for k, v in params.items()}
    got = np.asarray(run(out, **given))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for k, v in params.items():
        assert np.array_equal(v, before[k])
    return out


def outs(instrs):
    return [i.out for i in instrs if i.kind == "elementwise"]


def dels(instrs):
    return [i.operands for i in instrs if i.kind == "del"]


A = np.array([1.0, -2.0, 3.5, 0.25])
B = np.array([0.5, 4.0, -1.0, 8.0])


class TestRule:
    def test_dead_trace_owned_operand_is_written_into(self):
        p = planned([ew("t1", "+", "a", "b"), ew("t2", "*", "t1", "2.0"),
                     ret("t2")], a=A, b=B)
        assert outs(p) == [None, "t1"]
        assert [render(i) for i in p] == [
            "t1 = (a + b)", "np.multiply(t1, 2.0, out=t1)", "return t1"]

    def test_right_operand_keeps_its_position(self):
        p = planned([ew("t1", "+", "a", "b"), ew("t2", "-", "3.0", "t1"),
                     ret("t2")], a=A, b=B)
        assert render(p[1]) == "np.subtract(3.0, t1, out=t1)"

    def test_live_operand_is_not(self):
        p = planned([ew("t1", "+", "a", "b"), ew("t2", "*", "t1", "2.0"),
                     ew("t3", "+", "t1", "t2"), ret("t3")], a=A, b=B)
        # t1 is read again by t3, so t2 allocates; t3 takes t1 (left
        # first) and t2 is freed.
        assert outs(p) == [None, None, "t1"]
        assert dels(p) == [("t2",)]

    def test_live_view_keeps_its_base_out(self):
        p = planned([ew("t1", "+", "a", "b"), view("w", "t1"),
                     ew("t2", "*", "t1", "2.0"), ew("t3", "+", "t2", "w"),
                     ret("t3")], a=A, b=B)
        assert outs(p) == [None, None, "t2"]
        # ... and the view's name is unbound with the base it holds.
        assert dels(p) == [("t1", "w")]

    def test_view_is_never_a_target(self):
        p = planned([ew("t1", "+", "a", "b"), view("w", "t1"),
                     ew("t2", "*", "w", "2.0"), ret("t2")], a=A, b=B)
        assert outs(p) == [None, None]
        assert dels(p) == [("t1", "w")]

    def test_parameter_and_constant_are_never_targets(self):
        p = planned([ew("t1", "*", "a", "2.0"), ew("t2", "+", "_C0", "b"),
                     ew("t3", "+", "t1", "t2"), ret("t3")], a=A, b=B)
        assert outs(p) == [None, None, "t1"]

    def test_view_of_a_parameter_is_never_deleted(self):
        p = planned([view("w", "a"), ew("t1", "+", "w", "b"), ret("t1")],
                    a=A, b=B)
        assert outs(p) == [None] and dels(p) == []

    def test_copy_and_alloc_are_trace_owned(self):
        p = planned([
            Instr("t1", "copy", "{}.copy()", ("a",), (4,), F8),
            ew("t2", "+", "t1", "b"),
            Instr("t3", "alloc", "np.zeros((4,), dtype=np.float64)", (),
                  (4,), F8),
            ew("t4", "-", "t3", "t2"), ret("t4")], a=A, b=B)
        assert outs(p) == ["t1", "t3"]
        assert dels(p) == [("t1",)]

    def test_store_is_a_use_of_its_target(self):
        p = planned([
            ew("t1", "+", "a", "b"), ew("t2", "*", "t1", "2.0"),
            Instr(None, "store", "{}[0:2] = {}", ("t1", "7.0")),
            ew("t3", "+", "t1", "t2"), ret("t3")], a=A, b=B)
        assert outs(p) == [None, None, "t1"]

    def test_unused_result_is_freed_at_once(self):
        p = planned([ew("t1", "+", "a", "b"), ew("t2", "*", "a", "b"),
                     ret("t2")], a=A, b=B)
        assert dels(p) == [("t1",)]

    def test_returned_buffer_and_its_views_stay_bound(self):
        p = planned([ew("t1", "+", "a", "b"), view("w", "t1", "1:3", (2,)),
                     ret("w")], a=A, b=B)
        assert dels(p) == []


class TestCopyElision:
    """Rule 1: a ``copy`` of an owned whole buffer that dies there binds
    no new buffer."""

    def kept(self, p):
        return [render(i) for i in p if i.kind == "copy"]

    def test_owned_source_dying_at_the_copy(self):
        p = planned([ew("t1", "+", "a", "b"), ew("t2", "*", "t1", "2.0"),
                     copy("t3", "t1"), store("t3", "t2", "0:4"), ret("t3")],
                    a=A, b=B)
        assert [render(i) for i in p] == [
            "t1 = (a + b)", "t2 = (t1 * 2.0)", "t1[0:4] = t2", "del t2",
            "return t1"]

    def test_fresh_call_result_is_owned(self):
        p = planned([call("t1", "inc", "a"), copy("t2", "t1"),
                     store("t2", "7.0"), ret("t2")], a=A)
        assert self.kept(p) == []
        assert render(p[-2]) == "t1[1:3] = 7.0" and dels(p) == []

    def test_source_dying_in_the_store_the_copy_feeds(self):
        # SetupAxis: the stored value is a view of the frame.  NumPy
        # buffers the overlapping right-hand side.
        p = planned([ew("t1", "+", "a", "b"), view("w", "t1", "0:3", (3,)),
                     copy("t2", "t1"), store("t2", "w", "1:4"), ret("t2")],
                    a=A, b=B)
        assert [render(i) for i in p][2:] == ["t1[1:4] = w", "return t1"]

    def test_the_elided_copy_chains(self):
        # ... and its views are freed with whichever name dies last.
        p = planned([ew("t1", "+", "a", "b"), copy("t2", "t1"),
                     store("t2", "0.5"), view("w", "t2"), copy("t3", "t2"),
                     store("t3", "w", "0:4"), ew("t4", "*", "t3", "a"),
                     ew("t5", "<", "t4", "b", dtype=B1), ret("t5")],
                    a=A, b=B)
        assert self.kept(p) == []
        assert outs(p) == [None, "t1", None]
        assert dels(p) == [("t1", "w")]

    @pytest.mark.parametrize("trace", [
        # a parameter
        [copy("t1", "a"), store("t1", "7.0"), ret("t1")],
        # a module constant
        [copy("t1", "_C0"), store("t1", "7.0"), ret("t1")],
        # a view
        [ew("t0", "+", "a", "b"), view("w", "t0"), copy("t1", "w"),
         store("t1", "7.0"), ret("t1")],
        # a call result that is (or may be) its operand
        [call("t0", "same", "a", base="a"), copy("t1", "t0"),
         store("t1", "7.0"), ret("t1")],
        # a view of it is read after the store
        [ew("t0", "+", "a", "b"), view("w", "t0"), copy("t1", "t0"),
         store("t1", "7.0"), ew("t2", "+", "t1", "w"), ret("t2")],
        # it is read later itself
        [ew("t0", "+", "a", "b"), copy("t1", "t0"), store("t1", "7.0"),
         ew("t2", "+", "t1", "t0"), ret("t2")],
        # the value of a later store is a view of it
        [ew("t0", "+", "a", "b"), view("w", "t0", "0:2", (2,)),
         copy("t1", "t0"), store("t1", "7.0"), store("t1", "w", "2:4"),
         ret("t1")],
        # the copy changes the dtype
        [Instr("t0", "alloc", "np.trunc({}).astype(np.int64)", ("a",),
               (4,), I8), copy("t1", "t0"), store("t1", "7.0"), ret("t1")],
    ], ids=["parameter", "constant", "view", "aliasing-call-result",
            "live-view", "read-later", "view-stored-later", "dtype"])
    def test_kept(self, trace):
        p = planned(trace, a=A, b=B)
        assert len(self.kept(p)) == 1

    def test_copy_of_a_donated_parameter(self):
        p = planned([view("w", "a", "0:1", (1,)), copy("t1", "a"),
                     store("t1", "w", "3:4"), ret("t1")], owned="a", a=A)
        assert [render(i) for i in p] == [
            "w = a[0:1]", "a[3:4] = w", "return a"]


class TestDonation:
    """Rule 2: a ``call`` is given the owned operands that die there."""

    def donated(self, p):
        return [i.donate for i in p if i.kind == "call"]

    def test_operand_dying_at_the_call(self):
        p = planned([ew("t1", "+", "a", "b"), call("t2", "inc", "t1"),
                     ret("t2")], a=A, b=B)
        assert self.donated(p) == [(0,)]
        # The caller's name goes; the result is its own again.
        assert dels(p) == [("t1",)]
        p = planned([ew("t1", "+", "a", "b"), call("t2", "inc", "t1"),
                     ew("t3", "*", "t2", "b"), ret("t3")], a=A, b=B)
        assert outs(p) == [None, "t2"]

    def test_operand_read_after_the_call(self):
        p = planned([ew("t1", "+", "a", "b"), call("t2", "inc", "t1"),
                     ew("t3", "+", "t1", "t2"), ret("t3")], a=A, b=B)
        assert self.donated(p) == [()]

    def test_parameter_and_constant_are_not_the_callers_to_give(self):
        p = planned([call("t1", "add", "a", "_C0"), ret("t1")], a=A)
        assert self.donated(p) == [()]

    def test_same_buffer_in_two_positions(self):
        p = planned([ew("t1", "+", "a", "b"), call("t2", "add", "t1", "t1"),
                     ret("t2")], a=A, b=B)
        assert self.donated(p) == [()]

    def test_view_of_it_passed_beside_it(self):
        p = planned([ew("t1", "+", "a", "b"), view("w", "t1"),
                     call("t2", "add", "t1", "w"), ret("t2")], a=A, b=B)
        assert self.donated(p) == [()]

    def test_view_passed_alone(self):
        p = planned([ew("t1", "+", "a", "b"), view("w", "t1"),
                     call("t2", "inc", "w"), ret("t2")], a=A, b=B)
        assert self.donated(p) == [()]

    def test_view_live_after_the_call(self):
        p = planned([ew("t1", "+", "a", "b"), view("w", "t1"),
                     call("t2", "inc", "t1"), ew("t3", "+", "t2", "w"),
                     ret("t3")], a=A, b=B)
        assert self.donated(p) == [()]

    def test_result_that_is_the_operand_keeps_it_alive(self):
        p = planned([ew("t1", "+", "a", "b"),
                     call("t2", "same", "t1", base="t1"),
                     ew("t3", "*", "t2", "b"), ret("t3")], a=A, b=B)
        assert self.donated(p) == [()] and dels(p) == [("t1", "t2")]

    def test_only_positions_the_tracer_offers(self):
        # A rolling loop body re-reads its uncarried parameters on every
        # trip: codegen leaves them out of ``donate``.
        p = planned([ew("t1", "+", "a", "b"), ew("t2", "*", "a", "b"),
                     call("t3", "add", "t1", "t2", donate=(1,)), ret("t3")],
                    a=A, b=B)
        assert self.donated(p) == [(1,)]

    def test_donated_parameter_is_owned(self):
        trace = [ew("t1", "*", "a", "b"), call("t2", "inc", "t1"),
                 ew("t3", "+", "t2", "b"), call("t4", "inc", "b"),
                 ret("t4")]
        assert outs(planned(trace, a=A, b=B)) == [None, "t2"]
        p = planned(trace, owned="a", a=A, b=B)
        assert outs(p) == ["a", "t2"]
        # b is not: not written into, not donated onward; a, t1 and t2
        # live in the caller's memory, which no del would free.
        assert self.donated(p) == [(0,), ()] and dels(p) == [("t2",)]
        q = planned(trace, owned="ab", a=A, b=B)
        assert self.donated(q) == [(0,), (0,)]

    def test_owning_a_parameter_it_only_reads_changes_nothing(self):
        trace = [view("w", "a", "0:2", (2,)), ew("t1", "+", "w", "w",
                                                  shape=(2,)), ret("t1")]
        assert planned(trace, owned="a", a=A) == planned(trace, a=A)

    def test_the_plan_says_which_owned_parameters_it_used(self):
        owned = {"a": ((4,), F8), "b": ((4,), F8)}
        # Written into; taken for a copy, were it only to return it.
        assert plan([ew("t1", "*", "a", "b"), ret("t1")], owned)[1] == {"a"}
        assert plan([copy("t1", "b"), ret("t1")], owned)[1] == {"b"}
        # Not one it only reads, and not one it passes on: whether that
        # is a use is the callee's to say, so the call's donate holds it.
        p, used = plan([ew("t1", "<", "a", "a", dtype=B1),
                        call("t2", "inc", "b"), ret("t2")], owned)
        assert used == set() and self.donated(p) == [(0,)]


class TestNeverInPlace:
    def test_comparison_has_a_bool_result(self):
        p = planned([ew("t1", "+", "a", "b"),
                     ew("t2", "<", "t1", "0.0", dtype=B1), ret("t2")],
                    a=A, b=B)
        assert outs(p) == [None, None] and dels(p) == [("t1",)]

    def test_bool_into_bool_is_fine(self):
        p = planned([ew("t1", "<", "a", "b", dtype=B1),
                     ew("t2", "!", "t1", dtype=B1), ret("t2")], a=A, b=B)
        assert outs(p) == [None, "t1"]

    def test_int_float_promotion(self):
        p = planned([
            Instr("t1", "alloc", "np.trunc({}).astype(np.int64)", ("a",),
                  (4,), I8),
            ew("t2", "*", "t1", "0.5"), ret("t2")], a=A)
        assert outs(p) == [None] and dels(p) == [("t1",)]

    def test_zero_d_fold_result(self):
        p = planned([
            Instr("t1", "alloc", "np.add.reduce({}.reshape(-1))", ("a",),
                  (), F8),
            ew("t2", "+", "t1", "1.0", shape=()), ret("t2")], a=A)
        assert outs(p) == [None] and dels(p) == []

    def test_broadcast_changes_the_shape(self):
        m = np.arange(12.0).reshape(3, 4)
        p = planned([ew("t1", "+", "a", "b"),
                     ew("t2", "*", "t1", "m", shape=(3, 4)), ret("t2")],
                    a=A, b=B, m=m)
        assert outs(p) == [None, None] and dels(p) == [("t1",)]


class TestOverlap:
    def test_a_op_a(self):
        p = planned([ew("t1", "+", "a", "b"), ew("t2", "*", "t1", "t1"),
                     ret("t2")], a=A, b=B)
        assert render(p[1]) == "np.multiply(t1, t1, out=t1)"
        assert dels(p) == []

    def test_other_operand_is_a_view_of_the_target(self):
        # Row 0 is rewritten first; an unbuffered loop would then add
        # the *new* row 0 to rows 1 and 2.
        m = np.arange(12.0).reshape(3, 4)
        p = planned([
            ew("t1", "*", "m", "2.0", shape=(3, 4)),
            view("w", "t1", "0", (4,)),
            ew("t2", "+", "t1", "w", shape=(3, 4)), ret("t2")], m=m)
        assert outs(p) == [None, "t1"]

    def test_reversed_view_of_the_target(self):
        p = planned([ew("t1", "+", "a", "b"), view("w", "t1", "::-1"),
                     ew("t2", "-", "t1", "w"), ret("t2")], a=A, b=B)
        assert outs(p) == [None, "t1"]


def compiled(src, fname, *args, **kwargs):
    return compile_function(SacProgram.from_source(src), fname, args,
                            **kwargs)


class TestCertifiedSites:
    """Every site the reuse certification proves (a dead, owned,
    unaliased frame) is a dead owned temp of its trace: the planner
    finds it by liveness, without reading the certificate, and elides
    the frame copy there."""

    REUSABLE = """
    double[+] f(double[+] a) {
        lo = a + 1.0;
        hi = with ([1] <= iv < shape(a) - 1) modarray(lo, lo[iv] * 2.0);
        return hi;
    }
    """
    CHAINED = """
    double[+] f(double[+] a) {
        t = a * 3.0;
        m = with ([0] <= iv < [2]) modarray(t, 0.0);
        n = with ([6] <= iv < [8]) modarray(m, 1.0);
        return n;
    }
    """

    def test_copy_elided_for_certified_loop(self):
        fn = compiled(self.REUSABLE, "f", np.arange(8.0))
        assert ".copy()" not in fn.source
        assert "_t1[1:7] = _t3" in fn.source

    @pytest.mark.parametrize("src", [REUSABLE, CHAINED],
                             ids=["one-site", "chained"])
    def test_certified_means_no_copy(self, src):
        from repro.sac import parse_program
        from repro.sac.analysis.reuse import certify_program

        certs = certify_program(parse_program(src))
        assert certs and all(c.buffer_reuse for c in certs)
        assert ".copy()" not in compiled(src, "f", np.arange(8.0)).source

    def test_caller_buffer_untouched(self):
        # The certified frame is the *local* lo, never the parameter:
        # the caller's array must come back unmodified.
        a = np.arange(8.0)
        compiled(self.REUSABLE, "f", a)(a)
        assert np.array_equal(a, np.arange(8.0))


class TestThroughCodegen:
    def test_chain_accumulates_into_its_first_result(self):
        fn = compiled("double[+] f(double[+] a) { return 2.0 * a - 1.0; }",
                      "f", np.arange(6.0))
        body = fn.source.split("def f")[1]
        assert "_t1 = (2.0 * a)" in body
        assert "np.subtract(_t1, 1.0, out=_t1)" in body
        assert "out=a" not in body

    def test_parameter_survives_and_result_is_fresh(self):
        fn = compiled("double[+] f(double[+] a) { b = a * a; "
                      "return b + a; }", "f", np.arange(6.0))
        a = np.arange(6.0)
        first, second = fn(a), fn(a)
        assert np.array_equal(a, np.arange(6.0))
        assert not np.shares_memory(first, a)
        assert not np.shares_memory(first, second)

    def test_module_constant_is_never_a_target(self):
        fn = compiled(
            "double[.] f(double[.] a) { c = [1.0, 2.0, 3.0]; "
            "return (c + a) * c; }", "f", np.arange(3.0))
        assert "_C0" in fn.source and "out=_C" not in fn.source
        fn(np.arange(3.0))
        np.testing.assert_array_equal(fn(np.arange(3.0)), [1.0, 6.0, 15.0])

    def test_zero_genarray_is_stored_once(self):
        fn = compiled("double[+] f(double[+] a) { return "
                      "genarray(shape(a), 0.0) + a; }", "f", np.ones(100))
        body = fn.source.split("def f")[1]
        assert "np.zeros((100,)" in body and "= 0.0" not in body

    def test_nonzero_genarray_is_still_stored(self):
        fn = compiled("double[+] f(double[+] a) { return "
                      "genarray(shape(a), 1.5) + a; }", "f", np.ones(100))
        assert "= 1.5" in fn.source

    def test_tod_of_a_double_array_is_an_alias(self):
        # np.float64(x) returns x itself, so the product may not land in
        # b while t is still read.
        fn = compiled("double[+] f(double[+] a) { b = a + 1.0; t = tod(b); "
                      "c = b * 2.0; return c + t; }", "f", np.arange(4.0))
        np.testing.assert_array_equal(fn(np.arange(4.0)),
                                      3.0 * (np.arange(4.0) + 1.0))

    def test_budget_counts_instructions_not_rendered_lines(self):
        # Two instructions per round (select, add) of a loop that must
        # unroll (its counter is an index); the planner's `del` lines do
        # not count against the budget.
        src = ("double f(double[.] a) { s = 0.0; "
               "for (i = 0; i < 50; i += 1) { s = s + a[[i]]; } return s; }")
        compiled(src, "f", np.ones(50), max_statements=100)
        with pytest.raises(CodegenUnsupported, match="statement budget"):
            compiled(src, "f", np.ones(50), max_statements=99)
