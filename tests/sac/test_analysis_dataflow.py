"""CFG construction, dataflow solving, and the SAC4xx lints."""

import pytest

from repro.sac.analysis import (
    analyze_source,
    build_cfg,
    def_use_chains,
    free_vars,
    must_defined,
    reaching_definitions,
)
from repro.sac.analysis.dataflow import DefSite
from repro.sac.parser import parse_expression, parse_program


def fun(src):
    return parse_program(src).functions[0]


def codes(src, filename="<test>"):
    report = analyze_source(src, filename)
    return [d.code for d in report.diagnostics]


class TestFreeVars:
    def test_simple(self):
        assert free_vars(parse_expression("a + b * c")) == {"a", "b", "c"}

    def test_withloop_binds_index(self):
        expr = parse_expression(
            "with ([0] <= iv < shape(a)) fold(+, 0, a[iv])")
        assert free_vars(expr) == {"a"}

    def test_generator_bounds_are_free(self):
        expr = parse_expression(
            "with (lo <= iv < hi) fold(+, 0, iv[[0]])")
        assert free_vars(expr) == {"lo", "hi"}

    def test_nested_generator_rebinds_outer_name(self):
        # The inner loop's bounds read the outer iv; its body reads its
        # own.  An iv read outside both loops stays free.
        expr = parse_expression(
            "with ([0] <= iv < [n]) genarray([n], "
            "with ([0] <= iv < iv) fold(+, 0, iv[[0]] * m))")
        assert free_vars(expr) == {"n", "m"}
        expr = parse_expression(
            "iv[[0]] + with ([0] <= iv < [3]) fold(+, 0, iv[[0]])")
        assert free_vars(expr) == {"iv"}

    @pytest.mark.parametrize("text", [
        "with (iv <= iv < [3]) fold(+, 0, 1)",
        "with ([0] <= iv < iv) fold(+, 0, 1)",
        "with ([0] <= iv < [3] step iv) fold(+, 0, 1)",
        "with ([0] <= iv < [3] step [1] width iv) fold(+, 0, 1)",
        "with ([0] <= iv < [3]) genarray(iv, 0)",
        "with ([0] <= iv < [3]) modarray(iv, 0)",
        "with ([0] <= iv < [3]) fold(+, iv, 1)",
    ], ids=["lower", "upper", "step", "width", "shape", "array", "neutral"])
    def test_generator_variable_outside_body_is_free(self, text):
        assert free_vars(parse_expression(text)) == {"iv"}

    def test_dot_bounds_read_nothing(self):
        expr = parse_expression("with (. <= iv <= .) modarray(a, a[iv] + b)")
        assert free_vars(expr) == {"a", "b"}


class TestCFG:
    def test_straight_line_single_block(self):
        cfg = build_cfg(fun("int f() { x = 1; y = x; return y; }"))
        reachable = cfg.reachable()
        acting = [b for b in cfg.blocks if b.actions]
        assert len(acting) == 1
        assert acting[0].id in reachable

    def test_if_creates_branches(self):
        cfg = build_cfg(fun(
            "int f(bool b) { if (b) { x = 1; } else { x = 2; } "
            "return x; }"))
        # entry, exit, body, then, else, join at minimum
        assert len(cfg.blocks) >= 6
        assert cfg.exit in cfg.reachable()

    def test_while_has_back_edge(self):
        cfg = build_cfg(fun(
            "int f(int n) { i = 0; while (i < n) { i = i + 1; } "
            "return i; }"))
        has_back = any(
            s <= b.id for b in cfg.blocks for s in b.succs
            if b.actions or b.succs)
        assert has_back

    def test_code_after_return_unreachable(self):
        cfg = build_cfg(fun("int f() { return 1; x = 2; }"))
        reachable = cfg.reachable()
        dead = [b for b in cfg.blocks
                if b.actions and b.id not in reachable]
        assert len(dead) == 1

    def test_rpo_starts_at_entry(self):
        cfg = build_cfg(fun("int f() { return 1; }"))
        assert cfg.rpo()[0] == cfg.entry


class TestDataflow:
    def test_reaching_defs_params(self):
        cfg = build_cfg(fun("int f(int x) { return x; }"))
        solved = reaching_definitions(cfg)
        at_exit = solved[cfg.exit][0]
        assert DefSite(-1, 0, "x") in at_exit

    def test_reaching_defs_kill(self):
        cfg = build_cfg(fun("int f() { x = 1; x = 2; return x; }"))
        solved = reaching_definitions(cfg)
        exit_defs = [d for d in solved[cfg.exit][0] if d.var == "x"]
        assert len(exit_defs) == 1  # second assignment killed the first

    def test_must_defined_branch_intersection(self):
        cfg = build_cfg(fun(
            "int f(bool b) { if (b) { x = 1; } return 0; }"))
        solved = must_defined(cfg)
        assert "x" not in solved[cfg.exit][0]
        assert "b" in solved[cfg.exit][0]

    def test_def_use_chain_loop_carried(self):
        cfg = build_cfg(fun(
            "int f(int n) { s = 0; for (i = 0; i < n; i += 1) "
            "{ s = s + i; } return s; }"))
        chains = def_use_chains(cfg)
        # The loop-body assignment to s is used (by itself and return).
        body_defs = [d for d, uses in chains.items()
                     if d.var == "s" and d.block != -1 and uses]
        assert body_defs


class TestLints:
    def test_unused_assignment(self):
        assert "SAC401" in codes("int f() { x = 1; y = 2; return y; }")

    def test_used_assignment_clean(self):
        assert "SAC401" not in codes("int f() { x = 1; return x; }")

    def test_unused_param_not_flagged(self):
        assert "SAC401" not in codes("int f(int x) { return 1; }")

    def test_loop_carried_not_flagged(self):
        src = ("int f(int n) { s = 0; for (i = 0; i < n; i += 1) "
               "{ s = s + i; } return s; }")
        assert "SAC401" not in codes(src)

    def test_unreachable(self):
        assert "SAC402" in codes("int f() { return 1; x = 2; }")

    def test_maybe_uninitialized(self):
        src = "int f(bool b) { if (b) { x = 1; } return x; }"
        assert "SAC403" in codes(src)

    def test_both_branches_clean(self):
        src = ("int f(bool b) { if (b) { x = 1; } else { x = 2; } "
               "return x; }")
        assert "SAC403" not in codes(src)

    def test_generator_shadowing(self):
        src = ("int f(int iv) { return with ([0] <= iv < [3]) "
               "fold(+, 0, iv[[0]]); }")
        assert "SAC404" in codes(src)

    def test_no_shadowing_clean(self):
        src = ("int f(int n) { return with ([0] <= iv < [n]) "
               "fold(+, 0, iv[[0]]); }")
        assert "SAC404" not in codes(src)

    def test_self_dependence_offset_read(self):
        src = ("double[+] f(double[+] a) { a = with ([1] <= iv < "
               "shape(a) - 1) modarray(a, a[iv - 1]); return a; }")
        assert "SAC405" in codes(src)

    def test_self_dependence_whole_read(self):
        src = ("double[+] f(double[+] a) { a = with ([1] <= iv < "
               "shape(a) - 1) modarray(a, sum(a)); return a; }")
        assert "SAC405" in codes(src)

    def test_point_read_accumulate_idiom_exempt(self):
        src = ("double[+] f(double[+] a) { a = with ([1] <= iv < "
               "shape(a) - 1) modarray(a, a[iv] * 2.0); return a; }")
        assert "SAC405" not in codes(src)

    def test_distinct_target_clean(self):
        src = ("double[+] f(double[+] a) { b = with ([1] <= iv < "
               "shape(a) - 1) modarray(a, a[iv - 1]); return b; }")
        assert "SAC405" not in codes(src)


# A WITH-loop whose generator variable ``iv`` shadows the parameter, and
# one statement that places it in each position a lint must reach.
_SHADOWING = "with ([0] <= iv < [3]) fold(+, 0, iv[[0]])"
_SHADOWING_AT = {
    "if-cond": f"if ({_SHADOWING} == 0) {{ x = 1; }}",
    "else": f"if (b) {{ x = 1; }} else {{ x = {_SHADOWING}; }}",
    "for-init": f"for (i = {_SHADOWING}; i < n; i += 1) {{ x = x + i; }}",
    "for-update": f"for (i = 0; i < n; i = i + {_SHADOWING}) {{ x = x + i; }}",
    "for-body": f"for (i = 0; i < n; i += 1) {{ x = x + {_SHADOWING}; }}",
    "while-body": f"while (x < n) {{ x = x + {_SHADOWING}; }}",
    "dowhile-body": f"do {{ x = x + {_SHADOWING}; }} while (x < n);",
    "call-arg": f"x = max({_SHADOWING}, n);",
    "withloop-body": f"x = with ([0] <= jv < [3]) fold(+, 0, {_SHADOWING});",
    "generator-bound": (f"x = with ([0] <= jv < [{_SHADOWING}]) "
                        f"fold(+, 0, jv[[0]]);"),
}

# ``a = with (...) modarray(a, <read>)`` with an offset read of ``a``,
# placed in each statement position, and the read in each expression
# position of the body.
_SELF_DEP = "a = with ([1] <= iv < shape(a) - 1) modarray(a, {read})"
_OFFSET = "a[iv - 1]"
_SELF_DEP_AT = {
    "then": f"if (b) {{ {_SELF_DEP}; }}",
    "else": f"if (b) {{ n = 1; }} else {{ {_SELF_DEP}; }}",
    "for-init": f"for ({_SELF_DEP}; n < 3; n += 1) {{ n = n; }}",
    "for-update": f"for (n = 0; n < 3; {_SELF_DEP}) {{ n = n; }}",
    "for-body": f"for (n = 0; n < 3; n += 1) {{ {_SELF_DEP}; }}",
    "while-body": f"while (n < 3) {{ {_SELF_DEP}; n = n + 1; }}",
    "dowhile-body": f"do {{ {_SELF_DEP}; }} while (b);",
    "call-arg": _SELF_DEP.replace("{read}", f"max({_OFFSET}, 0.0)") + ";",
    "withloop-body": _SELF_DEP.replace(
        "{read}", f"with ([0] <= jv < [3]) fold(+, 0.0, {_OFFSET})") + ";",
    "generator-bound": _SELF_DEP.replace(
        "{read}", f"with ([0] <= jv < [{_OFFSET}]) fold(+, 0.0, 1.0)") + ";",
}


class TestLintPositions:
    """SAC404 and SAC405 find their WITH-loop wherever it sits."""

    @pytest.mark.parametrize("stmt", list(_SHADOWING_AT.values()),
                             ids=list(_SHADOWING_AT))
    def test_generator_shadowing_anywhere(self, stmt):
        src = f"int f(int iv, int n, bool b) {{ x = 0; {stmt} return x; }}"
        assert codes(src).count("SAC404") == 1

    @pytest.mark.parametrize("stmt", list(_SELF_DEP_AT.values()),
                             ids=list(_SELF_DEP_AT))
    def test_self_dependence_offset_read_anywhere(self, stmt):
        stmt = stmt.replace("{read}", _OFFSET)
        src = (f"double[+] f(double[+] a, int n, bool b) {{ {stmt} "
               f"return a; }}")
        assert codes(src).count("SAC405") == 1

    def test_point_read_inside_nested_loop_exempt(self):
        stmt = _SELF_DEP.replace(
            "{read}", "with ([0] <= jv < [3]) fold(+, 0.0, a[iv])")
        src = f"double[+] f(double[+] a) {{ {stmt}; return a; }}"
        assert "SAC405" not in codes(src)


class TestSourcePosPropagation:
    """Every node the parser builds must carry a SourcePos."""

    def _walk(self, node, missing, seen):
        from dataclasses import fields, is_dataclass

        if id(node) in seen or not is_dataclass(node):
            return
        seen.add(id(node))
        if hasattr(node, "pos") and node.pos is None:
            missing.append(type(node).__name__)
        for f in fields(node):
            value = getattr(node, f.name)
            items = value if isinstance(value, tuple) else (value,)
            for item in items:
                if is_dataclass(item):
                    self._walk(item, missing, seen)

    def assert_all_positioned(self, program):
        missing: list[str] = []
        self._walk(program, missing, set())
        assert missing == []

    def test_small_program(self):
        src = ("int f(int n) { s = 0; for (i = 0; i < n; i += 1) "
               "{ s = s + i; } if (s > 3) { return s; } "
               "return with ([0] <= iv < [n] step [1] width [1]) "
               "fold(+, 0, iv[[0]]); }")
        self.assert_all_positioned(parse_program(src))

    def test_mg_program(self):
        from repro.mg_sac import mg_source_path

        self.assert_all_positioned(
            parse_program(mg_source_path().read_text()))

    def test_prelude(self):
        from repro.sac.stdlib import load_prelude

        self.assert_all_positioned(load_prelude())
