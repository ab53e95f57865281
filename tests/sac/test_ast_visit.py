"""The shared AST visitor/walker base (repro.sac.ast_visit)."""

import pytest

from repro.sac import parse_expression, parse_program
from repro.sac.ast_nodes import BinOp, IntLit, Var, WithLoop
from repro.sac.ast_visit import (
    ExprDispatcher,
    ReturnValue,
    StatementExecutor,
    assigned_names,
    iter_child_exprs,
    iter_child_nodes,
    map_child_exprs,
    map_stmt_exprs,
    mentions,
    walk,
    walk_exprs,
)
from repro.sac.errors import SacRuntimeError


class TestWalkers:
    def test_iter_child_nodes_binop(self):
        e = parse_expression("a + b * 2")
        kids = list(iter_child_nodes(e))
        assert len(kids) == 2
        assert isinstance(kids[0], Var)
        assert isinstance(kids[1], BinOp)

    def test_iter_child_exprs_filters_non_exprs(self):
        e = parse_expression(
            "with ([0] <= iv < [9]) genarray([9], iv[0] + 1)"
        )
        # Of a WithLoop's two children, the Generator is an Expr
        # subclass but the genarray operation is a plain carrier Node.
        kinds = [type(n).__name__ for n in iter_child_nodes(e)]
        assert kinds == ["Generator", "GenarrayOp"]
        kinds = [type(n).__name__ for n in iter_child_exprs(e)]
        assert kinds == ["Generator"]

    def test_walk_children_before_parents(self):
        e = parse_expression("a + b")
        nodes = list(walk(e))
        assert nodes[-1] is e
        assert {n.name for n in nodes if isinstance(n, Var)} == {"a", "b"}

    def test_walk_exprs_descends_into_withloop(self):
        e = parse_expression(
            "with ([0] <= iv < [n]) genarray([n], x + iv[0])"
        )
        names = {n.name for n in walk_exprs(e) if isinstance(n, Var)}
        assert {"n", "x", "iv"} <= names

    def test_map_child_exprs_identity_preserving(self):
        e = parse_expression("a + b")
        assert map_child_exprs(e, lambda x: x) is e

    def test_map_child_exprs_rebuilds_changed(self):
        e = parse_expression("a + b")
        out = map_child_exprs(
            e, lambda x: IntLit(7) if isinstance(x, Var) else x
        )
        assert out is not e
        assert isinstance(out.left, IntLit) and isinstance(out.right, IntLit)

    def test_map_child_exprs_descends_carriers(self):
        e = parse_expression(
            "with ([0] <= iv < [9]) genarray([9], a)"
        )
        assert isinstance(e, WithLoop)
        out = map_child_exprs(
            e,
            lambda x: Var("b") if isinstance(x, Var) and x.name == "a" else x,
        )
        names = {n.name for n in walk_exprs(out) if isinstance(n, Var)}
        assert "b" in names and "a" not in names


def _body(stmts: str):
    src = f"int f(int n, bool b, bool c) {{ {stmts} return 0; }}"
    return parse_program(src).functions[0].body


class TestNames:
    @pytest.mark.parametrize("stmts, names", [
        ("for (i = 0; i < n; j = i + 1) { s = 1; }", {"i", "j", "s"}),
        ("if (b) { x = 1; } else { y = 2; }", {"x", "y"}),
        ("while (b) { w = 1; }", {"w"}),
        ("do { d = 1; } while (b);", {"d"}),
        ("if (b) { while (c) { for (i = 0; i < n; i += 1) "
         "{ do { z = 1; } while (c); } } }", {"i", "z"}),
        ("x = with ([0] <= iv < [3]) genarray([3], 0);", {"x"}),
    ], ids=["for-init-update", "if-else", "while", "dowhile", "nested",
            "generator-var"])
    def test_assigned_names(self, stmts, names):
        assert assigned_names(_body(stmts)) == names

    def test_mentions_is_binding_blind(self):
        e = parse_expression("with ([0] <= iv < [n]) fold(+, 0, iv[[0]] + n)")
        assert mentions(e) == {"iv": 1, "n": 2}
        assert mentions(None, e, e)["n"] == 4

    def test_map_stmt_exprs_visits_fields_in_order(self):
        body = _body("for (i = a; b; j = c) { x = d; } do { y = e; } "
                     "while (g); if (h) { z = k; } else { z = m; }")
        seen = []

        def record(e):
            if isinstance(e, Var):
                seen.append(e.name)
            return e

        map_stmt_exprs(body, record)
        assert seen == list("abcdeghkm")


class _ConstEvaluator(ExprDispatcher):
    """Minimal dispatcher: integers and addition only."""

    def eval_IntLit(self, expr, env):
        return expr.value

    def eval_Var(self, expr, env):
        return env[expr.name]

    def eval_BinOp(self, expr, env):
        left = self.eval_expr(expr.left, env)
        right = self.eval_expr(expr.right, env)
        assert expr.op == "+"
        return left + right


class TestExprDispatcher:
    def test_dispatch_by_class_name(self):
        ev = _ConstEvaluator()
        assert ev.eval_expr(parse_expression("1 + 2 + x"), {"x": 4}) == 7

    def test_unknown_expr_raises(self):
        ev = _ConstEvaluator()
        with pytest.raises(SacRuntimeError, match="unknown expression"):
            ev.eval_expr(parse_expression("1.5"), {})

    def test_dispatch_table_shared_per_class(self):
        a, b = _ConstEvaluator(), _ConstEvaluator()
        a.eval_expr(parse_expression("1"), {})
        b.eval_expr(parse_expression("2"), {})
        table = _ConstEvaluator.__dict__["_expr_dispatch_table"]
        assert IntLit in table


class _MiniExec(StatementExecutor):
    """Integer statement machine over a plain dict environment."""

    def eval_IntLit(self, expr, env):
        return expr.value

    def eval_Var(self, expr, env):
        return env[expr.name]

    def eval_BinOp(self, expr, env):
        left = self.eval_expr(expr.left, env)
        right = self.eval_expr(expr.right, env)
        return {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "<": lambda: left < right,
            "<=": lambda: left <= right,
        }[expr.op]()

    def bind(self, env, name, value):
        env[name] = value

    def exec_cond(self, expr, env, what):
        return bool(self.eval_expr(expr, env))


def _run_body(source: str, **env):
    prog = parse_program(f"int f() {{ {source} }}")
    ex = _MiniExec()
    try:
        ex.exec_block(prog.functions[0].body, env)
    except ReturnValue as rv:
        return rv.value
    raise AssertionError("function did not return")


class TestStatementExecutor:
    def test_assign_and_return(self):
        assert _run_body("x = 2; y = x * 3; return y;") == 6

    def test_if_else(self):
        src = "if (x < 3) { r = 1; } else { r = 2; } return r;"
        assert _run_body(src, x=1) == 1
        assert _run_body(src, x=5) == 2

    def test_for_loop(self):
        src = "s = 0; for (i = 0; i < 5; i += 1) { s = s + i; } return s;"
        assert _run_body(src) == 10

    def test_while_and_dowhile(self):
        src = "s = 0; while (s < 7) { s = s + 3; } return s;"
        assert _run_body(src) == 9
        src = "s = 0; do { s = s + 3; } while (s < 3); return s;"
        assert _run_body(src) == 3

    def test_return_value_carries_value(self):
        rv = ReturnValue(41)
        assert rv.value == 41
