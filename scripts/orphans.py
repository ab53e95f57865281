#!/usr/bin/env python
"""Print what under ``src/repro`` no solve, figure or measurement reads,
and exit 1 if anything was printed (CI's "Source size" step runs it):

(a) a module whose importers are all under ``tests/``.  A name imported
    from a package counts for the module its ``__init__`` took it from;
    that ``__init__`` counts only where it uses the name itself.
(b) a top-level ``def``/``class``, or a method of a top-level class,
    whose name no ``.py`` file of the repository uses, ``__all__`` and
    ``__init__`` re-exports aside.  ``__dunder__`` methods are Python's,
    and ``<string constant><class name>`` is a visitor's dispatch.
(c) a ``REPRO_*`` environment variable ``src/`` names that nothing under
    ``.github/``, ``benchmarks/``, ``scripts/`` or ``examples/`` sets.
(d) a field of a ``@dataclass`` whose name no ``.py`` file of the
    repository reads as an attribute or names in a string constant
    (``stats.bump("checkpoints")``, ``getattr``).
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETTERS = (".github", "benchmarks", "scripts", "examples")


def module_of(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(path: Path, tree: ast.AST):
    """``(module, name or None)`` per imported name, made absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = [node.module] if node.module else []
            if node.level and SRC in path.parents:
                here = module_of(path).split(".")
                up = node.level - (path.name == "__init__.py")
                base = here[:len(here) - up] + base
            yield from ((".".join(base), a.name) for a in node.names)


def dataclass_fields(tree: ast.AST):
    """``(class, field)`` nodes of every ``@dataclass`` in ``tree``."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and "dataclass" in {
                ast.unparse(getattr(d, "func", d)).rpartition(".")[2]
                for d in cls.decorator_list}:
            yield from ((cls, n) for n in cls.body
                        if isinstance(n, ast.AnnAssign)
                        and isinstance(n.target, ast.Name))


def main() -> int:
    trees = {p: ast.parse(p.read_text(), str(p))
             for d in ("src", "tests", "benchmarks", "scripts", "examples")
             for p in sorted((ROOT / d).rglob("*.py"))}
    modules = {p: module_of(p) for p in trees if SRC in p.parents}
    inits = {p: m for p, m in modules.items() if p.name == "__init__.py"}
    # "package.name" -> "module.name" for what an __init__ imports.
    origin = {f"{pkg}.{name}": f"{base}.{name}" for p, pkg in inits.items()
              for base, name in imported_names(p, trees[p])
              if name and base != pkg}
    importers, used, strings, classes, env = {}, set(), set(), set(), set()
    reads = set()
    for p, t in trees.items():
        nodes = list(ast.walk(t))
        loads = {n.id for n in nodes if isinstance(n, ast.Name)}
        used |= loads | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        reads |= {n.attr for n in nodes if isinstance(n, ast.Attribute)
                  and not isinstance(n.ctx, ast.Store)}
        classes |= {n.name for n in nodes if isinstance(n, ast.ClassDef)}
        consts = {n.value for n in nodes if isinstance(n, ast.Constant)
                  and isinstance(n.value, str)}
        strings |= consts
        if p in modules:
            env |= {c for c in consts if re.fullmatch("REPRO_[A-Z0-9_]+", c)}
        for base, name in imported_names(p, t):
            full = f"{base}.{name}" if name else base
            while full in origin:
                full = origin[full]
            for m in {base, full, full.rpartition(".")[0]}:
                if name in loads or m.rpartition(".")[0] != inits.get(p):
                    importers.setdefault(m, set()).add(p)
            if name and p not in inits:
                used.add(name)

    def unread(name: str) -> bool:
        return (name not in used and not name.startswith("__")
                and not any(name.endswith(c) and name[:-len(c)] in strings
                            for c in classes))

    found = []
    for p, m in modules.items():
        if p.name not in ("__init__.py", "__main__.py") and all(
                ROOT / "tests" in u.parents for u in importers.get(m, ())):
            found.append(f"{m}: imported by nothing outside tests/")
        defs = [n for node in trees[p].body for n in [node] + (
            node.body if isinstance(node, ast.ClassDef) else [])]
        found += [f"{m}: {n.name} (line {n.lineno}) has no reader"
                  for n in defs if isinstance(
                      n, (ast.FunctionDef, ast.ClassDef)) and unread(n.name)]
    set_text = "".join(f.read_text(errors="ignore") for d in SETTERS
                       for f in sorted((ROOT / d).rglob("*")) if f.is_file())
    found += [f"{s}: named under src/, set nowhere under {', '.join(SETTERS)}"
              for s in sorted(env) if not re.search(rf"\b{s}\b", set_text)]
    found += [f"{m}: {c.name}.{f.target.id} (line {f.lineno}) has no reader"
              for p, m in modules.items() for c, f in dataclass_fields(trees[p])
              if f.target.id not in reads | strings]
    print("".join(line + "\n" for line in found), end="")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
