"""Static import guard: every intra-package import in web_crawler_ray —
module-level or lazy inside a function — names a module that exists and
names that module defines. Lazy imports (dedup -> graph / relational /
shuffles, queries -> stages) otherwise fail only when their code path
runs."""

import ast
from collections import Counter
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "web_crawler_ray"


def _module_path(dotted: str) -> Path | None:
    base = PKG.parent.joinpath(*dotted.split("."))
    if (base / "__init__.py").exists():
        return base / "__init__.py"
    if base.with_suffix(".py").exists():
        return base.with_suffix(".py")
    return None


def _top_level_names(path: Path) -> set[str]:
    names: set[str] = set()
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        st = stack.pop()
        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
            names.add(st.name)
        elif isinstance(st, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in st.names)
        elif isinstance(st, (ast.If, ast.Try, ast.With, ast.For)):
            stack.extend(ast.iter_child_nodes(st))
        else:
            names.update(n.id for n in ast.walk(st)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store))
    return names


def _package_imports():
    """(importing file, line, target module, imported names)."""
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG.parent).with_suffix("")
        package = list(rel.parts[:-1])
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    base = package[:len(package) - (node.level - 1)]
                    mod = ".".join(base + (node.module.split(".")
                                           if node.module else []))
                elif (node.module or "").startswith("web_crawler_ray"):
                    mod = node.module
                else:
                    continue
                yield path, node.lineno, mod, [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("web_crawler_ray"):
                        yield path, node.lineno, a.name, []


IMPORTS = list(_package_imports())


def test_guard_sees_lazy_imports():
    # dedup.py resolves clusters through graph.connected_components
    # imported inside a function; the walk must reach such imports
    assert any(p.name == "dedup.py" and m.endswith("stages.graph")
               for p, _, m, _ in IMPORTS)


def test_every_package_import_resolves():
    bad = []
    for path, line, mod, names in IMPORTS:
        where = f"{path.relative_to(PKG.parent)}:{line}"
        target = _module_path(mod)
        if target is None:
            bad.append(f"{where}: no module {mod}")
            continue
        defined = _top_level_names(target)
        missing = [n for n in names
                   if n != "*" and n not in defined
                   and _module_path(f"{mod}.{n}") is None]
        if missing:
            bad.append(f"{where}: {mod} does not define {missing}")
    assert not bad, "\n".join(bad)


ROOT = PKG.parent


def _sources():
    for d in ("web_crawler_ray", "tools", "perfbench", "tests"):
        yield from sorted((ROOT / d).rglob("*.py"))
    yield ROOT / "bench.py"
    yield ROOT / "__ray_entry__.py"


def _names(tree) -> Counter:
    """Every Name id, Attribute attr and import alias in ``tree``."""
    seen = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            seen[n.id] += 1
        elif isinstance(n, ast.Attribute):
            seen[n.attr] += 1
        elif isinstance(n, ast.alias):
            seen.update(n.name.split("."))
            if n.asname:
                seen[n.asname] += 1
    return seen


def test_every_top_level_def_is_referenced():
    # a package function or class that nothing names outside its own
    # def (package, tools, perfbench, tests, entry points) is dead code
    trees = {p: ast.parse(p.read_text()) for p in _sources()}
    total = sum((_names(t) for t in trees.values()), Counter())
    dead = [f"{p.relative_to(ROOT)}:{d.lineno} {d.name}"
            for p, t in trees.items() if p.is_relative_to(PKG)
            for d in t.body
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and total[d.name] == _names(d)[d.name]]
    assert not dead, "\n".join(dead)
