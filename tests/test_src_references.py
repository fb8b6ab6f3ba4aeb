"""Every function, class and method in the package is used by the package or the benchmark.

A definition that only tests call is a second path to keep correct, not a
part of the system.  This test parses ``src/psrlab`` (without
``__init__.py``, whose re-exports are not uses) and ``perfbench/``, and
counts a definition as used when its name is referenced in package code
outside every definition of that name (so recursion and a method
delegating to its namesake do not count), in ``perfbench/``, or as a
string in the tracer's ``ENTRY_POINTS``.  A function or class is
referenced by a bare name or an attribute; a method or property only by an
attribute (``x.name``), since a local variable of the same spelling does
not call it.  Dunder methods and click commands are entry points of their
own.  Anything else
must be in ``ALLOWED``, with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "psrlab"
PERFBENCH = ROOT / "perfbench"

# Kept without a caller in the package, each for the reason given.  Keys are
# ``function``, ``Class.method``, or a bare method name for every class that defines it.
ALLOWED = {
    "FeatureGram.condition_number": "kept for the run trace's gram conditioning counter",
}


def _references(tree: ast.AST, method: bool) -> Counter:
    """Spellings referenced in ``tree``: as attributes only if ``method``, else as attributes and bare names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Name) and not method:
            out[node.id] += 1
    return out


def _is_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", ())
    )


def definitions(modules: dict[str, ast.Module]) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, bare name, node) of each top-level function and class and each non-dunder method."""
    out = []
    for module in modules.values():
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_command(node):
                continue
            out.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{node.name}.{sub.name}", sub.name, sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
    return out


def perfbench_references(method: bool) -> Counter:
    out = Counter()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out += _references(tree, method)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets):
                out += Counter(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return out


def unused_definitions() -> list[str]:
    modules = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    defs = definitions(modules)
    unused = []
    for method in (False, True):
        everywhere = sum((_references(m, method) for m in modules.values()), Counter())
        group = [(qualified, name, node) for qualified, name, node in defs if ("." in qualified) == method]
        within_namesakes = Counter()  # references to a name inside the definitions of that name
        for _, name, node in group:
            within_namesakes[name] += _references(node, method)[name]
        outside = perfbench_references(method)
        unused += [
            qualified for qualified, name, _ in group
            if everywhere[name] - within_namesakes[name] <= 0 and not outside[name]
        ]
    return unused


def test_every_definition_is_used_or_allowed():
    unused = unused_definitions()
    stray = [q for q in unused if q not in ALLOWED and q.rpartition(".")[2] not in ALLOWED]
    assert not stray, f"defined in src/psrlab but used only by tests: {stray}"


def test_every_allowed_name_is_defined_and_unused():
    unused = unused_definitions()
    stale = [key for key in ALLOWED if not any(q == key or q.rpartition(".")[2] == key for q in unused)]
    assert not stale, f"allowed names that are used or gone (remove them from ALLOWED): {stale}"
