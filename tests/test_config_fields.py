"""Every field of a loop config is read somewhere in the package.

A config field that no code reads is a settable value that changes nothing.
This test parses ``src/psrlab`` and, in each function, finds the names bound
to a config instance: parameters annotated with the config class, results of
calling the class, and results (or the matching tuple element) of package
functions whose return annotation names it.  It then collects the attributes
read from those names, outside the config class itself.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "psrlab"
CONFIGS = ("OnlineConfig", "OfflineConfig")


def _modules() -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]


def _names(node: ast.AST | None) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node is not None else set()


def _fields(modules: list[ast.Module], cls: str) -> list[str]:
    for module in modules:
        for node in module.body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                return [s.target.id for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    raise AssertionError(f"class {cls} not found in {SRC}")


def _returning(modules: list[ast.Module], cls: str) -> dict[str, int | None]:
    """Functions whose return annotation names ``cls``: None for the class itself, else its tuple position."""
    out: dict[str, int | None] = {}
    for module in modules:
        for node in ast.walk(module):
            if not isinstance(node, ast.FunctionDef) or cls not in _names(node.returns):
                continue
            if isinstance(node.returns, ast.Name):
                out[node.name] = None
            elif isinstance(node.returns, ast.Subscript) and isinstance(node.returns.slice, ast.Tuple):
                for i, elt in enumerate(node.returns.slice.elts):
                    if isinstance(elt, ast.Name) and elt.id == cls:
                        out[node.name] = i
    return out


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _bound_names(func: ast.FunctionDef, cls: str, returning: dict[str, int | None]) -> set[str]:
    args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    bound = {a.arg for a in args if cls in _names(a.annotation)}
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        callee = _callee(node.value)
        for target in node.targets:
            if callee == cls or (callee in returning and returning[callee] is None):
                bound |= {target.id} if isinstance(target, ast.Name) else set()
            elif callee in returning and isinstance(target, ast.Tuple):
                elt = target.elts[returning[callee]]
                bound |= {elt.id} if isinstance(elt, ast.Name) else set()
    return bound


def read_fields(modules: list[ast.Module], cls: str) -> set[str]:
    """Attributes read from config instances in every package function outside the class."""
    returning = _returning(modules, cls)
    reads: set[str] = set()
    for module in modules:
        for top in module.body:
            if isinstance(top, ast.ClassDef) and top.name == cls:
                continue
            for func in (n for n in ast.walk(top) if isinstance(n, ast.FunctionDef)):
                bound = _bound_names(func, cls, returning)
                reads |= {
                    n.attr for n in ast.walk(func)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and isinstance(n.value, ast.Name) and n.value.id in bound
                }
    return reads


@pytest.mark.parametrize("cls", CONFIGS)
def test_every_config_field_is_read(cls):
    modules = _modules()
    fields = _fields(modules, cls)
    unread = [name for name in fields if name not in read_fields(modules, cls)]
    assert not unread, f"{cls} fields no package code reads: {unread}"
