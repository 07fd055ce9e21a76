"""Static checks on the library source, by ast (no linter is assumed).

Every module imports only names it uses, and the scalar/array convention of
beta evaluators lives in one place, kmspec._arrays.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kmspec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """Names bound by import statements, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _annotation_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """Names read anywhere, including inside string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotation_nodes(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scalar_epilogue_only_in_arrays(path):
    if path.name == "_arrays.py":
        return
    assert "ndim == 0" not in path.read_text(), (
        f"{path.name} repeats the scalar/array epilogue; decorate the "
        "evaluator with kmspec._arrays.scalar_or_array instead")
