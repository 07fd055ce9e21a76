"""Static checks on the library source, by ast (no linter is assumed).

Every module, and every test module, imports only names it uses, every
module the library imports, inside a function or not, is the standard
library, kmspec or a dependency declared in pyproject.toml, every function,
class and method it defines is named somewhere in the library or the
benchmark besides its
definition (a test or a re-export in kmspec/__init__.py does not count, so
code that only tests reach is reported), every parameter
with a default is set by some call (test_every_default_parameter_is_set),
every dataclass field and instance attribute is read somewhere in the
library or the benchmark (test_every_field_is_read; a read in a test does
not count, as for definitions), the scalar/array convention of beta evaluators
lives in one place, kmspec._arrays, and so does the log-sum-exp kernel; no
function is defined inside a loop.
Runtime guards check that every power sum of multisets is evaluated
through the one kernel `kmspec.expratio._log_power_sums`, and a basis
through none, that fit bases are shared within a build
and never across builds, and that the benchmark's tracer still finds every
library name it wraps and restores each class as it was.
"""

import ast
import importlib.util
import re
import sys
import tomllib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kmspec.expratio as ke
from kmspec.realize import build_realizable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kmspec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def _top_level_imports(tree):
    """The top-level module of every import, at any depth; a relative
    import is of kmspec itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = "kmspec" if node.level else node.module
            yield module.split(".")[0], node.lineno


def test_every_import_is_a_declared_dependency():
    # a module imported inside a function is still one the package needs:
    # it must be the standard library, kmspec or a declared dependency
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    allowed = set(sys.stdlib_module_names) | {"kmspec"} | declared
    undeclared = [f"{path.name}:{line} {module}"
                  for path in sorted(SRC.glob("*.py"))
                  for module, line in _top_level_imports(ast.parse(path.read_text()))
                  if module not in allowed]
    assert not undeclared, ("imports missing from [project].dependencies: "
                            f"{', '.join(undeclared)}")


def _definitions(tree):
    """Names of the functions, classes and methods a module defines, at any
    depth, except dunders, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _is_library(path):
    return path.parts[0] == "src" and path.name != "__init__.py"


def _unreferenced(files):
    """'module:line name' for each definition of a library module whose name
    occurs nowhere else in the library or the benchmark.

    files holds (path relative to the repo root, source text) pairs.  A word
    in a library module or under perfbench/ counts as a reference; one in a
    test or in the package's __init__.py does not, since a test or a
    re-export alone reaches the definition from no run."""
    words = Counter()
    for path, text in files:
        if _is_library(path) or path.parts[0] == "perfbench":
            words.update(re.findall(r"\w+", text))
    return [f"{path.name}:{line} {name}"
            for path, text in files if _is_library(path)
            for name, line in _definitions(ast.parse(text))
            if words[name] == 1]


def test_every_definition_is_referenced():
    # a definition whose name occurs nowhere else in the library or the
    # benchmark, not in a call or a docstring, is code that no run reaches
    unused = _unreferenced([(path.relative_to(ROOT), path.read_text())
                            for folder in ("src", "tests", "perfbench")
                            for path in (ROOT / folder).rglob("*.py")])
    assert not unused, f"defined but never referenced: {', '.join(unused)}"


def test_reference_from_tests_or_reexport_does_not_count():
    # the guard once counted tests and re-exports as references, and so
    # kept definitions that only tests reached
    files = [
        (Path("src/kmspec/m.py"),
         "def used():\n    pass\n\n\ndef tested():\n    pass\n\n\n"
         "def exported():\n    pass\n\n\ndef benched():\n    pass\n\n\n"
         "def run():\n    used()\n"),
        (Path("src/kmspec/__init__.py"), "from .m import exported\n"),
        (Path("tests/test_m.py"), "from kmspec.m import tested\n"),
        (Path("perfbench/spans.py"), "from kmspec.m import benched, run\n"),
    ]
    assert _unreferenced(files) == ["m.py:5 tested", "m.py:9 exported"]


def _defaulted_parameters(tree):
    """(call name, parameter, positional index, line) for every parameter
    with a default of a module-level function or method; an __init__ is
    called by its class name, and a method's positional index skips self
    or cls."""
    scopes = [(node, None) for node in tree.body]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            scopes += [(node, cls.name) for node in cls.body]
    for node, owner in scopes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if owner is not None and not static else 0
        name = owner if node.name == "__init__" else node.name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, i - skip, arg.lineno
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, arg.lineno


def _calls():
    """(callee name, call node) for every call in src, tests and perfbench."""
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Name):
                        yield func.id, node
                    elif isinstance(func, ast.Attribute):
                        yield func.attr, node


def _sets(call, param, index):
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_default_parameter_is_set():
    # a default that no call overrides is a constant spelled as an option:
    # every caller gets the same value, so the parameter should go
    calls = list(_calls())
    unset = [f"{path.name}:{line} {name}.{param}"
             for path in sorted(SRC.glob("*.py"))
             for name, param, index, line in _defaulted_parameters(
                 ast.parse(path.read_text()))
             if not any(callee == name and _sets(call, param, index)
                        for callee, call in calls)]
    assert not unset, f"parameters no call sets: {', '.join(unset)}"


def _is_initvar(annotation):
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id == "InitVar"


def _fields(tree):
    """(class, field, line) for every dataclass field and every attribute a
    method assigns on self."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in cls.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for node in cls.body:
                # an InitVar is a constructor argument, not a stored field
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and not _is_initvar(node.annotation)):
                    yield cls.name, node.target.id, node.lineno
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(method):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"):
                        yield cls.name, node.attr, node.lineno


def _read_in(tree):
    """Attribute names loaded in one module, and the strings of every tuple
    or list a for loop iterates (getattr tables).

    A load of self.<name> inside a __post_init__ does not count: checking a
    field as the object is built is not a use of it."""
    on_init = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "self"}
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in on_init):
            names.add(node.attr)
        elif isinstance(node, ast.For) and isinstance(node.iter, (ast.Tuple, ast.List)):
            names |= {e.value for e in node.iter.elts
                      if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return names


def _read_names():
    """Names read anywhere in src and perfbench, by _read_in; a read in a
    test reaches the field from no run."""
    return set().union(*(_read_in(ast.parse(path.read_text()))
                         for folder in ("src", "perfbench")
                         for path in (ROOT / folder).rglob("*.py")))


def test_every_field_is_read():
    # a field that is written but never read, or read only by tests, is
    # state no computation uses: it costs memory and a reader's attention
    # and certifies nothing
    read = _read_names()
    unread = sorted({f"{path.name}:{line} {cls}.{name}"
                     for path in SRC.glob("*.py")
                     for cls, name, line in _fields(ast.parse(path.read_text()))
                     if name not in read})
    assert not unread, f"fields never read: {', '.join(unread)}"


def test_field_checked_only_on_construction_is_unread():
    # the guard once counted a field's own validation as a read, and so
    # missed a window that was range-checked and then never used
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    width: int\n"
        "    size: InitVar[int]\n"
        "    def __post_init__(self, size):\n"
        "        if self.width < size:\n"
        "            raise ValueError\n")
    assert [name for _, name, _ in _fields(tree)] == ["width"]
    assert "width" not in _read_in(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scalar_epilogue_only_in_arrays(path):
    if path.name == "_arrays.py":
        return
    assert "ndim == 0" not in path.read_text(), (
        f"{path.name} repeats the scalar/array epilogue; decorate the "
        "evaluator with kmspec._arrays.scalar_or_array instead")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_logsumexp_kernel(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            names = {alias.name for alias in node.names}
            assert node.module != "scipy.special" and "logsumexp" not in names, (
                f"{path.name} imports from {node.module}; use "
                "kmspec._arrays.logsumexp")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("scipy.special") for a in node.names), (
                f"{path.name} imports scipy.special; use kmspec._arrays.logsumexp")


def test_one_power_sum_kernel(monkeypatch):
    # every power sum of multisets over a beta array goes through one
    # evaluator, one row per multiset; a basis and its design have a closed
    # form and make no kernel call at all
    calls = []
    original = ke._log_power_sums

    def counting(logs, exps, betas):
        calls.append(logs.shape[0])
        return original(logs, exps, betas)

    monkeypatch.setattr(ke, "_log_power_sums", counting)
    basis = ke.TranslatedKernelBasis(6.0, 1.0, 2)
    basis.design(np.linspace(-5.0, 5.0, 11))
    assert calls == []
    ke.WeightedMultiset({0: 1, 3: 2}).log_power_sum(0.5)
    assert calls == [1]
    fractions = tuple(ke.WeightedMultiset({u: 1}) for u in (1, -1, 0, 2))
    block = ke.PartitionedBlockSystem(t=2.0, fractions=fractions,
                                      scales=(3, 1, 2, 0), achieved_error=0.0)
    block.factor(np.linspace(-5.0, 5.0, 11))
    assert calls == [1, 4]


def test_no_function_defined_in_a_loop():
    # a closure made in a loop captures the loop variables late, unless
    # they are bound as default arguments; pass the values on instead
    found = sorted({f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}"
                    for path in MODULES
                    for loop in ast.walk(ast.parse(path.read_text()))
                    if isinstance(loop, (ast.For, ast.AsyncFor, ast.While))
                    for node in ast.walk(loop)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.Lambda))})
    assert not found, f"functions defined in a loop: {', '.join(found)}"


def test_each_build_makes_its_own_bases(monkeypatch):
    # bases are shared inside one build_realizable call only: a second,
    # identical build does the same basis work as the first
    inits = []
    original = ke.TranslatedKernelBasis.__init__

    def counting(self, *args, **kwargs):
        inits.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ke.TranslatedKernelBasis, "__init__", counting)

    def zeta(beta):
        b = np.asarray(beta, dtype=float)
        return np.maximum(np.abs(b) - 1.0, 0.0) / (2.0 * (1.0 + b * b))

    counts = []
    for _ in range(2):
        before = len(inits)
        build_realizable(zeta, a=3.0, stages=2, r_max=20.0, grid_n=201)
        counts.append(len(inits) - before)
    assert counts[0] == counts[1] > 0


def test_benchmark_tracer_installs_and_uninstalls():
    # the traced benchmark wraps library functions by name; a rename in the
    # library breaks it here rather than only when the benchmark runs
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    classes = (ke.WeightedMultiset, ke.TranslatedKernelBasis,
               ke.PartitionedBlockSystem)
    before = [dict(vars(cls)) for cls in classes]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ke.WeightedMultiset.log_power_sum is not before[0]["log_power_sum"]
        assert isinstance(vars(ke.TranslatedKernelBasis)["fit_coeffs"], staticmethod)
    finally:
        tracer.uninstall()
    # a staticmethod such as fit_coeffs comes back as the same staticmethod
    assert [dict(vars(cls)) for cls in classes] == before
