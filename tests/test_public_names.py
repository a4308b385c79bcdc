"""Every public name the package declares resolves: each module's __all__,
and each name the top-level package re-exports; every public name, every
public class's constructor and every public method has a caller outside the
tests; every dataclass field is read; and every Legendre geometry is one a
run can use."""

import ast
import importlib
import pkgutil
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import bpalm
from bpalm import legendre
from bpalm.newton import REGIMES
from bpalm.penalty import CLOSED_FORMS
from test_benchmark_names import TRACER

MODULES = sorted(info.name for info in pkgutil.iter_modules(bpalm.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from bpalm.{module} import *", namespace)  # a stale __all__ entry raises here
    mod = importlib.import_module(f"bpalm.{module}")
    for name in getattr(mod, "__all__", []):
        assert namespace[name] is getattr(mod, name)


def test_top_level_exports_are_declared_public():
    tree = ast.parse(Path(bpalm.__file__).read_text(encoding="utf-8"))
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert exports
    for module, name in exports:
        mod = importlib.import_module(f"bpalm.{module}")
        assert name in mod.__all__, f"bpalm.{module}.{name}"
        assert getattr(bpalm, name) is getattr(mod, name)


def _module_bindings(tree: ast.Module, name: str) -> int:
    """How many module-level statements of ``tree`` define ``name``."""
    count = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            count += node.name == name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            # names bound inside tuple or list targets count too
            count += sum(
                isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store) and t.id == name
                for target in targets
                for t in ast.walk(target)
            )
    return count


REPO = Path(__file__).resolve().parents[1]
# the package's modules but its re-exports and the test oracle, which ROADMAP
# item 9 keeps in the package
SOURCES = [
    path for path in sorted((REPO / "src" / "bpalm").glob("*.py"))
    if path.name not in ("__init__.py", "oracle.py")
]


def _uses() -> Counter:
    """Identifier tokens in the package's code and in the benchmark harness's
    scripts: strings and comments are not uses."""
    tokens = Counter()
    for path in SOURCES + sorted((REPO / "perfbench").glob("*.py")):
        with tokenize.open(path) as fh:
            tokens.update(
                tok.string for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME
            )
    return tokens


def _public(path: Path) -> list[str]:
    return getattr(importlib.import_module(f"bpalm.{path.stem}"), "__all__", [])


def test_every_public_name_has_a_caller_outside_the_tests():
    # the name's own definition is not a use
    tokens = _uses()
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _public(path):
            if tokens[name] <= _module_bindings(tree, name):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"public names only tests call: {unused}"


def _methods():
    """(module, class, method node) for each method in a class body of the
    package, and how many function definitions of each name it holds; a
    definition of a function of the same name, in any class, is not a use."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]
    definitions = Counter(
        node.name for _, tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    methods = [
        (path, cls, node)
        for path, tree in trees
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return methods, definitions


def test_every_public_constructor_has_a_caller_outside_the_tests():
    # each classmethod or staticmethod of a public class
    tokens = _uses()
    methods, definitions = _methods()
    unused = []
    for path, cls, node in methods:
        decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
        if (
            cls.name in _public(path)
            and decorators & {"classmethod", "staticmethod"}
            and not node.name.startswith("_")
            and tokens[node.name] <= definitions[node.name]
        ):
            unused.append(f"{path.stem}.{cls.name}.{node.name}")
    assert unused == [], f"public constructors only tests call: {unused}"


def test_every_public_method_has_a_caller_outside_the_tests():
    """Each public method in the body of a class without a leading
    underscore has a caller token in the package or the benchmark harness's
    scripts; the methods perfbench/tracer.py's METHODS wraps count as used.

    Calls are matched by name alone, so a name that several classes share,
    such as ``value``, always reads as used once any of them is called.
    """
    tokens = _uses()
    traced = {entry[2] for entry in TRACER.METHODS}
    methods, definitions = _methods()
    unused = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path, cls, node in methods
        if not cls.name.startswith("_")
        and not node.name.startswith("_")
        and node.name not in traced
        and tokens[node.name] <= definitions[node.name]
    ]
    assert unused == [], f"public methods only tests call: {unused}"


def _reads() -> set[str]:
    """Every attribute name read and every string constant in the package's
    code, the tests and the benchmark harness's scripts."""
    paths = SOURCES + sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    reads = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    return reads


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _names_a_regime(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in REGIMES


def test_no_comparison_against_a_regime_name():
    """What a regime does is a column of `REGIMES`, never a test of its name:
    no REGIMES key anywhere in the package as an operand of ==, !=, in or
    not in, or as a subscript, such as a per-regime dict's key."""
    found = []
    for path in sorted((REPO / "src" / "bpalm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript):
                hit = _names_a_regime(node.slice)
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                hit = any(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                    and any(map(_names_a_regime, pair))
                    for op, pair in zip(node.ops, zip(operands, operands[1:]))
                )
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"regime names tested or used as keys: {found}"


def test_every_dataclass_field_is_read():
    """Each field of a dataclass in the package is read somewhere, as an
    attribute or by its name as a string (``getattr``, a CSV column); passing
    it to the constructor is not a read.  A field of that name read on any
    object counts."""
    reads = _reads()
    unread = [
        f"{path.stem}.{cls.name}.{node.target.id}"
        for path in SOURCES
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id not in reads
    ]
    assert unread == [], f"dataclass fields nothing reads: {unread}"


# the primal geometries outer._validate accepts: energy for an unboxed
# objective, the box barrier of a boxed one's box
RUN_PRIMALS = {"energy", "box_barrier"}


def test_every_geometry_is_usable_by_a_run():
    """Each public Legendre geometry is a primal a run accepts or the dual
    of some closed-form penalty; any other could only be reached by tests."""
    duals = {kind for _, kind in CLOSED_FORMS}
    classes = {
        obj for name, obj in vars(legendre).items()
        if isinstance(obj, type) and issubclass(obj, legendre.LegendreFunction)
        and obj is not legendre.LegendreFunction and not name.startswith("_")
    }
    unusable = sorted(cls.__name__ for cls in classes if cls.kind not in RUN_PRIMALS | duals)
    assert unusable == [], f"geometries no run can use: {unusable}"
