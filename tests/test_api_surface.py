"""Every public name of neuspec is reached by the package itself.

A name listed in a module's ``__all__`` must be imported or loaded by code
somewhere under ``src/neuspec``, outside its own definition and outside
``__all__``; a mention in a docstring does not count.  The acceptance suite
checks a few definitions of the paper directly, and only those are exempt.
Likewise every public method or property of a class must be reached as
``.name`` by code under ``src/neuspec``, outside its own definition.  And
every name a module imports must be loaded in that module or listed in its
``__all__``, unless the benchmark's tracer wraps it there.  And every name
a module assigns at its top level, other than ``__all__``, must be loaded
by code somewhere under ``src/neuspec``.
"""

import ast
from collections import Counter
from pathlib import Path

from conftest import benchmark_spans

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "neuspec"

# name -> the test that imports it
ACCEPTANCE_ONLY = {
    "bessel_j": "test_acceptance.py::test_criterion_9_special_function_suites",
    "bessel_j_prime": "test_acceptance.py::test_criterion_9_special_function_suites",
    "radial_profile_second": "test_acceptance.py::test_criterion_9_special_function_suites",
    "upsilon1_ball": "test_acceptance.py (EXACT_UPS1, the paper's value on the unit disk)",
}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _uses(module, tree):
    """(module, enclosing top-level definition or None, name) per use."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((module, owner, node.id))
            elif isinstance(node, ast.ImportFrom):
                out.extend((module, owner, alias.name) for alias in node.names)
    return out


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = [use for module, tree in trees.items() for use in _uses(module, tree)]
    idle = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exported(tree)
        if name not in ACCEPTANCE_ONLY
        and not any(n == name and (m, owner) != (module, name) for m, owner, n in uses)
    ]
    assert not idle, f"public names that nothing in src/neuspec reaches: {idle}"


def _attributes(node):
    """How often each name is reached as .name within node."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_member_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reached = sum((_attributes(tree) for tree in trees.values()), Counter())
    idle = [
        f"{module}.{cls.name}.{member.name}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and reached[member.name] <= _attributes(member)[member.name]
    ]
    assert not idle, f"public methods and properties that nothing in src/neuspec reaches: {idle}"


def _unused_imports(tree):
    """The names the module's imports bind that it never loads or exports."""
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - loaded - set(_exported(tree))


def test_every_import_is_used():
    # the tracer wraps re-imports that their module never calls, such as
    # meshing.point_in_polygon
    wrapped = {(module, attribute) for module, attribute, _ in benchmark_spans().TARGETS}
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sorted(_unused_imports(ast.parse(path.read_text())))
        if (f"neuspec.{path.stem}", name) not in wrapped
    ]
    assert not unused, f"imported names that nothing in their module uses: {unused}"


def _assigned(tree):
    """The names the module's top-level statements assign, other than __all__."""
    targets = [
        target
        for node in tree.body
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
    ]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)} - {"__all__"}


def test_every_module_level_name_is_loaded():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = {name for module, tree in trees.items() for _, _, name in _uses(module, tree)}
    idle = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in sorted(_assigned(tree))
        if name not in loaded
    ]
    assert not idle, f"module-level names that nothing in src/neuspec loads: {idle}"
