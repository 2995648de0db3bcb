"""No dead public code: every public function, class, method and property in
`src/shotbudget` is referenced somewhere else in the package, or is on the frozen list
of names that users and the acceptance criteria call.  Code that no production path
calls is deleted, with the tests that only exercise it (ROADMAP, quality aim)."""

import ast
import pathlib

import shotbudget

# Kept although no module calls them: the acceptance criteria's imports (ROADMAP), the
# row views README documents, and the dunders that Python's protocols call (copy and
# pickle, equality and hashing, repr, and PEP 562's module attribute hooks).
FROZEN = {
    "BlockSpec", "HardwareRates", "allocate", "fuchs_van_de_graaf_bounds", "shots_inverse_ideal",
    "shots_swap_ideal", "BudgetReport.allocations", "emit_curve",
    "ProgramSpec.blocks",
    "__reduce__", "__setstate__", "__eq__", "__hash__", "__repr__", "__getattr__", "__dir__",
}


def _public(name: str) -> bool:
    return not name.startswith("_") or name.startswith("__") and name.endswith("__") and name != "__init__"


def _definitions(tree):
    """(qualified name, plain name, the class body it sits in or None) of each public
    module-level function or class and each public method or property of a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node.name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, node


def _names(tree, kind) -> set[str]:
    return {node.id if kind is ast.Name else node.attr for node in ast.walk(tree) if isinstance(node, kind)}


def test_every_public_name_is_used_or_frozen():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(shotbudget.__file__).parent.glob("*.py"))]
    attributes = set().union(*(_names(tree, ast.Attribute) for tree in trees))
    names = set().union(*(_names(tree, ast.Name) for tree in trees))
    defined, unused = set(), []
    for tree in trees:
        for qualified, name, cls in _definitions(tree):
            defined |= {qualified, name}
            # a function or class is used by name or as a module attribute; a method or
            # property as an attribute, or by name in its own class body (an alias)
            used = name in attributes or (name in names if cls is None else name in _names(cls, ast.Name))
            if not used and qualified not in FROZEN and name not in FROZEN:
                unused.append(qualified)
    assert unused == [] and FROZEN <= defined, (unused, FROZEN - defined)
