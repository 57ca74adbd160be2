"""Every public function and class of the library has a user.

A public name that only its own unit test reaches is dead weight: this
scan fails on one and names it.  Users are the library itself, the
acceptance criteria and the benchmark harness; unit tests do not count.
``fusion`` is not scanned: its algebra is public for the fusion-law tests.

Every function of ``tests/reference_loops.py`` has a caller too: a test
that uses it through the module, or another reference function.  A
reference that nothing compares against is dead weight.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tokengossip"
SCANNED_MODULES = ("analysis", "engine", "experiments", "graph", "protocols")


def _users() -> list:
    return (sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
            + sorted((ROOT / "perfbench").glob("*.py")))


def _referenced_names() -> set:
    """Every Name, attribute and from-import (outside ``__init__``) in the users."""
    names = set()
    for path in _users():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names.update(alias.name for alias in node.names)
    return names


def _public_definitions(module: str) -> list:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def test_every_public_name_has_a_user():
    referenced = _referenced_names()
    unused = [f"{module}.{name}" for module in SCANNED_MODULES
              for name in _public_definitions(module) if name not in referenced]
    assert unused == [], f"public names with no user outside their unit tests: {unused}"


def test_every_reference_loop_has_a_caller():
    tests = ROOT / "tests"
    used = set()
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if path.name == "reference_loops.py" and isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "reference_loops"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "reference_loops":
                used.update(alias.name for alias in node.names)
    defined = [node.name for node in ast.parse((tests / "reference_loops.py").read_text()).body
               if isinstance(node, ast.FunctionDef)]
    unused = [name for name in defined if name not in used]
    assert unused == [], f"reference loops that no test calls: {unused}"
