"""Every function in the library has a caller outside the test suite.

A function or method under src/icnlab (dunders exempt) must be referenced,
as a Name or an Attribute, from src/ outside its own body, or from a
perfbench/*.py script.  A name that only tests reach belongs in tests/, as
an oracle beside tests/scalar_ops.py, or nowhere.  The check reads the
source and matches names, not bindings, so a method counts as referenced
when any attribute of that name appears.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "icnlab").glob("*.py"))
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))


def _referenced(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every Name and Attribute in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
    return found


def _uncalled() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    in_src = {path: _referenced(tree) for path, tree in trees.items()}
    in_scripts = {name for path in SCRIPTS
                  for name, _ in _referenced(ast.parse(path.read_text()))}
    uncalled = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if name in in_scripts or any(
                ref == name and not (other == path and line in own)
                for other, refs in in_src.items() for ref, line in refs
            ):
                continue
            uncalled.append(f"{path.name}:{node.lineno} {name}")
    return uncalled


def test_every_library_function_has_a_caller_outside_tests():
    assert _uncalled() == []
