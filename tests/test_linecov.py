"""tools/linecov.py reports the lines that a run never executed."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "linecov", ROOT / "tools" / "linecov.py")
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

MODULE = '''"""A module docstring."""
# a comment


def sign(x):
    """A function docstring."""
    if x < 0:
        return -1
    return 1


def unused(
    x,
):
    return [
        x,
    ]
'''


def test_executable_lines_skip_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    # the docstring's store, the defs, and the bodies' code lines
    assert linecov.executable_lines(path) == {1, 5, 7, 8, 9, 12, 15, 16}


def test_missed_lines_of_a_small_module(tmp_path, monkeypatch):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    (package / "idle.py").write_text("X = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "pkg.mod", raising=False)
    before = sys.gettrace()

    def run():
        from pkg import mod
        return mod.sign(2)

    result, missed = linecov.missed_lines(package, run)
    assert result == 1
    assert sys.gettrace() is before
    # sign(-1) and every line of unused's body never ran, and idle.py was
    # never imported
    assert {Path(path).name: lines for path, lines in missed.items()} == {
        "idle.py": [1], "mod.py": [8, 15, 16]}
