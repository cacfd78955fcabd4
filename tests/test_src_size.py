"""tools/src_size.py counts what its docstring says."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "src_size", ROOT / "tools" / "src_size.py")
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)

SOURCE = '''"""A module docstring
on two lines."""
# a comment line
import os  # a trailing comment is on a code line


class A:
    """A class docstring."""
    x = "# in a string, not a comment"

    def f(self):
        """A function docstring."""
        "a string after the docstring is a statement"
        return os.sep
'''


def test_size_counts_lines_statements_and_doc_lines():
    # statements: import, class, x =, def, the second string, return;
    # doc/comment lines: the three docstrings' four lines and the comment
    assert src_size.size(SOURCE) == (14, 6, 5)


def test_table_of_two_trees_reads_before_and_after():
    one = {"src/icnlab": {"a.py": (10, 4, 2)}, "perfbench": {}}
    two = {"src/icnlab": {"a.py": (8, 3, 2), "b.py": (5, 1, 0)},
           "perfbench": {"run.py": (1, 1, 0)}}
    assert src_size.table(one, two).splitlines()[2:] == [
        "| `src/icnlab/a.py` | 10 → 8 | 4 → 3 | 2 → 2 |",
        "| `src/icnlab/b.py` | 0 → 5 | 0 → 1 | 0 → 0 |",
        "| **`src/icnlab/` total** | **10 → 13** | **4 → 4** | **2 → 2** |",
        "| `perfbench/run.py` | 0 → 1 | 0 → 1 | 0 → 0 |",
        "| **`perfbench/` total** | **0 → 1** | **0 → 1** | **0 → 0** |",
    ]


def test_a_root_without_the_library_is_an_error(tmp_path, capsys):
    assert src_size.main([str(tmp_path)]) == 2
    assert "no src/icnlab under" in capsys.readouterr().err
