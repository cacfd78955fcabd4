"""The size of the library and of the benchmark scripts, module by module.

    python3 tools/src_size.py [ROOT] [OTHER_ROOT]

prints a Markdown table with a row for each module of src/icnlab and each
perfbench/*.py script, and a total for each of the two: its lines, its
statements and its doc/comment lines.  A statement is every ast.stmt that
is not a docstring; a doc/comment line is a line of a docstring or a line
that holds only a comment.  ROOT is the checkout to measure, by default the
one that holds this script.  Given OTHER_ROOT as well, each cell reads
"ROOT's figure → OTHER_ROOT's figure", and a module missing from one side
counts 0 there.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

GROUPS = ("src/icnlab", "perfbench")
COLUMNS = ("lines", "statements", "doc/comment lines")


def size(source: str) -> tuple[int, int, int]:
    """(lines, statements, doc/comment lines) of one module's source."""
    tree = ast.parse(source)
    docstrings = [
        node.body[0] for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    ]
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    doc_lines = {line for node in docstrings
                 for line in range(node.lineno, node.end_lineno + 1)}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if (token.type == tokenize.COMMENT
                and not token.line[:token.start[1]].strip()):
            doc_lines.add(token.start[0])
    return (len(source.splitlines()), statements - len(docstrings),
            len(doc_lines))


def sizes(root: Path) -> dict[str, dict[str, tuple[int, int, int]]]:
    """{group: {module file name: size}} of the checkout at root."""
    return {group: {path.name: size(path.read_text())
                    for path in sorted((root / group).glob("*.py"))}
            for group in GROUPS}


def table(*trees: dict) -> str:
    """The Markdown table of one or two trees' sizes."""
    def cell(values):
        return " → ".join(str(value) for value in values)

    rows = [f"| module | {' | '.join(COLUMNS)} |",
            "| --- |" + " --- |" * len(COLUMNS)]
    for group in GROUPS:
        names = sorted({name for tree in trees for name in tree[group]})
        totals = [[0] * len(COLUMNS) for _ in trees]
        for name in names:
            figures = [tree[group].get(name, (0,) * len(COLUMNS))
                       for tree in trees]
            for total, figure in zip(totals, figures):
                total[:] = map(sum, zip(total, figure))
            rows.append(f"| `{group}/{name}` | " + " | ".join(
                cell(column) for column in zip(*figures)) + " |")
        rows.append(f"| **`{group}/` total** | " + " | ".join(
            f"**{cell(column)}**" for column in zip(*totals)) + " |")
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    roots = argv or [str(Path(__file__).resolve().parent.parent)]
    if len(roots) > 2:
        print("usage: src_size.py [ROOT] [OTHER_ROOT]", file=sys.stderr)
        return 2
    for root in roots:
        if not (Path(root) / GROUPS[0]).is_dir():
            print(f"src_size.py: no {GROUPS[0]} under {root}", file=sys.stderr)
            return 2
    print(table(*(sizes(Path(root)) for root in roots)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
