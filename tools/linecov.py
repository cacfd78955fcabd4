"""The lines of the library that a test run never executes.

    python3 tools/linecov.py [PYTEST_ARGS ...]

runs pytest in this process, by default on the whole suite, with every line
of src/icnlab traced by sys.settrace, and prints each executable line of
src/icnlab that the run never executed, as "path:line: source", then a
count.  It exits with pytest's exit code.  A line is executable when the
compiled module has code on it (its code objects' co_lines), so docstrings,
comments and blank lines never count.

Only this process is traced.  Code that runs only in the ``python -m
icnlab`` subprocesses of the CLI tests (``run_cli``) shows as missed: on
the whole suite that is ``__main__.py``, the ``sys.exit(main())`` line of
``cli.py``, ``_items``' error on an unknown name and ``cmd_sweep``'s
OSError from the cache directory.  So does a branch that only another
Python version takes, such as ``analysis``' ``_sha2`` import.  The tracer
makes the suite about half again as slow (62-67 s against 35-46 s on a
shared 2-vCPU VM), so this is a tool to run by hand, not a CI step.
"""
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icnlab"


def executable_lines(path: Path) -> set[int]:
    """The lines of the module at path that its compiled code is on."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        # a module's code starts on a line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts
                 if isinstance(const, types.CodeType)]
    return lines


def missed_lines(package: Path, run):
    """Call run() with the modules of the package directory traced line by
    line; return its result and {module path: sorted lines missed}."""
    executed = {os.path.realpath(path): set()
                for path in sorted(package.glob("*.py"))}
    by_name = {}

    def trace_line(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = executed.get(os.path.realpath(name))
        if by_name[name] is None:
            return None
        by_name[name].add(frame.f_lineno)
        return trace_line

    before = sys.gettrace()
    sys.settrace(trace_call)
    try:
        result = run()
    finally:
        sys.settrace(before)
    return result, {path: sorted(executable_lines(Path(path)) - lines)
                    for path, lines in executed.items()}


def main(argv: list[str]) -> int:
    import pytest

    # the library from this checkout, here and in the tests' subprocesses
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    code, missed = missed_lines(PACKAGE, lambda: pytest.main(argv or ["-q"]))
    total = 0
    for path, lines in missed.items():
        source = Path(path).read_text().splitlines()
        for line in lines:
            print(f"{Path(path).relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
        total += len(lines)
    print(f"{total} executable lines of {PACKAGE.relative_to(ROOT)} missed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
