"""The statements of ``src/pealab`` that no test executes.

Runs the test suite in this process under a ``sys.settrace`` line tracer
that records every line run in a file of the package, then lists each
statement of the package that compiles to code and of which no line ran,
as ``path:line: source`` of its first line, and a count.  Run it from the
repository root, outside the test suite (the whole suite takes minutes
under the tracer):

    PYTHONPATH=src:tests python -m unreached

Arguments, if any, are passed to pytest in place of the whole suite, e.g.
``python -m unreached tests/test_cli.py``.  Code run in a child process
is not traced.  The package must not be imported before the tracer is
set, or its module-level lines would count as unreached; this module
imports nothing of it.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pealab"


def executable_lines(text: str, name: str) -> set[int]:
    """The lines of the compiled text and of every code object in it."""
    codes, lines = [compile(text, name, "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statements(text: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement of the text: all of a simple
    statement, and the header of a compound one, up to its first inner
    statement or handler."""
    spans = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.stmt):
            inner = [c.lineno for c in ast.iter_child_nodes(node)
                     if isinstance(c, (ast.stmt, ast.excepthandler))]
            spans.append((node.lineno, min(inner) - 1 if inner else node.end_lineno))
    return sorted(spans)


def traced_run(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, by file, the package lines it ran."""
    files = {str(p): set() for p in PACKAGE.glob("*.py")}
    ran_by_name = {}  # co_filename -> its package file's set, or None

    # one line tracer for every frame: a closure made per call would leave
    # cyclic garbage, which the suite's garbage tests would count
    def line(frame, event, arg):
        if event == "line":
            ran_by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran_by_name:
            ran_by_name[name] = files.get(os.path.realpath(name))
        # no line events for code outside the package
        return None if ran_by_name[name] is None else line

    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), files


def main(argv) -> int:
    args = argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
    status, ran = traced_run(["-p", "no:cacheprovider", *args])
    missed = 0
    for name in sorted(ran):
        path, text = Path(name), Path(name).read_text()
        code, source = executable_lines(text, name), text.splitlines()
        for first, last in statements(text):
            span = set(range(first, last + 1))
            if span & code and not span & ran[name]:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{source[first - 1].strip()}")
    print(f"{missed} statements unreached")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
