"""Every pealab function is pure: what it does depends on its arguments
alone.  A read of the process environment would make a result depend on
the shell it runs in, so no module may name one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pealab"
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list[str]:
    """Each use of an environment reader in the module at path, by line."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in READERS:
            hits.append((node.lineno, name))
    return [f"{path.name}:{line} {name}" for line, name in sorted(hits)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_reads(path) == []


def test_the_guard_sees_each_reader(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nfrom os import environ\n"
        "a = os.environ.get('X')\nb = os.getenv('X')\n"
    )
    assert environment_reads(module) == [
        "m.py:2 environ", "m.py:3 environ", "m.py:4 getenv",
    ]
