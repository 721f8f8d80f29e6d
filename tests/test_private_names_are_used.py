"""A private name is a helper of the package itself, so one that nothing in
the package refers to is dead code: every single-underscore name that a
module of pealab defines at module level (function, class or assignment)
or as a method must be referred to somewhere in the package outside its
own definition."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pealab"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined_names(tree: ast.Module):
    """(name, first line, last line) of each module-level function, class
    and assignment target, and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno, node.end_lineno
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each read of a name or attribute, and of each
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced_private_names(package: Path) -> list[str]:
    """Each private name defined in a module of package that no module
    refers to outside the lines of its definition, as module:line name."""
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(package.glob("*.py"))
    }
    references = {
        (module, name, line)
        for module, tree in trees.items()
        for name, line in _references(tree)
    }
    unreferenced = []
    for module, tree in trees.items():
        for name, first, last in _defined_names(tree):
            if not _is_private(name):
                continue
            inside = {(module, name, line) for line in range(first, last + 1)}
            if not any(ref[1] == name for ref in references - inside):
                unreferenced.append(f"{module}:{first} {name}")
    return unreferenced


def test_every_private_name_is_referred_to():
    assert unreferenced_private_names(PACKAGE) == []


def test_the_guard_sees_each_kind_of_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "def _helper(n):\n"
        "    return _helper(n - 1) if n else _LIMIT\n"
        "def _unused(n):\n"
        "    return _unused(n - 1)\n"
        "class _Box:\n"
        "    def _size(self):\n"
        "        return self._size()\n"
        "    def _read(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return self._read()\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import _helper\n"
        "value = _helper(2)\n"
    )
    assert unreferenced_private_names(tmp_path) == [
        "a.py:2 _SPARE", "a.py:5 _unused", "a.py:7 _Box", "a.py:8 _size",
    ]
