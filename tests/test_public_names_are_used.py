"""A public function that nothing in the package calls is kept only for a
named job: every public module-level function of pealab must be referred
to by some module of the package outside its own definition, re-exports
by ``__init__`` not counting, or be listed in KEPT with that job.  The
list is exact, so an entry whose function gains a caller or goes away
fails too."""

import ast
from pathlib import Path

from test_private_names_are_used import PACKAGE, _references

CRITERION_3 = "a paper diagram checked by criterion 3 and by TestAlgebraLaws"

KEPT = {
    "functors.py alpha": CRITERION_3,
    "functors.py beta": CRITERION_3,
    "functors.py zero_embedding": CRITERION_3,
    "functors.py interval_map": "a benchmark-traced layer; " + CRITERION_3,
    "functors.py check_square": "criterion 3's naturality squares",
    "functors.py triple_map": "the triple functor in the naturality squares "
                              "of alpha and beta in test_functors.py",
    "pdp.py difference_maps": CRITERION_3,
    "posets.py identity": "the unit law's right side; " + CRITERION_3,
    "pdp.py subalgebra_generated": "the free-algebra plan of ROADMAP item 9",
    "posets.py coequalizer_posets": "a benchmark-traced layer and the oracle "
                                    "of i_preserves_fork in helpers.py",
    "posets.py comparison_isomorphism": "the oracle of i_preserves_fork in "
                                        "helpers.py and of criterion 5",
    "io.py save_structure": "the writer that load_structure reads back; "
                            "the tests write their structure files with it",
}


def uncalled_public_functions(package: Path) -> list[str]:
    """Each public module-level function of package that no module other
    than ``__init__`` refers to outside its definition, as 'module name'."""
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(package.glob("*.py"))
    }
    references = {
        (module, name, line)
        for module, tree in trees.items()
        if module != "__init__.py"
        for name, line in _references(tree)
    }
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            lines = range(node.lineno, node.end_lineno + 1)
            inside = {(module, node.name, line) for line in lines}
            if not any(ref[1] == node.name for ref in references - inside):
                uncalled.append(f"{module} {node.name}")
    return uncalled


def test_every_uncalled_public_function_is_kept_for_a_job():
    assert sorted(uncalled_public_functions(PACKAGE)) == sorted(KEPT)


def test_the_guard_skips_private_names_and_re_exports(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported():\n"
        "    return exported()\n"
        "def helper():\n"
        "    return 1\n"
        "def used():\n"
        "    return helper()\n"
        "def _private():\n"
        "    return 2\n"
    )
    (tmp_path / "b.py").write_text("from a import used\n")
    assert uncalled_public_functions(tmp_path) == ["a.py exported"]
