"""Every top-level import of the package and of the test modules is used.

No linter is a dependency, so this reads each module with `ast`: a name
bound by an import must be read somewhere in the module or listed in its
`__all__`, and a dotted `import a.b` must be read as the path a.b.  A cold
import of the CLI must also leave out the modules it imports lazily.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/evocycle/*.py"), *ROOT.glob("tests/*.py")])

# Imported only so that perfbench can patch them by name.
HOOKS = {("src/evocycle/cli.py", "instance_to_dict"), ("src/evocycle/analysis.py", "step"),
         ("src/evocycle/cli.py", "build_fcsh"), ("src/evocycle/cli.py", "build_hdpd"),
         ("src/evocycle/cli.py", "build_tree")}


def imported(tree):
    """(bound name, line) of every top-level import but `from __future__`."""
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def referenced(tree):
    """Every name and dotted attribute path the module reads, and its `__all__`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            path = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                path.append(node.attr)
            if isinstance(node.value, ast.Name):
                used.add(".".join([node.value.id, *reversed(path)]))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = referenced(tree)
    return [(name, line) for name, line in imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    name = str(path.relative_to(ROOT))
    unused = [(bound, line) for bound, line in unused_imports(path) if (name, bound) not in HOOKS]
    assert unused == []


@pytest.mark.parametrize("name,bound", sorted(HOOKS))
def test_hooks_are_imported_and_otherwise_unused(name, bound):
    # The allow-list holds only imports nothing in their module reads.
    assert bound in [unused for unused, _ in unused_imports(ROOT / name)]


def test_catches_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from fractions import Fraction\n"
        "from typing import Any as Anything\n"
        "__all__ = ['Fraction']\n"
        "print(sys.argv, os.sep)\n"
    )
    assert unused_imports(module) == [("os.path", 2), ("Anything", 5)]


def test_cold_import_of_the_cli_leaves_the_lazy_modules_out():
    # Each is imported where it is first needed: the refinement by
    # whole-graph step, logging by a solver escalation, the process pool by
    # a sweep with more than one job.  A cold `import evocycle.cli` pays for
    # none of them, nor for what they pull in.
    lazy = ("evocycle.refine", "logging", "concurrent.futures", "multiprocessing")
    code = f"import sys, evocycle.cli; print([name for name in {lazy!r} if name in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert done.stdout == "[]\n"
