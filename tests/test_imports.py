"""Import rules, checked by parsing source files with `ast`.

Every name a prismhom module imports is used in that module: a small
stand-in for a linter, where an imported name must occur somewhere in the
module as a plain name (an attribute access `module.name` counts as a use
of `module`).  And `tests/oracles.py` imports nothing from prismhom, so
the oracles stay independent of the code they check.
"""

import ast
import os

import pytest

import prismhom

SOURCE = os.path.dirname(os.path.abspath(prismhom.__file__))
MODULES = sorted(f for f in os.listdir(SOURCE) if f.endswith(".py"))

# Imports kept only so that other modules can import them from here.
RE_EXPORTS = {
    "knots.py": {"apply_move"},
}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_modules_are_found():
    assert {"chains.py", "cli.py", "prismatic.py", "prisms.py"} <= set(MODULES)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_no_unused_imports(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    unused = [(line, name) for line, name in _unused_imports(tree)
              if name not in RE_EXPORTS.get(module, ())]
    assert unused == [], f"{module} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from itertools import product\nfrom . import chains\nchains.Chain\n")
    assert _unused_imports(tree) == [(1, "product")]


def _package_imports(tree):
    """(line, module) for every import in the tree that reaches prismhom."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else ["<relative>"]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "<relative>" or name.split(".")[0] == "prismhom"]
    return found


def test_oracles_import_nothing_from_prismhom():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="oracles.py")
    assert _package_imports(tree) == [], "tests/oracles.py must stay independent of prismhom"


def test_the_check_sees_a_package_import():
    tree = ast.parse("import itertools\nimport prismhom.knots\n"
                     "from prismhom import knots\nfrom . import chains\n")
    assert _package_imports(tree) == [(2, "prismhom.knots"), (3, "prismhom"),
                                      (4, "<relative>")]
