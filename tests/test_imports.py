"""Import rules, checked by parsing source files with `ast`.

Every name a prismhom module imports is used in that module: a small
stand-in for a linter, where an imported name must occur somewhere in the
module as a plain name (an attribute access `module.name` counts as a use
of `module`).  `tests/oracles.py` imports nothing from prismhom, so the
oracles stay independent of the code they check.  And every top-level
function and class of prismhom is named somewhere outside its own
definition, in the package, the tests, the demos or the benchmark.
Refusals go through one path per kind: only `algebra.py` catches
`(TypeError, ValueError, OverflowError)` (in `reading`), raises
`AxiomError` (in `AxiomReport.require`) or calls `first_failure`, so no
module names a failing axiom by hand.  `moves.py` calls no carrier
operation: a move states only its rewrite, and its coloring bijection is
derived from the new diagram's rules.  prismhom imports only its own
modules and the standard library, and `pyproject.toml` declares no
dependency, so the package installs and imports with nothing downloaded.
Importing the package stays cheap: a fresh `python -S` process that runs
`import prismhom` has not loaded `dataclasses`, `inspect`, `ast` or
`importlib.resources`, which cost milliseconds at every start of the
command line tool; only loading a packaged diagram reads
`importlib.resources`.  That process has compiled no edge-label kernel
either, and one that imports `prismhom.cli` no expansion kernel; generated
code runs in one place: only `prisms._compiled`, which both kernel builders
call, calls `exec` (or `eval`, or `compile`).
The modules of the package, `__init__` aside, import each other without a
cycle, late imports included.  Only `prismatic` reads base-q digits (a
`divmod`, or `k // q ** d % q`): it alone turns a prism index into its
elements.
The symbolic check of `verify` reads none of `prismatic`'s face code, so it
stays an independent check of the stored boundary; its face rule runs
compiled per partition, from kernels generated from `cli._expansion_terms`,
and the kernel builder is held to the same rule.  The benchmark's tracer
(`perfbench/tracing.py`) names the functions it wraps by string; every
(module, attribute) pair of its tables resolves to a callable of prismhom
and every span it requires is one of them, so a rename fails here rather
than in a benchmark run.
"""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import prismhom

SOURCE = os.path.dirname(os.path.abspath(prismhom.__file__))
MODULES = sorted(f for f in os.listdir(SOURCE) if f.endswith(".py"))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    unused = _unused_imports(tree)
    assert unused == [], f"{module} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from itertools import product\nfrom . import chains\nchains.Chain\n")
    assert _unused_imports(tree) == [(1, "product")]


def _imports(tree):
    """(line, module) for every import in the tree; "<relative>" for a relative one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, node.module if node.level == 0 else "<relative>"))
    return found


def _package_imports(tree):
    """(line, module) for every import in the tree that reaches prismhom."""
    return [(line, name) for line, name in _imports(tree)
            if name == "<relative>" or name.split(".")[0] == "prismhom"]


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


def _sibling_imports(tree):
    """The package modules a module imports, by relative import, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def _import_cycle(graph):
    """A list of modules that import each other in a ring, or None if the graph is acyclic."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):]
        if module in done:
            return None
        path.append(module)
        for other in sorted(graph.get(module, ())):
            cycle = visit(other)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_the_package_has_no_import_cycle():
    graph = {}
    for module in MODULES:
        if module != "__init__.py":
            with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
                graph[module[:-3]] = _sibling_imports(ast.parse(fh.read(), filename=module))
    assert "knots" in graph["moves"]
    assert _import_cycle(graph) is None


def test_the_check_sees_an_import_cycle():
    tree = ast.parse("from . import chains, errors\nfrom .algebra import integer\n"
                     "def late():\n    from .moves import apply_move\n"
                     "import os\nfrom prismhom import cli\n")
    assert _sibling_imports(tree) == {"chains", "errors", "algebra", "moves"}
    graph = {"knots": {"moves", "chains"}, "moves": {"algebra", "knots"}, "chains": set()}
    assert _import_cycle(graph) == ["knots", "moves"]
    del graph["moves"]
    assert _import_cycle(graph) is None


def _outside_imports(tree):
    """(line, module) for every import of a module outside the package and the standard library."""
    return [(line, name) for line, name in _imports(tree)
            if name != "<relative>" and name.split(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("module", MODULES)
def test_the_package_imports_only_the_standard_library(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _outside_imports(tree) == [], f"{module} imports outside the standard library"


def test_the_check_sees_an_outside_import():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom scipy import sparse\n"
                     "from . import chains\nfrom .algebra import reading\n"
                     "from __future__ import annotations\nimport json, sympy\n")
    assert _outside_imports(tree) == [(2, "numpy"), (3, "scipy"), (7, "sympy")]


SLOW_TO_IMPORT = ("dataclasses", "inspect", "ast", "importlib.resources")


def _printed_after(statement):
    """The words `statement` prints in a fresh `python -S` process (no site
    packages preloaded) with the package on its path."""
    probe = f"import sys; sys.path.insert(0, {os.path.dirname(SOURCE)!r}); {statement}"
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def _slow_imports_after(statement):
    """The modules of SLOW_TO_IMPORT loaded once `statement` has run in a fresh process."""
    return _printed_after(f"{statement}; print(*[m for m in {SLOW_TO_IMPORT!r} "
                          "if m in sys.modules])")


def test_importing_the_package_loads_no_slow_module():
    assert _slow_imports_after("import prismhom") == []


def test_the_check_sees_a_slow_import():
    assert _slow_imports_after("import prismhom; prismhom.load_fixture_diagram('theta')") == [
        "importlib.resources"]
    assert "dataclasses" in _slow_imports_after("import prismhom, dataclasses")


def test_importing_the_package_compiles_no_label_kernel():
    # the edge-label kernels are compiled the first time a partition is
    # labeled, inside a job, not when the command line tool starts
    assert _printed_after("import prismhom; "
                          "print(prismhom.prisms._label_function.cache_info().currsize)") == ["0"]


def test_importing_the_command_line_compiles_no_expansion_kernel():
    # verify's expansion kernels are compiled the first time a partition is
    # expanded, inside a job, not when the command line module is imported
    assert _printed_after("import prismhom.cli; "
                          "print(prismhom.cli._expansion_function.cache_info().currsize)") == ["0"]


GENERATED_CODE_HOME = ("prisms.py", "_compiled")


def _exec_sites(tree):
    """(top-level definition, line) for every call of `exec`, `eval` or `compile`."""
    found = []
    for node in tree.body:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id in ("exec", "eval", "compile")):
                found.append((getattr(node, "name", None), sub.lineno))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_code_is_generated_in_one_place(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    home, function = GENERATED_CODE_HOME
    sites = [name for name, _ in _exec_sites(tree)]
    assert sites == ([function] if module == home else []), (
        f"{module} runs generated code; only prisms._compiled compiles kernels")


def test_the_check_sees_generated_code():
    tree = ast.parse("exec('x = 1')\n"
                     "def kernel(source):\n    ns = {}\n    exec(source, ns)\n    return ns\n"
                     "class Table:\n    def read(self, text):\n        return eval(text)\n"
                     "code = compile('1', '<s>', 'eval')\nfunctools.exec\nrunner.exec(1)\n")
    assert _exec_sites(tree) == [(None, 1), ("kernel", 4), ("Table", 8), (None, 9)]


def _digit_reads(tree):
    """Lines that read base-q digits: a `divmod`, or an `x // y % z`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "divmod"
                  or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                  and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.FloorDiv))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "prismatic.py"])
def test_only_prismatic_decodes_a_prism_index(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _digit_reads(tree) == [], (
        f"{module} reads digits by hand; use prismatic._element_table or _elements")


def test_the_check_sees_a_digit_read():
    tree = ast.parse("r, v = divmod(i, q)\nd = (k // q ** t % q)\nm = map(divmod, a, b)\n"
                     "x = k % q\ny = k // q\nz = (k % q) // q\n")
    assert _digit_reads(tree) == [1, 2, 3]


def test_the_project_declares_no_dependencies():
    with open(os.path.join(REPO, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    assert re.findall(r"^dependencies\s*=.*$", text, re.MULTILINE) == ["dependencies = []"]


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree):
    """The ids of the docstring constants of a module, its classes and functions."""
    return {id(body[0].value) for node in ast.walk(tree)
            if isinstance(body := getattr(node, "body", None), list) and body
            and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)}


def _named(node, docstrings):
    """Every identifier a syntax tree names: names, attributes, imports, and
    words inside string constants other than docstrings (the benchmark looks
    functions up by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            out.update(_WORD.findall(sub.value))
    return out


def _unreferenced(sources, defining):
    """Top-level functions and classes of the `defining` files named nowhere else.

    sources maps a file name to its text.  A name used only inside its own
    definition (a recursive call, say) counts as unreferenced.
    """
    defined, named = [], []
    for path, text in sources.items():
        tree = ast.parse(text, filename=path)
        docstrings = _docstrings(tree)
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if path in defining:
                    defined.append((path, own))
            named.append(((path, own), _named(node, docstrings)))
    return sorted((path, name) for path, name in defined
                  if not any(name in names for owner, names in named if owner != (path, name)))


def test_every_top_level_definition_is_named_somewhere():
    sources = {}
    for top in ("src", "tests", "demos", "perfbench"):
        for folder, _, files in os.walk(os.path.join(REPO, top)):
            for f in files:
                if f.endswith(".py"):
                    path = os.path.join(folder, f)
                    with open(path, encoding="utf-8") as fh:
                        sources[os.path.relpath(path, REPO)] = fh.read()
    defining = {p for p in sources if p.startswith(os.path.join("src", "prismhom", ""))}
    assert defining
    assert _unreferenced(sources, defining) == [], "definitions nothing names"


def test_the_check_sees_an_unreferenced_definition():
    sources = {
        "lib.py": ('"""Mentions hidden."""\n'
                   "def used():\n    return 1\n"
                   "def recursive(n):\n    return recursive(n - 1)\n"
                   "def hidden():\n    'hidden is only in its own docstring'\n"
                   "class Looked:\n    pass\n"
                   "def _helper():\n    return used()\n"),
        "user.py": "import lib\nlib._helper()\nTABLE = {'x': (lib, 'Looked')}\n",
    }
    assert _unreferenced(sources, {"lib.py"}) == [("lib.py", "hidden"), ("lib.py", "recursive")]


REFUSAL_HOME = "algebra.py"


def _refusal_sites(tree):
    """(line, kind) for every handler of exactly (TypeError, ValueError,
    OverflowError) and every `raise AxiomError`, in either spelling."""
    number_errors = {"TypeError", "ValueError", "OverflowError"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple)
                and {getattr(e, "id", None) for e in node.type.elts} == number_errors):
            found.append((node.lineno, "number handler"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(target, "id", getattr(target, "attr", None)) == "AxiomError":
                found.append((node.lineno, "raise AxiomError"))
    return sorted(found)


@pytest.mark.parametrize("module", [m for m in MODULES if m != REFUSAL_HOME])
def test_refusals_stay_in_algebra(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _refusal_sites(tree) == [], (
        f"{module} refuses input by hand; use algebra.reading or AxiomReport.require")


def test_algebra_holds_one_path_per_refusal():
    with open(os.path.join(SOURCE, REFUSAL_HOME), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=REFUSAL_HOME)
    assert sorted(kind for _, kind in _refusal_sites(tree)) == ["number handler",
                                                                "raise AxiomError"]


def test_the_check_sees_a_refusal_by_hand():
    tree = ast.parse(
        "try:\n    int(x)\nexcept (TypeError, ValueError, OverflowError) as exc:\n"
        "    raise StructureError(exc)\n"
        "try:\n    int(x)\nexcept (ValueError, OverflowError, TypeError):\n    pass\n"
        "try:\n    int(x)\nexcept (TypeError, ValueError):\n    pass\n"
        "raise AxiomError('no', witness=(0,))\n"
        "raise errors.AxiomError\n"
        "raise StructureError('fine')\n")
    assert _refusal_sites(tree) == [(3, "number handler"), (7, "number handler"),
                                    (13, "raise AxiomError"), (14, "raise AxiomError")]


def _first_failure_calls(tree):
    """Lines that call `first_failure`, as a method or as a plain name."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and
                  getattr(node.func, "attr", getattr(node.func, "id", None)) == "first_failure")


@pytest.mark.parametrize("module", [m for m in MODULES if m != REFUSAL_HOME])
def test_failing_axioms_are_named_only_in_algebra(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _first_failure_calls(tree) == [], (
        f"{module} refuses an axiom by hand; use AxiomReport.require")


def test_the_check_sees_a_first_failure_call():
    tree = ast.parse("name, witness = S.report.first_failure()\nfirst_failure(names)\n"
                     "_first_failure(3, 2, fails)\nS.report.require(names, 'what')\n"
                     "f = report.first_failure\n")
    assert _first_failure_calls(tree) == [1, 2]


CARRIER_OPERATIONS = {"act", "act_inv", "act_by_all", "mul", "product", "group_inverse",
                      "dot", "tri"}


def _carrier_operations(tree):
    """(line, name) for every attribute access that names a carrier operation."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in CARRIER_OPERATIONS)


def test_moves_call_no_carrier_operation():
    with open(os.path.join(SOURCE, "moves.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="moves.py")
    assert _carrier_operations(tree) == [], (
        "moves.py colors arcs by hand; derive the bijection from the diagram's rules")


def test_the_check_sees_a_carrier_operation():
    tree = ast.parse("S.act(a, b)\nS.size\nrows = S.tri.rows\nf = S.mul\n"
                     "product(x)\nS.report.act_inv\n")
    assert _carrier_operations(tree) == [(1, "act"), (3, "tri"), (4, "mul"), (6, "act_inv")]


FACE_CODE = {"_face_tables", "_faces", "faces", "boundary_generator", "_ranked_plan"}
SYMBOLIC_CHECK = ("verify_structure", "_expansion_columns", "_expansion_function",
                  "_expansion_terms")


def _face_code_named(tree, functions):
    """Face-code names that the given top-level functions reference or the module imports."""
    named = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.FunctionDef) and node.name in functions:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    named.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    named.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    named.add(sub.name.split(".")[-1])
    return sorted(named & FACE_CODE)


def test_the_symbolic_check_reads_no_face_code():
    with open(os.path.join(SOURCE, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="cli.py")
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(SYMBOLIC_CHECK) <= defined
    assert _face_code_named(tree, SYMBOLIC_CHECK) == [], (
        "verify's symbolic check must evaluate its own table, not prismatic's faces")


def test_the_check_sees_face_code():
    tree = ast.parse("from .prismatic import _face_tables as tables\n"
                     "def verify_structure(S, g):\n    return prismatic.faces(g, S)\n"
                     "def _expansion_terms(key):\n    from .prismatic import boundary_generator\n"
                     "def other():\n    return _ranked_plan, _faces\n")
    assert _face_code_named(tree, SYMBOLIC_CHECK) == ["_face_tables", "boundary_generator",
                                                      "faces"]


TRACING = os.path.join(REPO, "perfbench", "tracing.py")
SPAN_TABLES = ("FUNCTIONS", "METHODS", "REQUIRED")


def _span_tables(tree):
    """The literal dicts a tracing module binds to FUNCTIONS, METHODS and REQUIRED."""
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in SPAN_TABLES}


def _owner(node):
    """The prismhom module, or attribute of one, that an owner expression names."""
    if isinstance(node, ast.Name):
        return importlib.import_module(f"prismhom.{node.id}")
    return getattr(_owner(node.value), node.attr)


def _unresolved_spans(tree):
    """Span names whose (owner, attribute) names no callable of prismhom, and required
    span names no table defines.  A method must be defined on its class itself, since
    the tracer reads it from the class `__dict__`."""
    tables = _span_tables(tree)
    assert sorted(tables) == sorted(SPAN_TABLES)
    bad, defined = set(), set()
    for table in ("FUNCTIONS", "METHODS"):
        for key, value in zip(tables[table].keys, tables[table].values):
            defined.add(key.value)
            owner, attr = value.elts
            try:
                owner = _owner(owner)
                found = (getattr(owner, attr.value) if table == "FUNCTIONS"
                         else vars(owner)[attr.value])
            except (ImportError, AttributeError, KeyError):
                found = None
            if not callable(found):
                bad.add(key.value)
    for names in tables["REQUIRED"].values:
        bad.update(name.value for name in names.elts if name.value not in defined)
    return sorted(bad)


def test_the_benchmark_traces_functions_that_exist():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="tracing.py")
    assert _unresolved_spans(tree) == [], "the benchmark names functions prismhom lacks"


def test_the_check_sees_a_missing_span_name():
    tree = ast.parse(
        'FUNCTIONS = {"a": (cli, "main"), "b": (prisms, "no_such_function"), "c": (nowhere, "f"),\n'
        '             "d": (algebra, "AXIOM_NAMES")}\n'
        'METHODS = {"e": (algebra.Shalgebra, "__init__"), "f": (algebra.Shalgebra, "size"),\n'
        '           "g": (chains.ChainComplex, "__repr__")}\n'
        'REQUIRED = {"w": ("a", "e"), "x": ("b", "h")}\n')
    assert _unresolved_spans(tree) == ["b", "c", "d", "f", "g", "h"]
