"""Every ``infogeo`` module imports cleanly when it is the first one run.

Each check runs in a fresh interpreter.  The packages above the module are
registered without running their ``__init__``, so the module's own body is
the first ``infogeo`` code executed; then those ``__init__`` files run, and
every other module is imported.  An import cycle that the package's fixed
import order would hide (it always starts from ``infogeo/__init__.py``)
fails here.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import infogeo

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(infogeo.__path__, prefix="infogeo.")
)

IMPORT_FIRST = """
import importlib, importlib.util, sys
first, rest = sys.argv[1], sys.argv[2:]
parts = first.split(".")
parents = []
for i in range(1, len(parts)):
    spec = importlib.util.find_spec(".".join(parts[:i]))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    parents.append(module)
importlib.import_module(first)
for module in reversed(parents):
    module.__spec__.loader.exec_module(module)
for name in rest:
    importlib.import_module(name)
"""

SCIPY_MODULES_AFTER_CLI = """
import sys, infogeo.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _fresh_python(*args):
    src = str(Path(infogeo.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("first", MODULES)
def test_module_imports_first(first):
    proc = _fresh_python("-c", IMPORT_FIRST, first, *MODULES)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_out():
    # numpy is the one runtime dependency; scipy is for tests and demos only
    proc = _fresh_python("-c", SCIPY_MODULES_AFTER_CLI)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _lapack_eigh_lines(path):
    """Lines of ``path`` that call ``<module>.linalg.eigh`` or import it by name."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "eigh"
                    and isinstance(f.value, ast.Attribute)
                    and f.value.attr == "linalg"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            lines += [node.lineno for alias in node.names if alias.name == "eigh"]
    return lines


def test_lapack_eigh_only_in_spectral():
    # every other module decomposes through spectral.eigh, which validates
    src = Path(infogeo.__file__).resolve().parent
    found = {
        str(path.relative_to(src)): lines
        for path in sorted(src.rglob("*.py"))
        if path != src / "spectral.py" and (lines := _lapack_eigh_lines(path))
    }
    assert found == {}


TABLEAU = {"_A", "_E", "_D"}


def _tableau_reads(path):
    """(line, enclosing function) of each read or import of a tableau name."""
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name):
            names = {node.id} if isinstance(node.ctx, ast.Load) else set()
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        else:
            names = set()
        if names & TABLEAU:
            reads.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return reads


def test_dormand_prince_tableau_read_only_in_integrate():
    # transport, shooting and quantum paths step through the one core
    src = Path(infogeo.__file__).resolve().parent
    core = src / "classical" / "connections.py"
    found = {
        str(path.relative_to(src)): reads
        for path in sorted(src.rglob("*.py"))
        if (reads := [r for r in _tableau_reads(path)
                      if path != core or r[1] != "_integrate"])
    }
    assert found == {}
    assert {function for _, function in _tableau_reads(core)} == {"_integrate"}


def _called_name(node):
    """The name a call node calls, ``f`` or ``module.f``; None otherwise."""
    if isinstance(node, ast.Call):
        f = node.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return None


def _raw_document_reads(path):
    """Lines of ``path`` that pass a subscript, a ``.get(...)``, a
    ``_field(...)`` or a ``_load(...)`` straight to ``int``, ``float`` or
    ``np.asarray``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        f, arg = node.func, node.args[0]
        converts = (isinstance(f, ast.Name) and f.id in {"int", "float"}) or (
            isinstance(f, ast.Attribute) and f.attr == "asarray"
        )
        raw = isinstance(arg, ast.Subscript) or (
            _called_name(arg) in {"get", "_field", "_load"}
        )
        if converts and raw:
            lines.append(node.lineno)
    return lines


def test_documents_are_read_through_the_readers():
    # a field converted in place would accept "3", 3.5 or true for an integer
    # and name neither the document nor the field when it fails
    src = Path(infogeo.__file__).resolve().parent
    found = {
        name: lines
        for name in ("serialize.py", "cli.py")
        if (lines := _raw_document_reads(src / name))
    }
    assert found == {}


def _stack_naming_lines(path):
    """Lines of ``path`` that name ``worst_index`` or ``at_index``."""
    names = {"worst_index", "at_index"}
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found = any(alias.name in names for alias in node.names)
        else:
            found = getattr(node, "id", getattr(node, "attr", None)) in names
        if found:
            lines.append(node.lineno)
    return lines


def test_stack_failures_are_named_only_in_spectral():
    # every stack check refuses through spectral._refuse, which alone knows
    # how the worst matrix of a stack is picked and named
    src = Path(infogeo.__file__).resolve().parent
    found = {
        str(path.relative_to(src)): lines
        for path in sorted(src.rglob("*.py"))
        if path != src / "spectral.py" and (lines := _stack_naming_lines(path))
    }
    assert found == {}
