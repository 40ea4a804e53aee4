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


#: Public names that nothing in ``src/``, ``demos/`` or ``perfbench/`` loads,
#: each kept for the reason given.  Every other public name needs a caller.
UNCALLED = {
    "spectral.SpectralDecomposition.reconstruct":
        "the tests' oracle for every eigh: U diag(w) U† against the input",
    "maps.random_stochastic_map":
        "tests draw row-stochastic maps of any shape from it",
    "maps.random_cp_unital_map":
        "tests draw channels of any shape and Kraus count from it; the sweep "
        "draws only square 3-Kraus stacks, from its own streams",
    "maps.mixture_squared_length":
        "its property test states the module's commuting-reduction identity",
    "classical.connections.skewness_tensor":
        "the paper's skewness tensor T, the alpha part of the connection",
    "classical.connections.christoffel":
        "the paper's alpha-connection coefficients behind the covariant derivative",
    "classical.connections.geodesic_acceleration":
        "the connection coefficients contracted twice with a velocity",
    "classical.families.legendre_check":
        "Legendre reciprocity of Psi and the entropy, a stated invariant",
    "quantum.families.quantum_legendre_residual":
        "Legendre reciprocity on the quantum side",
    "quantum.families.quantum_entropy_relative_to_base":
        "the entropy half of the quantum Legendre pair",
    "quantum.families.quantum_massieu":
        "the only public log Z at an arbitrary xi on the quantum side",
    "quantum.states.score_qtangent":
        "the score picture of a quantum tangent, twin of score_tangent",
    "quantum.states.quantum_tangent_convert":
        "mixture/score conversion of quantum tangents, twin of tangent_convert",
    "serialize.matrix_to_json":
        "the writer of the matrix document the CLI reads; tests write their "
        "H0, V and feature files with it",
}


def _public(body):
    return [
        node for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _loads(tree):
    """name -> the definitions enclosing each load of it, as sets of node ids.

    A load is an ``ast.Name`` or ``ast.Attribute`` in Load context, so an
    import or a string in ``__all__`` is not one.
    """
    loads = {}

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            loads.setdefault(name, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return loads


def _trees():
    """The parsed files of ``src/infogeo``, ``demos/*.py`` and
    ``perfbench/*.py``, and each public member of ``infogeo`` as
    ``(node, "module.name")``: every public top-level function or class, and
    every public method of a public class."""
    src = Path(infogeo.__file__).resolve().parent
    repo = src.parents[1]
    paths = [*src.rglob("*.py"), *repo.glob("demos/*.py"), *repo.glob("perfbench/*.py")]
    trees = {path: ast.parse(path.read_text()) for path in sorted(paths)}
    members = []
    for path, tree in trees.items():
        if src not in path.parents:
            continue
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for top in _public(tree.body):
            members.append((top, f"{module}.{top.name}"))
            if isinstance(top, ast.ClassDef):
                members += [(m, f"{module}.{top.name}.{m.name}") for m in _public(top.body)]
    return trees, members


def _uncalled_public_names():
    """Each public member of ``infogeo`` that nothing outside its own body
    loads in ``src/infogeo``, ``demos/*.py`` or ``perfbench/*.py``."""
    trees, members = _trees()
    loads = {}
    for tree in trees.values():
        for name, where in _loads(tree).items():
            loads.setdefault(name, []).extend(where)
    return {
        name for node, name in members
        if all(id(node) in where for where in loads.get(node.name, []))
    }


def test_every_public_name_has_a_caller():
    # a public name that only its own tests call is surface to maintain
    # without a user; UNCALLED states why each exception stays
    uncalled = _uncalled_public_names()
    extra = sorted(uncalled - UNCALLED.keys())
    assert not extra, f"public names that nothing calls: {extra}"
    stale = sorted(UNCALLED.keys() - uncalled)
    assert not stale, f"UNCALLED entries that now have a caller: {stale}"


#: Defaulted parameters of public functions and methods that no call in
#: ``src/``, ``demos/`` or ``perfbench/`` passes, each kept for the reason
#: given.  Every other option needs a caller that sets it.
UNSET = {
    "maps.random_cp_unital_map(dim_out)":
        "a test helper (in UNCALLED): tests draw non-square channels",
    "maps.random_cp_unital_map(n_kraus)":
        "a test helper (in UNCALLED): tests draw channels of any Kraus count",
    "maps.random_cp_unital_map(seed)":
        "a test helper (in UNCALLED): tests seed their draws",
    "projection.micro_step(propagator)":
        "roll passes its one propagator through the name step",
}


def _passed(call, positional, keyword, shift):
    """The parameters ``call`` passes, by keyword, by position or through
    ``*args`` or ``**kwargs``, to a function with the ``positional`` and
    ``keyword``-only parameter names given, whose first ``shift``
    positional ones (``self`` or ``cls``) are bound before the call."""
    if any(k.arg is None for k in call.keywords):
        return {*positional, *keyword}
    passed = {k.arg for k in call.keywords}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return passed | set(positional[shift + i:])
        passed |= set(positional[shift + i: shift + i + 1])
    return passed


def _unset_options():
    """Each defaulted parameter of a public function or method of
    ``infogeo``, as ``"module.name(parameter)"``, that no call to that name
    passes in ``src/infogeo``, ``demos/*.py`` or ``perfbench/*.py``."""
    trees, members = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if name := _called_name(node):
                calls.setdefault(name, []).append(node)
    unset = set()
    for node, name in members:
        if isinstance(node, ast.ClassDef):
            continue
        a = node.args
        positional = [p.arg for p in (*a.posonlyargs, *a.args)]
        keyword = [p.arg for p in a.kwonlyargs]
        defaulted = positional[len(positional) - len(a.defaults):] + [
            p for p, d in zip(keyword, a.kw_defaults) if d is not None
        ]
        shift = int(positional[:1] in (["self"], ["cls"]))
        passed = set()
        for call in calls.get(node.name, []):
            passed |= _passed(call, positional, keyword, shift)
        unset |= {f"{name}({p})" for p in defaulted if p not in passed}
    return unset


def test_every_option_has_a_caller():
    # an option that no caller sets is one value in use dressed as a choice;
    # UNSET states why each exception stays
    unset = _unset_options()
    extra = sorted(unset - UNSET.keys())
    assert not extra, f"defaulted parameters that nothing sets: {extra}"
    stale = sorted(UNSET.keys() - unset)
    assert not stale, f"UNSET entries that now have a caller: {stale}"
