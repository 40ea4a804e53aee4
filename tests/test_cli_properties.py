"""Property: whatever JSON value a document field holds, the CLI exits cleanly.

Each example takes one small successful command, replaces one field of one
of the documents it reads with an arbitrary JSON value, and drives
``cli.run`` in-process.  No exception may escape, the exit code is 0, 1 or
2, and stderr holds at most one line.  A value of the wrong type for its
field (null, a string, a boolean, an object or a ragged list) must exit 2
with a message that names the field.
"""

import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from infogeo import cli

COIN = {"omega": 2, "features": [[0.0, 1.0]]}
THREE = {"omega": 3, "features": [[0.0, 1.0, 2.0]],
         "base_log_density": [0.0, 0.1, 0.0]}
PAULI_X = {"dim": 2, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
QUBIT = {"dim": 2, "H0": {"dim": 2, "re": [[0.4, 0.1], [0.1, -0.4]]},
         "features": [PAULI_X]}
STATE = {"dim": 2, "re": [[0.7, 0.0], [0.0, 0.3]], "im": [[0.0, 0.1], [-0.1, 0.0]],
         "trace_tol": 1e-9}
RHO = {"omega": 2, "probs": [0.6, 0.4]}
KRAUS = [{"re": [[0.6, 0.0], [0.0, 0.6]]}, {"re": [[0.0, 0.8], [0.8, 0.0]]}]
RUN = {"family": COIN, "dt": 0.1, "steps": 2,
       "initial": {"omega": 2, "probs": [0.8, 0.2]}}
QRUN = {"family": QUBIT, "dt": 0.1, "steps": 2, "initial": STATE}

# subcommand -> (argv with {name} for each document file, the documents)
COMMANDS = {
    "fit-classical": (["--family", "{family}", "--means", "1.1"], {"family": THREE}),
    "fit-quantum": (["--family", "{family}", "--means", "0.2"], {"family": QUBIT}),
    "cramer-rao": (["--family", "{family}", "--theta", "1", "--estimators",
                    "{estimators}"],
                   {"family": THREE, "estimators": [[0.0, 1.0, 2.0]]}),
    "quantum-cramer-rao": (["--family", "{family}", "--mean", "0.2", "--observable",
                            "{observable}"],
                           {"family": QUBIT, "observable": PAULI_X}),
    "geodesic": (["--family", "{family}", "--xi0", "0.1", "--v0", "0.4", "--alpha",
                  "0", "--t-max", "0.2", "--dt", "0.1"], {"family": THREE}),
    "transport": (["--rho", "{rho}", "--sigma", "{sigma}", "--tangent", "{tangent}",
                   "--which", "plus"],
                  {"rho": RHO, "sigma": {"omega": 2, "probs": [0.3, 0.7]},
                   "tangent": {"rep": "mixture", "vec": [0.1, -0.1]}}),
    "kubo-expand": (["--h0", "{h0}", "--v", "{v}", "--max-order", "3"],
                    {"h0": {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]]},
                     "v": {"dim": 2, "re": [[0.1, 0.05], [0.05, -0.1]]}}),
    "project-simulate": (["--config", "{config}"],
                         {"config": [{**RUN, "generator": [[-1.0, 1.0], [1.0, -1.0]]},
                                     {**QRUN, "hamiltonian": PAULI_X},
                                     {**QRUN, "kraus": KRAUS}]}),
    "entropy-bound": (["--rho", "{rho}", "--sigma", "{sigma}", "--lambda", "0.5"],
                      {"rho": STATE,
                       "sigma": {"dim": 2, "re": [[0.2, 0.0], [0.0, 0.8]]}}),
    "sample": (["--dist", "{dist}", "--count", "10", "--seed", "1"], {"dist": RHO}),
}

# fields whose right type is a JSON object, or a string
DOCUMENT_FIELDS = {"H0", "family", "initial", "hamiltonian"}
TEXT_FIELDS = {"rep"}

NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, -1.0, 0.0, 2.5]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-4, 4),
)
RAGGED = st.one_of(
    st.lists(st.lists(NUMBERS, max_size=3), min_size=2, max_size=3).filter(
        lambda rows: len({len(r) for r in rows}) > 1
    ),
    st.tuples(NUMBERS, st.lists(NUMBERS, max_size=2)).map(list),
)
WRONG_TYPE = {
    "null": st.none(),
    "string": st.text(max_size=4),
    "boolean": st.booleans(),
    "object": st.dictionaries(st.text(max_size=3), NUMBERS, max_size=2),
    "ragged": RAGGED,
}
OTHER = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, max_size=4),
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(NUMBERS, min_size=n, max_size=n), max_size=3)
    ),
    st.recursive(NUMBERS, lambda inner: st.lists(inner, max_size=2), max_leaves=4),
)


def _is_wrong_type(kind, key):
    if kind is None:
        return False
    if kind == "object":
        return key not in DOCUMENT_FIELDS
    if kind == "string":
        return key not in TEXT_FIELDS
    return True


@st.composite
def edits(draw, command):
    """The documents with one field replaced, that field's key, the name an
    error must show, and the kind of wrong type, if the value is one."""
    docs = {
        name: draw(st.sampled_from(doc)) if name == "config" else doc
        for name, doc in COMMANDS[command][1].items()
    }
    name = draw(st.sampled_from(sorted(docs)))
    kind = draw(st.sampled_from([None, *WRONG_TYPE]))
    value = draw(OTHER if kind is None else WRONG_TYPE[kind])
    if not isinstance(docs[name], dict):  # a file that holds one array
        docs[name] = value
        return docs, name, name, kind
    key = draw(st.sampled_from(sorted(docs[name])))
    docs[name] = {**docs[name], key: value}
    return docs, key, repr(key), kind


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_field_value_exits_cleanly(folder, capsys, command, data):
    docs, key, named, kind = data.draw(edits(command))
    paths = {}
    for name, doc in docs.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = [a.format(**paths) for a in COMMANDS[command][0]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run([command, *argv])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err
    if _is_wrong_type(kind, key):
        assert code == 2, err
        assert named in err, err
