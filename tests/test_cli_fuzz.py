"""The CLI on mutated fixture files and random option values: every run
exits 0, 1 or 2 and none raises, so no input ends in a traceback."""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriq.cases import fixture_path
from toriq.cli import main

FANS = ("p2.json", "p3.json", "p1xp1.json", "bl0p2.json")
QUASIMAPS = ("section_line.json", "segre_q1.json", "segre_q2.json")
EMBEDDINGS = ("segre.json", "bl0p2_product.json")

FILE_COMMANDS = {
    ("fan", "validate"): FANS,
    ("fan", "info"): FANS,
    ("embed", "build"): FANS,
    ("embed", "check"): EMBEDDINGS,
    ("quasimap", "analyze"): QUASIMAPS,
    ("witness",): QUASIMAPS,
    ("contract", "check"): QUASIMAPS,
    ("contract", "apply"): QUASIMAPS,
}
# every command on each of its own fixtures, and on one fixture of another kind
FILE_RUNS = [(cmd, name) for cmd, names in FILE_COMMANDS.items() for name in names]
FILE_RUNS += [(cmd, other) for cmd, other in zip(FILE_COMMANDS, QUASIMAPS + FANS + EMBEDDINGS)]

BAD_SCALARS = ("1/2", "inf", "1/0", "")
# mostly small ints, so that many lists parse and reach the computation
ENTRIES = st.one_of(st.integers(0, 2).map(str), st.integers(-3, 6).map(str),
                    st.sampled_from(("0", "1", "inf")),
                    st.sampled_from(BAD_SCALARS + ("x", "-0", " 2 ", "1e3", "2/4")))
COMMA_LISTS = st.lists(ENTRIES, max_size=5).map(",".join)
MAX_LENGTHS = st.sampled_from((None, "3", "abc", "-1", "0"))


def _fixture(name):
    return json.loads(fixture_path(name).read_text())


def _nodes(node, path=()):
    """Every (path, node) pair of a JSON document, the root first."""
    yield path, node
    items = enumerate(node) if isinstance(node, list) else \
        node.items() if isinstance(node, dict) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutate(doc, data):
    """One edit at a drawn node: drop or duplicate a list entry, move an int
    by one, to 0 or to its negation, or put a malformed scalar in."""
    doc = copy.deepcopy(doc)
    path, node = data.draw(st.sampled_from(list(_nodes(doc))))
    kinds = ["scalar"]
    if isinstance(node, list) and node:
        kinds += ["drop", "duplicate"]
    if type(node) is int:
        kinds += ["plus", "minus", "zero", "negate"]
    kind = data.draw(st.sampled_from(kinds))
    if kind in ("drop", "duplicate"):
        i = data.draw(st.integers(0, len(node) - 1))
        node[i:i + 1] = [] if kind == "drop" else [node[i], copy.deepcopy(node[i])]
        return doc
    if kind == "scalar":
        value = data.draw(st.sampled_from(BAD_SCALARS))
    else:
        value = {"plus": node + 1, "minus": node - 1, "zero": 0, "negate": -node}[kind]
    return _replace(doc, path, value)


def _exit_code(argv, max_length=None):
    saved = os.environ.pop("TORIQ_MAX_LENGTH", None)
    if max_length is not None:
        os.environ["TORIQ_MAX_LENGTH"] = max_length
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(list(argv))
    finally:
        os.environ.pop("TORIQ_MAX_LENGTH", None)
        if saved is not None:
            os.environ["TORIQ_MAX_LENGTH"] = saved


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(FILE_RUNS), st.booleans(), st.integers(1, 3), st.data())
def test_mutated_files_exit_cleanly(scratch, run, as_json, edits, data):
    command, name = run
    doc = _fixture(name)
    for _ in range(edits):
        doc = _mutate(doc, data)
    path = scratch / "input.json"
    path.write_text(json.dumps(doc))
    argv = ("--json",) * as_json + command + (str(path),)
    assert _exit_code(argv) in (0, 1, 2)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(("orders", "length", "factor", "push")), st.sampled_from(FANS),
       COMMA_LISTS, MAX_LENGTHS)
def test_random_options_exit_cleanly(command, fan, values, max_length):
    fan = str(fixture_path(fan))
    argv = {
        "orders": ("basepoint-degree", "--fan", fan, f"--orders={values}"),
        "length": ("class", "length", fan, f"--class={values}"),
        "factor": ("class", "factor", fan, f"--class={values}"),
        "push": ("class", "push", str(fixture_path("segre.json")), f"--class={values}"),
    }[command]
    assert _exit_code(argv, max_length) in (0, 1, 2)
