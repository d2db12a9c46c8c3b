"""Every file's content gets a typed answer from the CLI.

Seeded small models in both formats, mutated as text and (native) as
JSON structure, run through each subcommand that reads a model. Whatever
the file holds, ``cli_dispatch`` returns an exit code for the outcome
(never 1, which is for bad flags), every stderr line is one JSON object
with a ``level``, and a normalized result document holds no ``nan``.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderbp import dual_seed, serialize_native, serialize_uai
from spiderbp.cli import cli_dispatch

from fixtures import random_loopy, random_tree

COMMANDS = (
    ["run"],
    ["run", "--schedule", "tree", "--no-normalize"],
    ["exact"],
    ["jtree"],
    ["map"],
    ["grad", "--factor", "0", "--entry", "0"],
)
#: success, parse/validation, not converged, contradiction, size cap
FILE_EXITS = {0, 2, 3, 4, 5}
#: what a JSON-structure mutation puts in place of a value
SWAPS = (None, [], [1, 2], {}, {"id": 0}, "prob", 10**400, -1, 1.5, True, float("nan"))
#: characters a text mutation inserts: JSON and UAI syntax, digits, signs
CHARS = '{}[]",: \n-+.0129eEnaNtf'


def _model(rng, fmt):
    semiring = str(rng.choice(["prob", "maxtimes", "count", "bool"] + (["dual"] if fmt == "native" else [])))
    build = random_tree if rng.random() < 0.5 else random_loopy
    g = build(rng, "prob" if semiring == "dual" else semiring, max_vars=5)
    if semiring == "dual":
        g = dual_seed(g, 0, 0)
    return (serialize_native if fmt == "native" else serialize_uai)(g)


def _mutate_text(rng, text, count):
    for _ in range(count):
        i = int(rng.integers(0, len(text) + 1))
        j = min(len(text), i + int(rng.integers(0, 4)))
        kind = int(rng.integers(0, 3))
        if kind == 0:  # delete a short run
            text = text[:i] + text[j:]
        elif kind == 1:  # insert a syntax character
            text = text[:i] + CHARS[int(rng.integers(0, len(CHARS)))] + text[i:]
        else:  # repeat a short run
            text = text[:j] + text[i:j] + text[j:]
    return text


def _slots(node):
    """Every (container, key) inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _mutate_structure(rng, text, count):
    doc = json.loads(text)
    for _ in range(count):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = slots[int(rng.integers(0, len(slots)))]
        if isinstance(node, dict) and rng.random() < 0.2:
            del node[key]
        else:
            node[key] = SWAPS[int(rng.integers(0, len(SWAPS)))]
    return json.dumps(doc)


def _dispatch(argv):
    """(exit code, stdout, stderr) of one ``cli_dispatch`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_typed(path, fmt, command):
    argv = command[:1] + ["--input", path, "--format", fmt] + command[1:]
    code, out, err = _dispatch(argv)
    assert code in FILE_EXITS, (argv, code, err)
    for line in err.splitlines():
        assert "level" in json.loads(line), line
    if code == 0 and "--no-normalize" not in command:
        assert "NaN" not in out, (argv, out)


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(["native", "uai"]),
    structural=st.booleans(),
    count=st.integers(0, 3),
)
def test_every_file_gets_a_typed_exit(seed, fmt, structural, count):
    rng = np.random.default_rng(seed)
    text = _model(rng, fmt)
    if structural and fmt == "native":
        text = _mutate_structure(rng, text, count)
    else:
        text = _mutate_text(rng, text, count)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "model." + ("json" if fmt == "native" else "uai"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for command in COMMANDS:
            _assert_typed(path, fmt, command)


class TestNamedRegressions:
    """Files that once parsed to a graph they could not write back, or to
    another model than the one they describe."""

    def _exits(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return [_dispatch([c[0], "--input", str(path)] + c[1:])[0] for c in COMMANDS]

    def test_a_bool_dim_is_exit_2(self, tmp_path):
        doc = {"variables": [{"id": 0, "dim": True}], "factors": [{"id": 0, "neighbors": [0], "values": [1.0]}]}
        assert self._exits(tmp_path, doc) == [2] * len(COMMANDS)

    def test_a_float_neighbor_id_is_exit_2(self, tmp_path):
        doc = {
            "variables": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}],
            "factors": [{"id": 0, "neighbors": [0, 1.0], "values": [1.0, 2.0, 3.0, 4.0]}],
        }
        assert self._exits(tmp_path, doc) == [2] * len(COMMANDS)
        _code, _out, err = _dispatch(["run", "--input", str(tmp_path / "model.json")])
        assert json.loads(err)["message"] == "factor 0: neighbor ids must be integers, got 1.0"

    @pytest.mark.parametrize("text, message", [
        ("MARKOV\n1\n2\n1\n-1\n\n1\n5.0\n", "expected the scope size of factor 0 at byte offset 13, got '-1'"),
        ("MARKOV\n-1\n-1\n", "expected the variable count at byte offset 7, got '-1'"),
        ("MARKOV\n1\n2\n0\n7 8 9 garbage\n", "expected the end of input after the last table at byte offset 13, got '7'"),
    ])
    def test_a_malformed_uai_file_is_exit_2(self, tmp_path, text, message):
        path = tmp_path / "model.uai"
        path.write_text(text)
        for c in COMMANDS:
            code, _out, err = _dispatch([c[0], "--input", str(path), "--format", "uai"] + c[1:])
            assert (code, json.loads(err)["message"]) == (2, message)
