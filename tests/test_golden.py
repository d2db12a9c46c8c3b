"""Bit-identity digest: one sha256 per seeded record, checked in as ``golden.json``.

The engine promises bit-for-bit reproducible answers on one platform. Each
record below runs seeded ``fixtures`` models (all five semirings) through
one entry point and hashes every bit of what comes back: ``run_bp`` under
both schedules, normalized or not and damped, ``contraction_value``,
``contraction_derivative``, ``decode_map``, ``run_junction_tree`` and a few
CLI documents from native and UAI files. A change that regroups a sum or a
product moves some digest.

``golden.json`` maps a platform key (numpy version, machine, byte order)
to its digests. On a platform the file knows, every digest must match. On
another, the records must hash the same twice in one process, and the
failure message names the key to rewrite.

Rewriting the file changes the contract on purpose, so name the records
that changed, and why, where the change is described. To rewrite this
platform's entry, printing the names of the records whose digest moved:

    PYTHONPATH=src python tests/test_golden.py --rewrite
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from spiderbp import RunConfig, build_graph, contraction_value, decode_map, dual_seed, run_bp, run_junction_tree
from spiderbp import serialize_native, serialize_uai
from spiderbp.cli import cli_dispatch
from spiderbp.engine import contraction_derivative

from fixtures import random_forest, random_loopy, random_tree, table_for, wire_messages

GOLDEN = Path(__file__).with_name("golden.json")
NAMES = ("prob", "maxtimes", "bool", "count", "dual")


def platform_key():
    return f"numpy {np.__version__} {platform.machine()} {sys.byteorder}-endian"


def _bits(x):
    """Every bit of an answer, as a repr: arrays by dtype, shape and bytes
    (object arrays entry by entry, with each entry's type)."""
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k!r}: {_bits(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(_bits, x)) + "]"
    if hasattr(x, "as_array"):
        x = x.as_array()
    elif hasattr(x, "data") and hasattr(x, "shape"):
        x = np.asarray(x.data).reshape(x.shape)
    elif hasattr(x, "values") and hasattr(x, "obj"):
        x = x.values
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return f"{x.shape} {[(type(v).__name__, v) for v in x.ravel().tolist()]!r}"
        return f"{x.dtype} {x.shape} {x.tobytes().hex()}"
    return f"{type(x).__name__}:{x!r}"


def _result(result):
    state = result.state
    return (
        result.converged,
        result.iterations,
        result.residual,
        result.contradiction,
        result.contradiction_wire,
        result.variable_beliefs,
        result.factor_beliefs,
        [sorted(arrays.items()) for arrays in wire_messages(state)],
    )


def _grid(rng, name, n=4):
    """An n x n grid with pairwise couplings and a field on every variable."""
    factors = []
    for i in range(n * n):
        r, c = divmod(i, n)
        factors += [((i, j), table_for(rng, name, 4)) for j in ([i + 1] if c + 1 < n else []) + ([i + n] if r + 1 < n else [])]
        factors.append(((i,), table_for(rng, name, 2)))
    return build_graph([2] * (n * n), factors, name)


def _repeated(rng, name):
    """Mixed dims and one factor on one variable twice."""
    dims = [2, 3, 4, 3]
    scopes = [(0, 1), (1, 1, 2), (2, 3), (3, 0), (1,)]
    return build_graph(dims, [(s, table_for(rng, name, int(np.prod([dims[v] for v in s])))) for s in scopes], name)


def _models(name, rng):
    """(label, graph, is a tree) per seeded model of semiring ``name``."""
    if name == "dual":
        for label, g, tree in _models("prob", rng):
            if label.startswith(("tree", "loopy")):
                f = g.factors[int(rng.integers(len(g.factors)))]
                yield label, dual_seed(g, f.id, int(rng.integers(f.tensor.size))), tree
        return
    for k in range(3):
        yield f"tree{k}", random_tree(rng, name), True
    for k in range(2):
        yield f"forest{k}", random_forest(rng, name), True
    if name != "count":  # count under sync needs a cycle-free graph
        for k in range(2):
            yield f"loopy{k}", random_loopy(rng, name), False
        yield "grid", _grid(rng, name), False
        yield "repeated", _repeated(rng, name), False


def _configs(name, tree):
    # few enough sweeps that unnormalized loopy messages stay finite
    configs = [RunConfig(max_iters=25), RunConfig(normalize=False, max_iters=25 if tree else 8)]
    if tree:
        configs += [RunConfig(schedule="tree", normalize=n) for n in (True, False)]
    if name == "prob":
        configs.append(RunConfig(damping=0.3, max_iters=60))
    return configs


def _engine_records(name):
    rng = np.random.default_rng(2100 + NAMES.index(name))
    for label, g, tree in _models(name, rng):
        key = f"{name}/{label}"
        for cfg in _configs(name, tree):
            result = run_bp(g, cfg)
            yield f"{key}/run_bp/{cfg.schedule}/norm={cfg.normalize}/damping={cfg.damping}", _result(result)
            if name in ("prob", "maxtimes", "bool", "count"):
                yield f"{key}/decode_map/{cfg.schedule}/norm={cfg.normalize}/damping={cfg.damping}", decode_map(g, result.state)
        if tree:
            yield f"{key}/contraction_value", contraction_value(g)
        if tree and name == "prob":
            f = g.factors[int(rng.integers(len(g.factors)))]
            entry = int(rng.integers(f.tensor.size))
            yield f"{key}/contraction_derivative/{f.id}/{entry}", contraction_derivative(g, f.id, entry)
        for normalize in (True, False):
            jt = run_junction_tree(g, RunConfig(normalize=normalize))
            yield f"{key}/run_junction_tree/norm={normalize}", (
                jt.contraction_value, jt.variable_beliefs, jt.clique_beliefs, jt.contradiction
            )


#: (command, model semiring, file format, extra flags) of each CLI record
_CLI = [
    ("run", "prob", "native", []),
    ("run", "prob", "uai", ["--schedule", "tree", "--no-normalize"]),
    ("run", "bool", "native", ["--schedule", "tree"]),
    ("map", "prob", "uai", []),
    ("grad", "prob", "native", ["--factor", "1", "--entry", "2"]),
    ("jtree", "count", "native", []),
]


def _cli_records():
    rng = np.random.default_rng(2199)
    with tempfile.TemporaryDirectory() as tmp:
        for k, (command, name, fmt, flags) in enumerate(_CLI):
            dims = [2, 3, 2, 2]
            scopes = [(0, 1), (1, 2), (1, 3), (0,)]
            g = build_graph(dims, [(s, table_for(rng, name, int(np.prod([dims[v] for v in s])))) for s in scopes], name)
            model, out = Path(tmp, f"model{k}.{fmt}"), Path(tmp, f"out{k}.json")
            model.write_text(serialize_native(g) if fmt == "native" else serialize_uai(g), encoding="utf-8")
            argv = [command, "--input", str(model), "--output", str(out), "--format", fmt, *flags]
            if fmt == "native" and command not in ("map", "grad"):
                argv += ["--semiring", name]
            code = cli_dispatch(argv)
            yield f"cli/{command}/{name}/{fmt}/{' '.join(flags)}", (code, out.read_bytes())


def digests():
    """Record name -> sha256 of the record's bits, in record order."""
    records = [rec for name in NAMES for rec in _engine_records(name)]
    records += list(_cli_records())
    out = {}
    for label, value in records:
        assert label not in out, label
        out[label] = hashlib.sha256(_bits(value).encode()).hexdigest()
    return out


def changed_records(got, want):
    """Sorted names of the records whose digest differs between two digest
    dicts, counting a record that only one of them has."""
    return sorted(set(got) ^ set(want) | {k for k in got.keys() & want.keys() if got[k] != want[k]})


def test_every_record_keeps_its_bits():
    key, got = platform_key(), digests()
    kept = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if key not in kept:
        assert got == digests(), f"records differ between two runs on {key!r}"
        return
    want = kept[key]
    changed = changed_records(got, want)
    assert not changed, f"{len(changed)} of {len(want)} records changed on {key!r}: {changed[:10]}"


def test_changed_records_names_moved_added_and_dropped_records():
    want = {"a": "1", "b": "2", "c": "3", "d": "4"}
    got = {"d": "4", "c": "30", "a": "1", "e": "5"}
    assert changed_records(got, want) == ["b", "c", "e"]
    assert changed_records(want, got) == ["b", "c", "e"]
    assert changed_records(want, dict(want)) == []


def rewrite():
    """Write this platform's digests and print the records that changed
    against its kept entry, one name per line."""
    kept = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    key, got = platform_key(), digests()
    if key in kept:
        changed = changed_records(got, kept[key])
        print(f"{len(changed)} of {len(got)} records changed on {key!r}:", *changed, sep="\n")
    kept[key] = got
    GOLDEN.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(got)} digests for {key!r} to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(__doc__)
    rewrite()
