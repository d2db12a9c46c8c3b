"""Seeded workload generators: model files plus the op list that uses them.

``write_plan(workload, seed, workdir)`` draws every model from the seed,
writes it as a native JSON or UAI file under ``workdir``, computes each
op's reference answer with ``reference`` (numpy only, never the engine)
and writes ``plan.json``. The measured process reads only that plan and
the model files.

The slot tables fix each workload's shape: which ops, on which topology,
size, dim and file format, and the ops run in slot order: an op runs
slower after one that freed a lot of memory, so a seeded order would move
the median between seeds. The seed draws only table values, tree shapes and
gradient entries, so every seed costs about the same and fails the same ops.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference as ref

#: tree-cli: (op, topology, variables, dim, format). "z" is an unnormalized
#: tree run reporting Z; "count" counts proper colourings exactly. The two
#: long float runs (z and grad at 1000 variables) have log Z near
#: 1000 * ln(dim), far past float64, so today they show ROADMAP item 3.
TREE_CLI_SLOTS = (
    ("run", "chain", 1000, 2, "native"),
    ("run", "tree", 400, 5, "uai"),
    ("run", "chain", 100, 6, "native"),
    ("run", "tree", 50, 3, "uai"),
    ("z", "tree", 50, 6, "native"),
    ("z", "chain", 100, 4, "native"),
    ("z", "tree", 200, 3, "uai"),
    ("z", "chain", 1000, 4, "native"),
    ("map", "chain", 1000, 3, "uai"),
    ("map", "tree", 200, 6, "native"),
    ("map", "chain", 50, 2, "native"),
    ("grad", "chain", 100, 3, "native"),
    ("grad", "tree", 400, 2, "uai"),
    ("grad", "tree", 1000, 5, "native"),
    ("count", "tree", 1000, 3, "native"),
    ("count", "chain", 200, 4, "uai"),
    ("count", "tree", 50, 5, "native"),
)

#: loopy-sync: (rows = cols, dim, format)
LOOPY_SLOTS = (
    (6, 2, "native"),
    (7, 2, "uai"),
    (8, 2, "native"),
    (9, 2, "uai"),
    (10, 2, "native"),
    (6, 3, "uai"),
    (7, 3, "native"),
    (8, 3, "uai"),
    (10, 3, "native"),
)

#: jtree-grid: ("grid", side, dim, format) or ("cycle", length, colours, format).
#: The 6x6 ternary grid has 2187-state cliques but its separator-product
#: factors pass the tensor cap, so today it shows ROADMAP item 2.
JTREE_SLOTS = (
    ("grid", 4, 2, "native"),
    ("grid", 5, 2, "uai"),
    ("grid", 6, 2, "native"),
    ("grid", 7, 2, "uai"),
    ("grid", 4, 3, "native"),
    ("grid", 5, 3, "uai"),
    ("grid", 5, 3, "native"),
    ("grid", 6, 3, "uai"),
    ("cycle", 12, 3, "native"),
    ("cycle", 30, 4, "uai"),
    ("cycle", 9, 5, "native"),
)

#: tail percentile reported as solve_ms.tail. With m ops per pass, run in
#: whole passes, percentile q falls at position q * m in the sorted op
#: classes; q is chosen so that it falls near the middle of one class, not
#: near the edge between two (and so does the median: each m is odd), and
#: so that a run of run_seconds leaves at least ten ops above it. Near an
#: edge the tail is a low order statistic of one class, pulled by the
#: class below, and moves with the number of passes in the run. jtree-grid's
#: top two classes (the two 5x5 ternary grids) take about the same time.
TAIL_PERCENTILE = {"tree-cli": 91, "loopy-sync": 83, "jtree-grid": 90}

WORKLOADS = tuple(TAIL_PERCENTILE)

#: coupling strength of jtree-grid tables (their values do not change the
#: junction tree's cost)
GRID_BETA = 0.5

#: loopy-sync couplings: every pairwise table is exp(+-SPIN_BETA * P) with P
#: +1 on the diagonal and -1/(d-1) off it, the sign drawn per edge, and
#: unary tables exp(SPIN_FIELD * N(0,1)). With one coupling strength on
#: every edge and these weak fields, loopy BP needs the same number of
#: sweeps on almost every seed (to 1e-9: 18 on the ternary grids, 24 on most
#: binary ones, sometimes 22 or 26); Gaussian couplings moved it by up to a
#: half between seeds, and with it every op's time.
SPIN_BETA = 0.12
SPIN_FIELD = 0.5


def _uniform(rng, shape):
    return rng.uniform(0.5, 1.5, size=shape)


def _tree_edges(rng, topology, n):
    if topology == "chain":
        return [(v - 1, v) for v in range(1, n)]
    return [(int(rng.integers(0, v)), v) for v in range(1, n)]


def tree_model(rng, topology, n, d):
    """Unary tables on every variable, then one pairwise table per edge."""
    factors = [((v,), _uniform(rng, (d,))) for v in range(n)]
    for a, b in _tree_edges(rng, topology, n):
        if rng.random() < 0.5:
            a, b = b, a
        factors.append(((a, b), _uniform(rng, (d, d))))
    return [d] * n, factors


def colouring_tree(rng, topology, n, q):
    table = 1 - np.eye(q, dtype=np.int64)
    return [q] * n, [((a, b), table) for a, b in _tree_edges(rng, topology, n)]


def colouring_cycle(n, q):
    table = 1 - np.eye(q, dtype=np.int64)
    return [q] * n, [((v, (v + 1) % n), table) for v in range(n)]


def grid_model(rng, side, d):
    """Square grid: unary tables, then horizontal, then vertical couplings.

    Returns (dims, factors, tables) where ``tables`` holds the same values
    laid out for ``reference.grid_transfer_matrix``.
    """
    def table(shape):
        return np.exp(GRID_BETA * rng.standard_normal(shape))

    unary = [[table((d,)) for _ in range(side)] for _ in range(side)]
    horiz = [[table((d, d)) for _ in range(side - 1)] for _ in range(side)]
    vert = [[table((d, d)) for _ in range(side)] for _ in range(side - 1)]
    vid = lambda i, j: i * side + j  # noqa: E731
    factors = [((vid(i, j),), unary[i][j]) for i in range(side) for j in range(side)]
    factors += [((vid(i, j), vid(i, j + 1)), horiz[i][j]) for i in range(side) for j in range(side - 1)]
    factors += [((vid(i, j), vid(i + 1, j)), vert[i][j]) for i in range(side - 1) for j in range(side)]
    return [d] * side * side, factors, (unary, horiz, vert)


def spin_glass_model(rng, side, d):
    """Square grid of ``+-SPIN_BETA`` couplings and Gaussian fields, as (dims, factors)."""
    pattern = np.where(np.eye(d, dtype=bool), 1.0, -1.0 / (d - 1))
    vid = lambda i, j: i * side + j  # noqa: E731
    factors = [((vid(i, j),), np.exp(SPIN_FIELD * rng.standard_normal(d))) for i in range(side) for j in range(side)]
    edges = [(vid(i, j), vid(i, j + 1)) for i in range(side) for j in range(side - 1)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(side - 1) for j in range(side)]
    factors += [(e, np.exp(SPIN_BETA * rng.choice((-1.0, 1.0)) * pattern)) for e in edges]
    return [d] * side * side, factors


def _number(x, integral):
    return int(x) if integral else float(x)


def write_model(path, dims, factors, fmt, hint):
    """Write a model as native JSON or UAI MARKOV text, floats in repr form."""
    integral = hint == "count"
    if fmt == "native":
        doc = {
            "semiring_hint": hint,
            "variables": [{"id": i, "name": f"v{i}", "dim": d} for i, d in enumerate(dims)],
            "factors": [
                {"id": k, "neighbors": list(nb), "values": [_number(x, integral) for x in t.reshape(-1)]}
                for k, (nb, t) in enumerate(factors)
            ],
            "mode": "spider",
        }
        text = json.dumps(doc)
    else:
        lines = ["MARKOV", str(len(dims)), " ".join(map(str, dims)), str(len(factors))]
        lines += [" ".join(map(str, (len(nb),) + tuple(nb))) for nb, _t in factors]
        lines.append("")
        for _nb, t in factors:
            lines.append(str(t.size))
            lines.append(" ".join(repr(_number(x, integral)) for x in t.reshape(-1)))
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _listed(arrays):
    return [np.asarray(a, dtype=float).tolist() for a in arrays]


def _model_path(workdir, k, fmt):
    return os.path.join(workdir, f"m{k:02d}.{'json' if fmt == 'native' else 'uai'}")


def _tree_cli_ops(rng, workdir):
    ops = []
    out = os.path.join(workdir, "out.json")
    for k, (op, topology, n, d, fmt) in enumerate(TREE_CLI_SLOTS):
        name = f"{op}/{topology}-{n}-d{d}-{fmt}"
        path = _model_path(workdir, k, fmt)
        if op == "count":
            dims, factors = colouring_tree(rng, topology, n, d)
            total, per_state = ref.tree_colourings(n, d)
            write_model(path, dims, factors, fmt, "count")
            argv = ["run", "--semiring", "count", "--schedule", "tree", "--no-normalize"]
            check = {"type": "count", "total": total, "per_state": per_state, "n": n, "q": d}
        else:
            dims, factors = tree_model(rng, topology, n, d)
            write_model(path, dims, factors, fmt, "prob")
            if op == "map":
                assignment, log_value = ref.tree_max_product(dims, factors)
                argv = ["map", "--schedule", "tree"]
                check = {"type": "map", "assignment": assignment, "log_value": log_value}
            elif op == "grad":
                fid = n + (n - 1) // 2  # the middle pairwise factor
                entry = int(rng.integers(0, d * d))
                log_z, _m, _p = ref.tree_sum_product(dims, factors)
                argv = ["grad", "--factor", str(fid), "--entry", str(entry)]
                check = {
                    "type": "grad",
                    "log_z": log_z,
                    "log_grad": ref.log_grad(dims, factors, fid, entry),
                }
            else:
                log_z, marginals, _p = ref.tree_sum_product(dims, factors)
                argv = ["run", "--schedule", "tree"]
                check = {"type": "marginals", "marginals": _listed(marginals)}
                if op == "z":
                    argv.append("--no-normalize")
                    check.update(type="partition", log_z=log_z)
        argv += ["--input", path, "--format", fmt, "--output", out]
        ops.append({"name": name, "kind": "cli", "argv": argv, "output": out, "check": check})
    return ops, []


def _loopy_ops(rng, workdir):
    ops, files = [], []
    for k, (side, d, fmt) in enumerate(LOOPY_SLOTS):
        path = _model_path(workdir, k, fmt)
        dims, factors = spin_glass_model(rng, side, d)
        write_model(path, dims, factors, fmt, "prob")
        beliefs, _sweeps = ref.loopy_bp(dims, factors)
        files.append({"path": path, "format": fmt, "semiring": "prob"})
        ops.append({
            "name": f"sync/grid-{side}x{side}-d{d}-{fmt}",
            "kind": "bp",
            "model": path,
            "check": {"type": "loopy", "marginals": _listed(beliefs)},
        })
    return ops, files


def _jtree_ops(rng, workdir):
    ops, files = [], []
    for k, (shape, size, d, fmt) in enumerate(JTREE_SLOTS):
        path = _model_path(workdir, k, fmt)
        if shape == "cycle":
            dims, factors = colouring_cycle(size, d)
            semiring = "count"
            total, per_state = ref.cycle_colourings(size, d)
            check = {"type": "count", "total": total, "per_state": per_state, "n": size, "q": d}
            name = f"jtree/cycle-{size}-q{d}-{fmt}"
        else:
            dims, factors, (unary, horiz, vert) = grid_model(rng, size, d)
            semiring = "prob"
            log_z, marginals = ref.grid_transfer_matrix(size, size, d, unary, horiz, vert)
            check = {"type": "exact", "log_z": log_z, "marginals": _listed(marginals)}
            name = f"jtree/grid-{size}x{size}-d{d}-{fmt}"
        write_model(path, dims, factors, fmt, semiring)
        files.append({"path": path, "format": fmt, "semiring": semiring})
        ops.append({"name": name, "kind": "jtree", "model": path, "semiring": semiring, "check": check})
    return ops, files


_BUILDERS = {"tree-cli": _tree_cli_ops, "loopy-sync": _loopy_ops, "jtree-grid": _jtree_ops}


def write_plan(workload, seed, workdir):
    """Generate the workload's files under ``workdir``; returns the plan path."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    ops, files = _BUILDERS[workload](rng, workdir)
    plan = {
        "workload": workload,
        "seed": seed,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "setup_files": files,
        "ops": ops,
    }
    path = os.path.join(workdir, "plan.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    return path

