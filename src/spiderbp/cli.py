"""Command-line front end.

Subcommands operate on factor-graph files (native JSON or UAI) and print a
JSON result document to stdout (or ``--output``). Diagnostics go to stderr
as single-line JSON objects so they are easy to collect from scripts; a
Python warning raised while a command runs (numpy's overflow warnings, say)
becomes one such ``warning`` line per distinct message, after the command's
own diagnostics.

Exit codes:

====  =========================================================
   0  success
   1  usage error (bad flags, bad flag combinations)
   2  parse or validation failure (including non-tree input to
      tree-only operations)
   3  schedule finished without converging
   4  contradiction: an all-zero message or belief (dead support)
   5  a size cap was exceeded (tensor, oracle, or clique)
====  =========================================================
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from .algebra import SEMIRINGS, get_semiring
from .checks import run_all_checks
from .engine import (
    RunConfig,
    contraction_derivative,
    contraction_from_state,
    decode_map,
    evaluate_assignment,
    run_bp,
)
from .errors import (
    NotATreeError,
    ParseError,
    TooLargeError,
    ValidationError,
)
from .formats import parse_native, parse_uai, serialize_native, serialize_uai
from .jtree import run_junction_tree
from .oracle import exact_contraction, exact_marginal, joint_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NOT_CONVERGED = 3
EXIT_CONTRADICTION = 4
EXIT_TOO_LARGE = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit."""

    def error(self, message):
        raise _UsageError(message)


def _diag(level, message, **extra):
    record = {"level": level, "message": message}
    record.update(extra)
    sys.stderr.write(json.dumps(record) + "\n")


@functools.cache
def _build_parser():
    """The argparse tree, built once per process: parsing keeps no state
    in it between calls. Each subcommand takes only the flags it reads."""
    output = _Parser(add_help=False)
    output.add_argument("--output", help="write the result document here instead of stdout")
    io = _Parser(add_help=False, parents=[output])
    io.add_argument("--input", help="path to the factor-graph file")
    io.add_argument(
        "--format",
        choices=("native", "uai"),
        default="native",
        help="input file format (default: native)",
    )
    io.add_argument(
        "--semiring",
        choices=tuple(SEMIRINGS),
        default=None,
        help="semiring to parse the file under (default: from the file, else prob)",
    )
    no_normalize = _Parser(add_help=False)
    no_normalize.add_argument(
        "--no-normalize",
        action="store_true",
        help="keep messages unnormalized (required for contraction values)",
    )
    bp = _Parser(add_help=False, parents=[no_normalize])
    bp.add_argument(
        "--schedule",
        choices=("sync", "tree"),
        default="sync",
        help="message schedule (default: sync)",
    )
    bp.add_argument("--max-iters", type=int, default=1000)
    bp.add_argument("--tol", type=float, default=1e-9)
    bp.add_argument("--damping", type=float, default=0.0)

    parser = _Parser(prog="spiderbp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser("run", parents=[io, bp], help="run belief propagation")
    sub.add_parser("exact", parents=[io], help="brute-force contraction and marginals")
    sub.add_parser("jtree", parents=[io, no_normalize], help="junction-tree marginals on loopy graphs")
    sub.add_parser("map", parents=[io, bp], help="max-times decoding of a best assignment")
    grad = sub.add_parser("grad", parents=[io], help="derivative of the contraction value")
    grad.add_argument("--factor", type=int, required=True, help="factor id to differentiate")
    grad.add_argument(
        "--entry",
        type=int,
        required=True,
        help="flat row-major index of the entry within the factor table",
    )
    check = sub.add_parser("check", parents=[output], help="self-test the algebra and tensor laws")
    check.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    sub.add_parser("convert", parents=[io], help="convert between native and uai formats")

    return parser


def _load_graph(args, semiring=None):
    """Parse the input file under ``semiring``, else ``--semiring``; the
    graph carries the semiring it was parsed under. A parser's warnings are
    caught with the rest of the command's (``cli_dispatch``)."""
    if not args.input:
        raise _UsageError(f"{args.command} requires --input")
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ParseError(f"cannot read {args.input}: {err}") from err
    semiring = semiring or args.semiring
    if args.format == "uai":
        return parse_uai(text, semiring=semiring or "prob")[0]
    return parse_native(text, semiring=semiring)[0]


def _emit(args, document):
    """Write a result document as one line of compact JSON."""
    _write(args, json.dumps(document) + "\n")


def _write(args, payload):
    """Write ``payload`` to ``--output``, else to stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _values_json(semiring, values):
    """The JSON list of an array of scalars: ``tolist`` gives every
    algebra's JSON values but dual's pairs."""
    flat = values.reshape(-1).tolist()
    return [semiring.value_to_json(v) for v in flat] if semiring.name == "dual" else flat


def _beliefs_document(g, beliefs, z=None, converged=True, iterations=1, residual=0.0):
    """A run's result document; the defaults are those of an exact run."""
    semiring = get_semiring(g.semiring)
    doc = {
        "converged": bool(converged),
        "iterations": int(iterations),
        "residual": float(residual) if math.isfinite(residual) else None,  # JSON has no inf
        "semiring": semiring.name,
        "beliefs": [
            {"id": vid, "values": _values_json(semiring, belief.values)}
            for vid, belief in sorted(beliefs.items())
        ],
    }
    if z is not None:
        doc["contraction_value"] = semiring.value_to_json(z)
    return doc


def _config(args):
    """The run's config from the bp flags; read before the input file, so a
    bad value is a usage error whatever the file holds."""
    try:
        return RunConfig(
            schedule=args.schedule,
            max_iters=args.max_iters,
            tol=args.tol,
            damping=args.damping,
            normalize=not args.no_normalize,
        )
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _run_bp(g, cfg):
    if cfg.damping > 0.0 and g.semiring != "prob":  # the engine's ValueError, as a usage error
        raise _UsageError(f"--damping needs a prob model, not {g.semiring}")
    return run_bp(g, cfg)


def _run_failure(result):
    """A failed run's diagnostic and exit code; None for a run that
    converged without a contradiction."""
    if result.contradiction:
        _diag("error", "contradiction: an all-zero message or belief was produced",
              wire=list(result.contradiction_wire) if result.contradiction_wire else None)
        return EXIT_CONTRADICTION
    if not result.converged:
        _diag("error", f"did not converge in {result.iterations} iterations "
              f"(residual {result.residual:.3e})")
        return EXIT_NOT_CONVERGED
    return None


def _cmd_run(args):
    cfg = _config(args)
    g = _load_graph(args)
    result = _run_bp(g, cfg)
    z = None
    if args.no_normalize and args.schedule == "tree":
        # the unnormalized two-pass state is exact: close it directly
        z = contraction_from_state(g, result.state)
    _emit(args, _beliefs_document(g, result.variable_beliefs, z, result.converged, result.iterations, result.residual))
    return _run_failure(result) or EXIT_OK


def _cmd_exact(args):
    g = _load_graph(args)
    semiring = get_semiring(g.semiring)
    table = joint_table(g, semiring)  # built once, read by every answer
    doc = {
        "semiring": semiring.name,
        "contraction_value": semiring.value_to_json(exact_contraction(g, semiring, table=table)),
        "marginals": [
            {"id": v.id, "values": _values_json(semiring, exact_marginal(g, semiring, v.id, table=table))}
            for v in g.variables
        ],
    }
    _emit(args, doc)
    return EXIT_OK


def _cmd_jtree(args):
    g = _load_graph(args)
    jt = run_junction_tree(g, RunConfig(normalize=not args.no_normalize))
    doc = _beliefs_document(g, jt.variable_beliefs, jt.contraction_value)
    doc["cliques"] = [{"id": c.id, "members": list(c.members)} for c in jt.tree.cliques]
    _emit(args, doc)
    if jt.contradiction:
        _diag("error", "contradiction: the model admits no satisfying state")
        return EXIT_CONTRADICTION
    return EXIT_OK


def _cmd_map(args):
    if args.semiring not in (None, "maxtimes"):
        raise _UsageError("map decodes under maxtimes; drop --semiring")
    cfg = _config(args)
    g = _load_graph(args, "maxtimes")
    result = _run_bp(g, cfg)
    failed = _run_failure(result)
    if failed:
        return failed
    assignment = decode_map(g, result.state)
    value = evaluate_assignment(g, assignment)
    doc = {
        "semiring": "maxtimes",
        "converged": True,
        "iterations": int(result.iterations),
        "assignment": [{"id": vid, "state": int(s)} for vid, s in sorted(assignment.items())],
        "value": get_semiring("maxtimes").value_to_json(value),
    }
    _emit(args, doc)
    return EXIT_OK


def _cmd_grad(args):
    if args.semiring not in (None, "dual"):
        raise _UsageError("grad runs under the dual semiring; drop --semiring")
    value, derivative = contraction_derivative(_load_graph(args, "prob"), args.factor, args.entry)
    doc = {
        "semiring": "dual",
        "factor": args.factor,
        "entry": args.entry,
        "value": float(value),
        "derivative": float(derivative),
    }
    _emit(args, doc)
    return EXIT_OK


def _cmd_check(args):
    reports = run_all_checks(samples=1000, seed=args.seed)
    doc = {
        "ok": all(r.ok for r in reports),
        "suites": [
            {
                "name": r.name,
                "checks": r.checks,
                "failures": list(r.failures),
            }
            for r in reports
        ],
    }
    _emit(args, doc)
    if not doc["ok"]:
        _diag("error", "self-checks failed")
        return EXIT_USAGE
    return EXIT_OK


def _cmd_convert(args):
    g = _load_graph(args)
    _write(args, serialize_native(g) if args.format == "uai" else serialize_uai(g))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "exact": _cmd_exact,
    "jtree": _cmd_jtree,
    "map": _cmd_map,
    "grad": _cmd_grad,
    "check": _cmd_check,
    "convert": _cmd_convert,
}


def cli_dispatch(argv):
    """Run one CLI invocation; returns the exit code."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _dispatch(argv)
    for message in dict.fromkeys(str(w.message) for w in caught):
        _diag("warning", message)
    return code


def _dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required (run, exact, jtree, map, grad, check, convert)")
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        _diag("error", f"usage: {err}")
        return EXIT_USAGE
    except TooLargeError as err:
        _diag("error", str(err))
        return EXIT_TOO_LARGE
    except (ParseError, ValidationError, NotATreeError) as err:
        _diag("error", str(err))
        return EXIT_PARSE


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
