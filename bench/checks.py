"""Output checks: each op's result against its engine-free reference.

``check(op, outcome)`` returns ``(status, detail)``. ``status`` is "pass",
"fail", or the key of a known defect in ``KNOWN_DEFECTS``. A known defect
is still a failed op; it is named so that a run shows which failures are
the ones already on the ROADMAP and which are new.
"""

from __future__ import annotations

import math

import numpy as np

from reference import representable

KNOWN_DEFECTS = {
    "item-3": "silent overflow: a float result past float64 comes back inf/nan/0 "
              "with exit 0 (ROADMAP item 3, scaled contraction)",
    "item-2": "CliqueTooLargeError from the separator-product tensors of "
              "run_junction_tree (ROADMAP item 2, Shafer-Shenoy)",
}

MARGINAL_ATOL = 1e-9
LOOPY_ATOL = 1e-6  # the engine stops at a 1e-9 message residual
VALUE_RTOL = 1e-8


def _close(value, log_expected, rtol=VALUE_RTOL):
    try:
        value = float(value)
    except (TypeError, ValueError):
        return False
    return math.isfinite(value) and math.isclose(value, math.exp(log_expected), rel_tol=rtol)


def _marginals_close(got, expected, atol):
    if got is None or len(got) != len(expected):
        return False
    return all(
        np.shape(g) == np.shape(e) and np.allclose(np.asarray(g, dtype=float), e, rtol=0.0, atol=atol)
        for g, e in zip(got, expected)
    )


def _belief_values(doc):
    beliefs = doc.get("beliefs", [])
    if [b["id"] for b in beliefs] != list(range(len(beliefs))):
        return None
    return [b["values"] for b in beliefs]


def _silent_overflow(rc, *values):
    """The item-3 signature: exit 0 and a non-finite or zero float result."""
    def bad(v):
        try:
            v = float(v)
        except (TypeError, ValueError):
            return False
        return not math.isfinite(v) or v == 0.0

    return rc == 0 and any(bad(v) for v in values)


def _check_cli(c, rc, doc):
    if doc is None:
        return "fail", f"exit {rc}, no output document"
    kind = c["type"]
    if kind in ("partition", "grad"):
        logs = [c["log_z"]] + ([c["log_grad"]] if kind == "grad" else [])
        values = [doc.get("contraction_value")] if kind == "partition" else [doc.get("value"), doc.get("derivative")]
        if not all(representable(x) for x in logs):
            if _silent_overflow(rc, *values):
                return "item-3", f"log of true value {max(logs):.1f} > float64 range; got {values}"
            return "fail", f"exit {rc}, unrepresentable result reported as {values}"
    if rc != 0:
        return "fail", f"exit {rc}"
    if kind == "marginals":
        ok = doc.get("converged") is True and _marginals_close(_belief_values(doc), c["marginals"], MARGINAL_ATOL)
        return ("pass", "") if ok else ("fail", "marginals differ from forward-backward")
    if kind == "partition":
        z = doc.get("contraction_value")
        if not _close(z, c["log_z"]):
            return "fail", f"Z {z} != exp({c['log_z']:.6f})"
        zf = math.exp(c["log_z"])
        scaled = [np.asarray(m) * zf for m in c["marginals"]]
        if not _marginals_close(_belief_values(doc), scaled, VALUE_RTOL * zf):
            return "fail", "unnormalized beliefs differ from Z * marginal"
        return "pass", ""
    if kind == "grad":
        if not _close(doc.get("value"), c["log_z"]):
            return "fail", f"value {doc.get('value')} != Z"
        if not _close(doc.get("derivative"), c["log_grad"], rtol=1e-7):
            return "fail", f"derivative {doc.get('derivative')} != exp({c['log_grad']:.6f})"
        return "pass", ""
    if kind == "map":
        got = [a["state"] for a in doc.get("assignment", [])]
        if got != c["assignment"]:
            return "fail", "assignment differs from Viterbi"
        if not _close(doc.get("value"), c["log_value"]):
            return "fail", f"value {doc.get('value')} != exp({c['log_value']:.6f})"
        return "pass", ""
    if kind == "count":
        return _check_count(c, doc.get("contraction_value"), _belief_values(doc))
    raise ValueError(f"unknown check type {kind!r}")


def _check_count(c, total, beliefs):
    if total != c["total"]:
        return "fail", f"count {total} != {c['total']}"
    expected = [[c["per_state"]] * c["q"]] * c["n"]
    if beliefs is None or [list(map(int, b)) for b in beliefs] != expected:
        return "fail", "per-state counts differ from the closed form"
    return "pass", ""


def check(op, outcome):
    """Status and detail for one op. ``outcome`` holds "error" (an exception
    type name), or "rc" and "doc" for CLI ops, or "result" otherwise."""
    c = op["check"]
    if outcome.get("error"):
        if op["kind"] == "jtree" and outcome["error"] == "CliqueTooLargeError":
            return "item-2", outcome.get("message", "")
        return "fail", f"{outcome['error']}: {outcome.get('message', '')}"
    if op["kind"] == "cli":
        return _check_cli(c, outcome["rc"], outcome["doc"])
    result = outcome["result"]
    if op["kind"] == "bp":
        if not result["converged"]:
            return "fail", "sync run did not converge"
        if not _marginals_close(result["marginals"], c["marginals"], LOOPY_ATOL):
            return "fail", "beliefs differ from numpy loopy BP"
        return "pass", ""
    if c["type"] == "count":
        return _check_count(c, result["z"], result["marginals"])
    if not _close(result["z"], c["log_z"]):
        return "fail", f"Z {result['z']} != exp({c['log_z']:.6f})"
    if not _marginals_close(result["marginals"], c["marginals"], MARGINAL_ATOL):
        return "fail", "marginals differ from the transfer matrix"
    return "pass", ""
