"""Run the mutation catalogue ``tests/mutants.json`` against the test suite.

    python3 tests/run_mutants.py [MUTANT_ID ...]

A mutant names a file of the checkout, a ``before`` snippet that occurs in
it exactly once, the ``after`` snippet that replaces it, the test node ids
("killers") that must fail once it is applied, and what it guards. For each
mutant (every one, or those named) the runner copies ``src/``, ``tests/``
and ``pyproject.toml`` into a fresh temporary directory, applies the mutant
there and runs its killers with pytest, stopping at the first failure. A
mutant is killed when a killer fails and survives when they all pass; a
pytest run that cannot start or collects nothing is an error. The checkout
itself is never modified. It exits 1 when a mutant survives or errs, else
0, after a summary line. It uses the standard library only and is not part
of the test suite: each mutant costs one pytest run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants.json"


def applied(text, mutant):
    """``text`` with the mutant's one ``before`` replaced by its ``after``."""
    if text.count(mutant["before"]) != 1:
        raise ValueError(f"{mutant['id']}: 'before' occurs {text.count(mutant['before'])} times in {mutant['file']}")
    return text.replace(mutant["before"], mutant["after"])


def outcome(mutant):
    """"killed", "survived" or "error", with the tail of pytest's output."""
    with tempfile.TemporaryDirectory(prefix="spiderbp-mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        path = tmp / mutant["file"]
        try:
            path.write_text(applied(path.read_text(), mutant))
        except ValueError as err:
            return "error", str(err)
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant["killers"]]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True)
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), tail


def main(argv):
    mutants = json.loads(CATALOGUE.read_text())
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    counts = {"killed": 0, "survived": 0, "error": 0}
    for mutant in mutants:
        status, tail = outcome(mutant)
        counts[status] += 1
        print(f"{status:8s} {mutant['id']}: {tail}", flush=True)
    print(f"mutants: {counts['killed']} killed, {counts['survived']} survived, {counts['error']} errors, of {len(mutants)}")
    return 0 if counts["killed"] == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
