"""Run the mutation catalogue ``tests/mutants.json`` against the test suite.

    python3 tests/run_mutants.py [MUTANT_ID ...]

A mutant names a file of the checkout, a ``before`` snippet that occurs in
it exactly once, the ``after`` snippet that replaces it, the test node ids
("killers") that must fail once it is applied, and what it guards. For each
mutant (every one, or those named) the runner copies ``src/``, ``tests/``
and ``pyproject.toml`` into a fresh temporary directory, applies the mutant
there and runs each killer on its own with pytest, stopping at that
killer's first failure. A killer kills when it fails and is weak when it
passes; a mutant is killed when a killer kills and survives when none does.
A pytest run that cannot start or collects nothing is an error. The
checkout itself is never modified. It exits 1 when a mutant survives or
errs or a killer is weak, else 0, after a summary line. It uses the
standard library only and is not part of the test suite: each (mutant,
killer) pair costs one pytest run.
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
    """("killed", "survived" or "error", the killers that pass, a note):
    the note is the tail of the first erring pytest run, else of the last."""
    with tempfile.TemporaryDirectory(prefix="spiderbp-mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        path = tmp / mutant["file"]
        try:
            path.write_text(applied(path.read_text(), mutant))
        except ValueError as err:
            return "error", [], str(err)
        weak = []
        for killer in mutant["killers"]:
            cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", killer]
            proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True)
            tail = (proc.stdout.strip().splitlines() or [""])[-1]
            if proc.returncode not in (0, 1):
                return "error", [], f"{killer}: {tail}"
            if proc.returncode == 0:
                weak.append(killer)
    return ("survived" if len(weak) == len(mutant["killers"]) else "killed"), weak, tail


def main(argv):
    mutants = json.loads(CATALOGUE.read_text())
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    counts, pairs, kills = {"killed": 0, "survived": 0, "error": 0}, 0, 0
    for mutant in mutants:
        status, weak, tail = outcome(mutant)
        counts[status] += 1
        pairs += len(mutant["killers"])
        kills += 0 if status == "error" else len(mutant["killers"]) - len(weak)
        print(f"{status:8s} {mutant['id']}: {tail}", flush=True)
        for killer in weak:
            print(f"weak     {mutant['id']}: {killer} passes", flush=True)
    print(
        f"mutants: {counts['killed']} killed, {counts['survived']} survived, {counts['error']} errors, of {len(mutants)}; "
        f"{kills} of {pairs} killers kill"
    )
    return 0 if counts["killed"] == len(mutants) and kills == pairs else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
