"""The mutation catalogue stays applicable as the code moves.

``tests/run_mutants.py`` applies each mutant of ``tests/mutants.json`` to a
copy of the checkout and runs its killers; this check only reads files: each
``before`` occurs exactly once in its file, and each killer names a test
function that exists.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_applies_once_and_names_existing_killers():
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    assert mutants and len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert set(m) == {"id", "file", "before", "after", "killers", "guards"}, m["id"]
        assert (ROOT / m["file"]).read_text().count(m["before"]) == 1, m["id"]
        assert m["before"] != m["after"] and m["killers"] and m["guards"], m["id"]
        for node in m["killers"]:
            path, *names = node.split("::")
            text = (ROOT / path).read_text()
            for kind, name in zip(["class"] * (len(names) - 1) + ["def"], names):
                assert re.search(rf"^\s*{kind} {re.escape(name)}\b", text, re.M), (m["id"], node)
