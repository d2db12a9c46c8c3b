"""Round-tripping models through files and the command line.

The native format is a single JSON document; the UAI MARKOV format is the
plain-text interchange used by inference competitions. Both parse to the
same graphs, and the installed `spiderbp` command drives every operation
from a shell. This demo writes a model both ways, then invokes the CLI
in-process the same way the console script does.
"""

import json
import tempfile
from pathlib import Path

from spiderbp import build_graph, parse_uai, serialize_native, serialize_uai
from spiderbp.cli import cli_dispatch


def main():
    g = build_graph(
        [2, 3],
        [((0, 1), [1.0, 2.0, 0.5, 1.5, 1.0, 2.5]), ((0,), [0.25, 0.75])],
        "prob",
    )
    with tempfile.TemporaryDirectory() as tmp:
        native = Path(tmp) / "model.json"
        uai = Path(tmp) / "model.uai"
        native.write_text(serialize_native(g))
        uai.write_text(serialize_uai(g))
        print("native document:")
        doc = json.loads(native.read_text())
        print(json.dumps(doc, indent=2)[:320], "...\n")
        print("UAI document:")
        print(uai.read_text())

        g2, _ = parse_uai(uai.read_text())
        assert [f.tensor.data.tolist() for f in g2.factors] == [
            f.tensor.data.tolist() for f in g.factors
        ]

        for argv in (
            ["run", "--input", str(native)],
            ["exact", "--input", str(uai), "--format", "uai"],
        ):
            print(f"$ spiderbp {' '.join(argv)}")
            code = cli_dispatch(argv)
            print(f"(exit code {code})\n")
            assert code == 0


if __name__ == "__main__":
    main()
