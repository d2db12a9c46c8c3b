"""Constraint propagation over true/false support.

Under the boolean algebra a belief answers "which states of this variable
extend to a full satisfying assignment?" — messages carry possibility, not
probability. A satisfiable rule set leaves at least one true entry
everywhere; adding one more rule kills every assignment and the run flags
the contradiction while still returning its all-false beliefs.
"""

from spiderbp import RunConfig, build_graph, run_bp

IMPLIES = [1, 1, 0, 1]  # rows: antecedent; truth table of "row -> column"
XOR = [0, 1, 1, 0]


def show(tag, g):
    result = run_bp(g, RunConfig(schedule="tree"))
    print(f"{tag}: contradiction={result.contradiction}", end="")
    if result.contradiction:
        print(f" (first wiped-out domain: {result.contradiction_wire})")
    else:
        print()
    for v in g.variables:
        support = ["F", "T"]
        states = [support[i] for i, x in enumerate(result.variable_beliefs[v.id].values) if x]
        print(f"  {v.obj.name} can be: {', '.join(states) if states else 'nothing'}")
    return result


def main():
    # rain -> wet, wet XOR dry, and it does rain
    rules = [((0, 1), IMPLIES), ((1, 2), XOR), ((0,), [0, 1])]
    g = build_graph([("rain", 2), ("wet", 2), ("dry", 2)], rules, "bool")
    show("satisfiable ", g)

    # now also assert the pavement stays dry: nothing satisfies all four
    g2 = build_graph([("rain", 2), ("wet", 2), ("dry", 2)], rules + [((2,), [0, 1])], "bool")
    result = show("contradicted", g2)
    assert result.contradiction


if __name__ == "__main__":
    main()
