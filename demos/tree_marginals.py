"""Exact marginals on a chain, two ways.

A chain of five ternary variables with random pairwise couplings is small
enough to enumerate, so brute force double-checks what message passing
produces. On a tree both schedules are exact: synchronous sweeps settle
within the graph diameter, and the two-pass schedule gets there in a
single up/down pass.
"""

import numpy as np

from spiderbp import (
    RunConfig,
    build_graph,
    exact_marginal,
    run_bp,
    tree_info,
)


def main():
    rng = np.random.default_rng(7)
    n, d = 5, 3
    factors = [((i, i + 1), rng.uniform(0.1, 2.0, size=d * d).tolist()) for i in range(n - 1)]
    factors.append(((0,), [0.7, 0.2, 0.1]))  # a prior pinning the first variable
    g = build_graph([d] * n, factors, "prob")

    info = tree_info(g)
    print(f"chain of {n} ternary variables, diameter {info.diameter}")

    for schedule in ("sync", "tree"):
        result = run_bp(g, RunConfig(schedule=schedule))
        print(f"\n{schedule:>4} schedule: converged={result.converged} "
              f"after {result.iterations} iteration(s), residual {result.residual:.2e}")
        for v in g.variables:
            belief = result.variable_beliefs[v.id].values
            exact = exact_marginal(g, g.semiring, v.id)
            exact = exact / exact.sum()
            gap = np.max(np.abs(belief - exact))
            marks = " ".join(f"{x:.4f}" for x in belief)
            print(f"  {v.obj.name}: [{marks}]   vs brute force, gap {gap:.1e}")


if __name__ == "__main__":
    main()
