"""When the graph has a cycle, trade it for bigger variables.

On a frustrated 4-cycle plain synchronous propagation still converges but
its beliefs are only approximate. The junction tree groups variables into
cliques (here two triples sharing a pair), reruns the same two-pass engine
on that derived tree, and recovers marginals that match brute force to
machine precision.
"""

import numpy as np

from spiderbp import (
    RunConfig,
    build_graph,
    exact_marginal,
    run_bp,
    run_junction_tree,
)


def main():
    rng = np.random.default_rng(13)
    # four binary variables in a ring, each edge preferring disagreement
    edge = [0.3, 1.0, 1.0, 0.3]
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
    factors = [(p, edge) for p in pairs]
    factors.append(((0,), rng.uniform(0.5, 1.5, size=2).tolist()))
    g = build_graph([2] * 4, factors, "prob")

    loopy = run_bp(g, RunConfig(schedule="sync", max_iters=5000))
    jt = run_junction_tree(g, RunConfig())

    print("cliques:", [c.members for c in jt.tree.cliques])
    print(f"loopy run converged after {loopy.iterations} sweeps\n")
    print("            loopy sync      junction tree   brute force")
    for v in g.variables:
        exact = exact_marginal(g, g.semiring, v.id)
        exact = exact / exact.sum()
        b_sync = loopy.variable_beliefs[v.id].values
        b_jt = jt.variable_beliefs[v.id].values
        print(f"  {v.obj.name}: [{b_sync[0]:.4f} {b_sync[1]:.4f}]  "
              f"[{b_jt[0]:.4f} {b_jt[1]:.4f}]  [{exact[0]:.4f} {exact[1]:.4f}]")
        assert np.max(np.abs(b_jt - exact)) <= 1e-12

    gap_sync = max(
        float(np.max(np.abs(loopy.variable_beliefs[v.id].values - jt.variable_beliefs[v.id].values)))
        for v in g.variables
    )
    print(f"\nworst loopy-vs-exact gap: {gap_sync:.4f} (cycles bias plain BP)")


if __name__ == "__main__":
    main()
