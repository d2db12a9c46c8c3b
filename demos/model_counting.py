"""Counting proper colorings without enumerating them.

Swapping the algebra to exact natural numbers turns the contraction value
into a model count. A path with k colors has k*(k-1)^(n-1) proper
colorings and a cycle has (k-1)^n + (-1)^n * (k-1), so both answers can be
checked in closed form. The path is a tree; the cycle needs a junction
tree. Counts are plain Python integers, so nothing overflows.
"""

from spiderbp import RunConfig, build_graph, contraction_value, run_junction_tree


def differ(k):
    """0/1 table of a 'neighbors take different colors' constraint."""
    return [0 if i == j else 1 for i in range(k) for j in range(k)]


def path_colorings(n, k):
    g = build_graph([k] * n, [((i, i + 1), differ(k)) for i in range(n - 1)], "count")
    return contraction_value(g)


def cycle_colorings(n, k):
    edges = [((i, (i + 1) % n), differ(k)) for i in range(n)]
    g = build_graph([k] * n, edges, "count")
    result = run_junction_tree(g, RunConfig(normalize=False))
    return result.contraction_value


def main():
    for n, k in [(4, 3), (6, 3), (25, 10)]:
        got = path_colorings(n, k)
        want = k * (k - 1) ** (n - 1)
        print(f"path  n={n:>2} k={k:>2}: {got}  (closed form {want})")
        assert got == want

    for n, k in [(4, 3), (6, 3), (12, 4)]:
        got = cycle_colorings(n, k)
        want = (k - 1) ** n + (-1) ** n * (k - 1)
        print(f"cycle n={n:>2} k={k:>2}: {got}  (closed form {want})")
        assert got == want


if __name__ == "__main__":
    main()
