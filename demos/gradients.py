"""Derivatives of the partition sum, by running inference once more.

The dual-number algebra carries a + b*eps with eps^2 = 0. Lifting a model
so that a single factor entry reads theta + 1*eps and contracting as usual
leaves Z in the real component and dZ/dtheta in the eps component — exact
forward-mode differentiation through message passing, no graph surgery.
This is the generic-algebra route. ``spiderbp grad`` takes the direct one:
Z is linear in theta, so dZ/dtheta is the diagram with that factor cut
out, the product of the messages flowing into it (its cavity), read off
one plain prob run (``contraction_derivative``). Both routes agree, central
differences confirm them, and a loop over one factor's entries yields its
whole sensitivity table.
"""

import numpy as np

from spiderbp import build_graph, contraction_value, dual_seed, exact_contraction
from spiderbp.engine import contraction_derivative


def make_model(bump=0.0):
    pair = np.array([1.0, 2.0, 3.0, 4.0])
    pair[2] += bump
    return build_graph(
        [2, 2, 2],
        [((0, 1), pair.tolist()), ((1, 2), [0.5, 1.5, 2.5, 0.5]), ((0,), [0.6, 0.4])],
        "prob",
    )


def main():
    z = contraction_value(dual_seed(make_model(), 0, 2))
    print(f"Z = {z.real:.6f},  dZ/d(factor 0, entry 2) = {z.eps:.6f}")
    value, cavity = contraction_derivative(make_model(), 0, 2)
    print(f"read off the cavity of factor 0 in one prob run: {cavity:.6f}")
    assert value == z.real and abs(cavity - z.eps) <= 1e-12 * abs(z.eps)

    h = 1e-6
    fd = (exact_contraction(make_model(+h), "prob") - exact_contraction(make_model(-h), "prob")) / (2 * h)
    print(f"central difference with step {h:g}: {fd:.6f}")
    assert abs(z.eps - fd) <= 1e-6 * max(1.0, abs(fd))

    g = make_model()
    print("\nsensitivity of Z to every entry of the first pairwise table:")
    grads = [contraction_value(dual_seed(g, 0, e)).eps for e in range(4)]
    for e, d in enumerate(grads):
        i, j = divmod(e, 2)
        print(f"  d Z / d f0[{i},{j}] = {d:.6f}")


if __name__ == "__main__":
    main()
