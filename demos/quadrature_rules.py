"""Walk through the three quadrature rules behind the bounds.

Each rule integrates polynomials of degree up to 2k+1 exactly against the
projected sphere measure.  The interior rule keeps all nodes strictly
inside (-1, 1); the endpoint rule pins -1 and 1; the anchored rule pins
+-s for any admissible anchor s and collapses to the endpoint rule at
s = 1.
"""

import numpy as np

from kkpolar import (largest_gauss_node, rule_alpha, rule_beta, rule_lambda,
                     verify_exactness)


def show(rule, n):
    residual = verify_exactness(rule, n, rule.exact_degree)
    print(f"  kind={rule.kind:<6} nodes={np.round(rule.nodes, 6)}")
    print(f"         weights={np.round(rule.weights, 6)}"
          f"  max residual through degree {rule.exact_degree}: {residual:.2e}")


def main():
    for n, k in [(3, 1), (3, 2), (4, 3)]:
        print(f"n={n}, k={k}: three rules exact on degree <= {2 * k + 1}")
        show(rule_alpha(n, k), n)
        show(rule_beta(n, k), n)
        threshold = largest_gauss_node(n, k)
        s = round(threshold + 0.1, 3)
        show(rule_lambda(n, k, s), n)
        print(f"         anchors admissible for s > {threshold:.6f}")
        print()

    print("anchored rule at s=1 reproduces the endpoint rule (n=3, k=2):")
    at_one = rule_lambda(3, 2, 1.0)
    endpoint = rule_beta(3, 2)
    gap = max(max(abs(a - b) for a, b in zip(at_one.nodes, endpoint.nodes)),
              max(abs(a - b) for a, b in zip(at_one.weights, endpoint.weights)))
    print(f"  max node/weight difference: {gap:.2e}")


if __name__ == "__main__":
    main()
