"""Walk through the node hierarchy, surpluses, and analytic moments.

Builds small 1-D surrogates of f(x) = exp(x) level by level, prints the
nested node sets, and compares the analytic mean/variance extracted from the
hierarchical surpluses against the closed-form values.
"""

import math

import numpy as np

from sgsurrogate import (
    ModelFunction,
    coordinates,
    join_codes,
    moments,
    refine_candidates,
    run_csc,
)

# the nested 1-D hierarchy: one midpoint, the boundary pair, then dyadic fill;
# a node is its integer code 2**(level-1) + index
print("levels of the nested 1-D grid")
for level in range(1, 5):
    count = 1 if level == 1 else (2 if level == 2 else 2 ** (level - 2))
    coords = coordinates(join_codes([level] * count, range(count))).tolist()
    print(f"  level {level}: {coords}")


def sons(level, index):
    """Coordinates of the refinement sons of one 1-D node."""
    return coordinates(refine_candidates(join_codes([[level]], [[index]])))[:, 0].tolist()


print("\nsons of the root:", sons(1, 0))
print("sons of the node at 0.25:", sons(3, 0))

# surrogate of exp(x), refined conventionally
print("\nconvergence of the analytic moments for f(x) = exp(x)")
true_mean = math.e - 1.0
true_var = (math.e ** 2 - 1.0) / 2.0 - true_mean ** 2
print(f"  closed form: mean = {true_mean:.10f}, variance = {true_var:.10f}")
for level in (2, 4, 6, 8):
    f = ModelFunction(lambda x: math.exp(x[0]), 1, "exp")
    result = run_csc(f, 1, level)
    est = moments(result.model)
    print(f"  level {level}: nodes = {len(result.model):4d}  "
          f"mean err = {abs(est.mean - true_mean):.2e}  "
          f"variance err = {abs(est.variance - true_var):.2e}")

# the surrogate interpolates its own samples exactly
result = run_csc(ModelFunction(lambda x: math.exp(x[0]), 1, "exp"), 1, 6)
model = result.model
worst = max(
    abs(model.interpolate(x) - output)
    for x, output in zip(coordinates(model.codes), model.outputs)
)
print(f"\nworst node reproduction error at level 6: {worst:.2e}")

x = np.linspace(0, 1, 7)
print("surrogate vs exp on a few points:")
for xi in x:
    print(f"  x = {xi:.3f}: surrogate = {model.interpolate([xi]):.8f}, "
          f"exp = {math.exp(xi):.8f}")
