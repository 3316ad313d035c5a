"""ASGC against EASGC on the 100-dimensional Poisson problem.

The model is the 1-D diffusion problem whose log-conductivity is a truncated
expansion in 100 uniform random variables, observed at the midpoint (64
cells).  Both methods build with the same config, so they make the same
refinement decisions; EASGC also scans the lines of every dimension after
each adaptive level and serves candidates in certified smooth regions from
cubic splines.  The table reports what that saves in full evaluations, what
it costs in accuracy on 2,000 seeded test points, and where the build
seconds went, summed over the levels' `phase_s` ("model" is the Poisson
solves, "evaluate" the coordinates, region lookups and spline values, and
"after_level" the EASGC line scan).  The `slope_tol` and `min_line_points` defaults are not tuned
here: `min_line_points=7` is the paper-scale setting used throughout.

    python demos/demo_high_dimensional.py
"""

import numpy as np

from sgsurrogate import AdaptiveConfig, build, draw_test_points, get_benchmark

PARAMS = {"n_random": 100, "n_cells": 64}
CONFIGS = [  # (epsilon, max_level)
    (1e-4, 4),
    (1e-5, 8),
]
PHASES = ("evaluate", "model", "surplus", "insert", "refine", "after_level")

points = draw_test_points(100, 2000, seed=2024)
truth = get_benchmark("poisson", dict(PARAMS))[0].many(points)

print("100-D Poisson, n_cells=64, init_level=1, min_line_points=7; "
      "max |error| on 2,000 seeded points; seconds from phase_s")
print("| eps, max_level | method | nodes | full evals | spline hits | max abs error "
      "| build s | " + " | ".join(PHASES) + " |")
print("| --- " * (7 + len(PHASES)) + "|")
for epsilon, max_level in CONFIGS:
    cfg = AdaptiveConfig(dimension=100, epsilon=epsilon, max_level=max_level,
                         init_level=1, min_line_points=7)
    for method in ("ASGC", "EASGC"):
        f, _ = get_benchmark("poisson", dict(PARAMS))
        result = build(f, cfg, method)
        model = result.model
        error = np.abs(model.interpolate_many(points) - truth).max()
        phase = {name: sum(r.phase_s[name] for r in result.records) for name in PHASES}
        print(f"| {epsilon:g}, {max_level} | {method} | {len(model):,} | "
              f"{model.full_evaluations:,} | {model.spline_interpolations:,} | {error:.3e} | "
              f"{sum(phase.values()):.2f} | " + " | ".join(f"{phase[p]:.2f}" for p in PHASES)
              + " |")
