"""Spline substitution on the 2-D line-singularity benchmark.

The response 1 / (|0.3 - x^2 - y^2| + 0.1) is smooth away from a circular
ridge.  The derivative scan certifies 1-D lines off the ridge, so later
refinement there is served by cubic splines instead of model evaluations.
The two adaptive builds make identical refinement decisions; only the price
differs.
"""

import numpy as np

from sgsurrogate import AdaptiveConfig, draw_test_points, get_benchmark, run_asgc, run_easgc

MAX_LEVEL = 14

epsilon = 1e-3
points = draw_test_points(2, 5000, seed=2024)
f_true, _ = get_benchmark("line_singularity")
truth = np.array([f_true(p) for p in points])

# one config for both builds: the driver called is what selects the method
cfg = AdaptiveConfig(dimension=2, epsilon=epsilon, max_level=MAX_LEVEL, init_level=2)

plain_f, _ = get_benchmark("line_singularity")
plain = run_asgc(plain_f, cfg)

spline_f, _ = get_benchmark("line_singularity")
accelerated = run_easgc(spline_f, cfg)

err_plain = np.abs(plain.model.interpolate_many(points) - truth).max()
err_accel = np.abs(accelerated.model.interpolate_many(points) - truth).max()

print(f"adaptive build to level {MAX_LEVEL} with epsilon = {epsilon}")
print(f"  plain:       {plain.model.full_evaluations:6d} full evaluations, "
      f"max error {err_plain:.4f}")
print(f"  spline-backed: {accelerated.model.full_evaluations:6d} full + "
      f"{accelerated.model.spline_interpolations} spline values, "
      f"max error {err_accel:.4f}")
print(f"  certified regions in the database: {len(accelerated.region_db)}")
ratio = plain.model.full_evaluations / accelerated.model.full_evaluations
print(f"  full-evaluation ratio: {ratio:.2f}x")

print("\nper-level trace of the spline-backed run")
for r in accelerated.records:
    print(f"  level {r.level:2d}: candidates {r.candidates:5d}  "
          f"full {r.full_evaluations:6d}  spline {r.spline_interpolations:6d}  "
          f"max|w| {r.max_abs_surplus:.3e}")
