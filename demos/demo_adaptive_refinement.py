"""Adaptive refinement concentrating work around a kink.

Compares conventional construction against surplus-thresholded refinement on
f(x) = |x - 0.4375|.  The adaptive run places nodes only where the
piecewise-linear residual survives, so the count stays tiny while the error
matches the full grid.
"""

import numpy as np

from sgsurrogate import AdaptiveConfig, ModelFunction, coordinates, run_asgc, run_csc, split_codes

KINK = 0.4375


def model_fn():
    return ModelFunction(lambda x: abs(float(x[0]) - KINK), 1, "kink")


max_level = 9
conventional = run_csc(model_fn(), 1, max_level)
cfg = AdaptiveConfig(dimension=1, epsilon=1e-3, max_level=max_level, init_level=2)
adaptive = run_asgc(model_fn(), cfg)

print(f"conventional to level {max_level}: {len(conventional.model)} evaluations")
print(f"adaptive ({cfg.epsilon=}):        {len(adaptive.model)} evaluations, "
      f"stopped by {adaptive.stopped_by}")

print("\nadaptive nodes by level (* marks surplus above tolerance)")
model = adaptive.model
node_level = split_codes(model.codes)[0][:, 0] - 1  # levels count from 0 at the root
for record in adaptive.records:
    on_level = node_level == record.level
    marks = ", ".join(
        f"{x:.5f}{'*' if abs(w) >= cfg.epsilon else ''}"
        for x, w in zip(coordinates(model.codes[on_level])[:, 0].tolist(),
                        model.w[on_level].tolist())
    )
    print(f"  level {record.level}: {marks}")

# both interpolants agree with the model everywhere
xs = np.linspace(0, 1, 2001)
truth = np.abs(xs - KINK)
err_conv = np.abs(conventional.model.interpolate_many(xs[:, None]) - truth).max()
err_adap = np.abs(adaptive.model.interpolate_many(xs[:, None]) - truth).max()
print(f"\nmax |surrogate - f| on a fine grid: conventional {err_conv:.2e}, "
      f"adaptive {err_adap:.2e}")
print("the kink sits on a grid point, so once its bracket is resolved both "
      "interpolants are exact")
