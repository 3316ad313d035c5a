"""Acceptance suite: the library's headline guarantees, one test per claim.

Each test prints a single PASS line once its assertions hold, so a verbose
run reads as a checklist.  Expensive builds are shared through module fixtures.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from conftest import record_acceptance

from sgsurrogate import (
    AdaptiveConfig,
    ModelFunction,
    SmoothRegion,
    coordinates,
    draw_test_points,
    get_benchmark,
    moments,
    run_asgc,
    run_csc,
    run_easgc,
    run_study,
    save_surrogate,
    split_codes,
)
from sgsurrogate.models import PoissonSpec, TrussSpec, _PoissonGrid, truss_member4_force
from test_models import force_method_oracle  # independent flexibility oracle
from sgsurrogate.models import solve_member_forces
from sgsurrogate.smooth import _spline_values


def _pass(number: int, name: str) -> None:
    line = f"ACCEPTANCE {number:02d} {name}: PASS"
    print(line)
    record_acceptance(line)  # re-emitted in the terminal summary


def _reproduces_all_nodes(model, rel=1e-12):
    coords = coordinates(model.codes)
    outputs = model.outputs
    got = model.interpolate_many(coords)
    tol = rel * np.maximum(1.0, np.abs(outputs))
    return np.all(np.abs(got - outputs) <= tol)


def test_01_interpolation_property_suite():
    """Every method on every low-dimensional benchmark reproduces its nodes."""
    start = time.perf_counter()
    cases = [
        ("kink", None, 5, AdaptiveConfig(dimension=1, epsilon=1e-4, max_level=8, init_level=2)),
        ("line_singularity", None, 5, AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=8, init_level=2)),
        ("truss2", None, 4, AdaptiveConfig(dimension=2, epsilon=50.0, max_level=8, init_level=2)),
        ("truss3", None, 4, AdaptiveConfig(dimension=3, epsilon=50.0, max_level=7, init_level=2)),
        ("poisson", {"n_random": 3, "n_cells": 64}, 4,
         AdaptiveConfig(dimension=3, epsilon=1e-6, max_level=6, init_level=2)),
    ]
    for name, params, csc_level, cfg in cases:
        f, _ = get_benchmark(name, dict(params) if params else None)
        models = [
            run_csc(f, f.dimension, csc_level).model,
            run_asgc(get_benchmark(name, dict(params) if params else None)[0], cfg).model,
            run_easgc(get_benchmark(name, dict(params) if params else None)[0], cfg).model,
        ]
        for m in models:
            assert _reproduces_all_nodes(m, rel=1e-12), name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _pass(1, "interpolation-property")


def test_02_csc_count_oracle():
    """1-D level-5 build costs exactly 33 evaluations; 2-D counts match
    exhaustive enumeration of bounded level sums up to level 8."""
    f = ModelFunction(lambda x: float(x[0] ** 3), 1, "cubic")
    res = run_csc(f, 1, 5)
    assert f.evaluations == 33
    assert res.model.full_evaluations == 33
    assert len(res.model) == 33

    def new_nodes(lv):
        return 1 if lv == 0 else (2 if lv == 1 else 2 ** (lv - 1))

    def enumerate_count(d, level):
        total = 0
        for combo in itertools.product(range(level + 1), repeat=d):
            if sum(combo) <= level:
                total += math.prod(new_nodes(lv) for lv in combo)
        return total

    for q in range(0, 9):
        g = ModelFunction(lambda x: float(x[0] + x[1]), 2, "plane")
        res = run_csc(g, 2, q)
        assert len(res.model) == enumerate_count(2, q), q
        assert g.evaluations == enumerate_count(2, q)
    _pass(2, "csc-count-oracle")


def test_03_smooth_function_convergence():
    """Conventional max-abs error drops by >= 3x per level past level 5
    on the smooth product-sine surface."""
    points = draw_test_points(2, 10_000, 31)
    true = np.sin(np.pi * points[:, 0]) * np.sin(np.pi * points[:, 1])
    errors = {}

    def on_level(model, record):
        errors[record.level] = float(
            np.abs(model.interpolate_many(points) - true).max()
        )

    f = ModelFunction(lambda x: float(np.sin(np.pi * x[0]) * np.sin(np.pi * x[1])), 2, "sinsin")
    run_csc(f, 2, 9, on_level=on_level)
    for level in (6, 7, 8):
        ratio = errors[level] / errors[level + 1]
        assert ratio >= 3.0, (level, ratio, errors)
    _pass(3, "smooth-convergence")


@pytest.fixture(scope="module")
def singularity_sweep():
    """ASGC and EASGC studies over both tolerances, plus the deep CSC error."""
    start = time.perf_counter()
    studies = {}
    for eps in (1e-2, 1e-3):
        for method in ("ASGC", "EASGC"):
            cfg = AdaptiveConfig(dimension=2, epsilon=eps, max_level=20, init_level=2)
            studies[(method, eps)] = run_study(
                method, "line_singularity", cfg, seed=11, n_test_points=10_000
            )
    f, _ = get_benchmark("line_singularity")
    deep = run_csc(f, 2, 12)
    points = draw_test_points(2, 10_000, 11)
    true = np.array([f.func(x) for x in points])
    csc_error = float(np.abs(deep.model.interpolate_many(points) - true).max())
    elapsed = time.perf_counter() - start
    return studies, len(deep.model), csc_error, elapsed


def test_04_line_singularity_efficiency(singularity_sweep):
    """At matched max-abs error <= 0.05, the spline-backed build needs at
    least 1.5x fewer full evaluations, and the deep conventional build
    (32,769 points) is less accurate than either."""
    studies, csc_nodes, csc_error, elapsed = singularity_sweep
    assert csc_nodes == 32_769
    target = 0.05
    matched_any = False
    for eps in (1e-2, 1e-3):
        hits = {}
        for method in ("ASGC", "EASGC"):
            rows = studies[(method, eps)].rows
            hit = next((r for r in rows if r.max_abs_error <= target), None)
            hits[method] = hit
        if hits["ASGC"] is None or hits["EASGC"] is None:
            continue
        matched_any = True
        ratio = hits["ASGC"].full_evals / hits["EASGC"].full_evals
        assert ratio >= 1.5, (eps, ratio)
        assert csc_error > hits["ASGC"].max_abs_error
        assert csc_error > hits["EASGC"].max_abs_error
    assert matched_any, "no tolerance reached the matched error target"
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"
    _pass(4, "line-singularity-efficiency")


def test_05_moment_exactness():
    """The 3-node model of f(x) = x has mean exactly 1/2 and variance 1/8;
    deeper grids drive the variance to the uniform-distribution value."""
    f = ModelFunction(lambda x: float(x[0]), 1, "id")
    model = run_csc(f, 1, 1).model
    est = moments(model)
    assert est.mean == 0.5
    assert est.variance == 0.125
    # trapezoid oracle over a grid containing both node coordinates
    xs = np.linspace(0, 1, 5)
    interp = model.interpolate_many(xs[:, None])
    sq = model._evaluate_sum(xs[:, None], (1,))[0, 0] + 0.0
    assert trapezoid(interp, xs) == pytest.approx(est.mean, abs=1e-15)
    assert trapezoid(sq, xs) == pytest.approx(est.mean_square, abs=1e-15)

    deep = run_csc(ModelFunction(lambda x: float(x[0]), 1, "id"), 1, 10).model
    assert abs(moments(deep).variance - 1.0 / 12.0) < 1e-3
    _pass(5, "moment-exactness")


def test_06_spline_error_bound():
    """The production spline meets the quartic interpolation bound for the
    full sine period sampled on 9 uniform knots."""
    knots = np.linspace(0.0, 1.0, 9)
    region = SmoothRegion(dim=0, anchor=(), knots=knots, outputs=np.sin(2 * np.pi * knots))
    fine = np.linspace(0.0, 1.0, 10_000)
    spline = _spline_values([region], np.zeros(len(fine), dtype=np.intp), fine)
    measured = np.abs(spline - np.sin(2 * np.pi * fine)).max()
    bound = (5.0 / 384.0) * (2 * np.pi) ** 4 * (1.0 / 8.0) ** 4
    assert measured <= bound, (measured, bound)
    _pass(6, "spline-error-bound")


def test_07_adaptive_subset_of_conventional():
    """On a kink with a dyadic corner, adaptive nodes are a subset of the
    conventional grid at every depth, and refinement past level 4 touches
    only the two nodes bracketing the kink."""
    kink = 0.4375
    cfg = AdaptiveConfig(dimension=1, epsilon=1e-3, max_level=9, init_level=2)
    adaptive = run_asgc(get_benchmark("kink", {"kink_pos": kink})[0], cfg)
    conventional = run_csc(get_benchmark("kink", {"kink_pos": kink})[0], 1, 9)

    def keys_by_level(model):
        keys = {}
        levels = split_codes(model.codes)[0][:, 0] - 1  # a 1-D node's reported level
        for level, code in zip(levels.tolist(), model.codes[:, 0].tolist()):
            keys.setdefault(level, set()).add(code)
        return keys

    keys_by_level_a = keys_by_level(adaptive.model)
    keys_by_level_c = keys_by_level(conventional.model)

    cum_a, cum_c = set(), set()
    for level in sorted(keys_by_level_c):
        cum_a |= keys_by_level_a.get(level, set())
        cum_c |= keys_by_level_c[level]
        assert cum_a <= cum_c, level
        if level > cfg.init_level:
            assert cum_a < cum_c, level

    # piecewise-linear exactness: a full hat's surplus is the deviation of
    # the model from the chord through its neighbors, so from level 3 on
    # only nodes whose open support straddles the kink carry surplus (the
    # level-2 half-hats carry the global linear trend instead)
    model = adaptive.model
    for level_1d, coord, w in zip(split_codes(model.codes)[0][:, 0].tolist(),
                                  coordinates(model.codes)[:, 0].tolist(), model.w.tolist()):
        if level_1d >= 3:
            halfwidth = 2.0 ** (1 - level_1d)
            straddles = abs(coord - kink) < halfwidth
            if not straddles:
                assert w == 0.0, (coord, w)
        if level_1d - 1 >= 5:
            assert coord in (0.40625, 0.46875)
    deep = [level for level in split_codes(model.codes)[0][:, 0] if level - 1 >= 5]
    assert len(deep) == 2
    _pass(7, "adaptive-subset-and-kink-tracking")


def test_08_poisson_solver_and_study():
    """Constant-conductivity analytic check at 512 cells, monotone moment
    deltas for the 10-dimensional study, spline build never costs more, and
    a 100-dimensional spline build substitutes splines with pinned counts."""
    grid = _PoissonGrid(PoissonSpec(n_random=1, n_cells=512, x_obs=0.5))
    for kappa0 in (1.0, 2.0):
        u = grid.solve(np.full_like(grid.x, kappa0)[None])[0]
        assert abs(u - 0.125 / kappa0) <= 1e-5

    cfg = AdaptiveConfig(dimension=10, epsilon=1e-6, max_level=4, init_level=2,
                         min_line_points=7)
    params = {"n_random": 10, "n_cells": 128}
    asgc = run_study("ASGC", "poisson", cfg, benchmark_params=dict(params),
                     seed=3, n_test_points=2000)
    easgc = run_study("EASGC", "poisson", cfg, benchmark_params=dict(params),
                      seed=3, n_test_points=2000)
    first_adaptive = cfg.init_level + 1
    for report in (asgc, easgc):
        deltas = [(r.mean_delta, r.variance_delta) for r in report.rows[first_adaptive:]]
        for (m0, v0), (m1, v1) in zip(deltas, deltas[1:]):
            assert m1 < m0 and v1 < v0
    by_level_a = {r.level: r.full_evals for r in asgc.rows}
    for r in easgc.rows:
        assert r.full_evals <= by_level_a[r.level]

    # 100-dimensional spline build at low depth; the counts were taken from
    # the build before the line scan and lookup became level-wide arrays
    smoke_cfg = AdaptiveConfig(dimension=100, epsilon=2e-4, max_level=3, init_level=1,
                               min_line_points=5)
    f, _ = get_benchmark("poisson", {"n_random": 100, "n_cells": 16})
    smoke = run_easgc(f, smoke_cfg)
    m = smoke.model
    assert (len(m), m.full_evaluations, m.spline_interpolations, len(smoke.region_db)) == \
        (6059, 6055, 4, 6)
    assert f.evaluations == 6055
    assert _reproduces_all_nodes(m)
    _pass(8, "poisson-solver-and-study")


def test_09_truss_oracles_and_efficiency():
    """Stiffness and flexibility solutions agree to 1e-9, the buckling jump
    is localized by bisection, and the 2-D study shows the spline build
    reaching matched RMSE with >= 1.5x fewer full evaluations."""
    spec = TrussSpec()
    rng = np.random.default_rng(99)
    for _ in range(100):
        areas = spec.default_areas()
        areas[0] = (5.5 + rng.random()) * 1e-4
        areas[1] = (3.0 + 6.0 * rng.random()) * 1e-4
        areas[2] = (5.5 + rng.random()) * 1e-4
        areas[4] = (3.0 + 6.0 * rng.random()) * 1e-4
        stiff = solve_member_forces(areas, spec, include_diagonal=True)
        flex = force_method_oracle(areas, spec)
        np.testing.assert_allclose(stiff, flex, rtol=1e-9, atol=1e-9 * spec.load)

    def member4(a5_cm2):
        areas = spec.default_areas()
        areas[4] = a5_cm2 * 1e-4
        return truss_member4_force(areas, spec)

    lo, hi = 3.0, 9.0
    buckled = member4(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(member4(mid) - buckled) < 1e-9 * spec.load:
            lo = mid
        else:
            hi = mid
    assert hi - lo < 1e-12
    assert abs(member4(hi) - member4(lo)) > 0.4 * spec.load

    target_rmse = 200.0
    cfg = AdaptiveConfig(dimension=2, epsilon=5.0, max_level=12, init_level=2)
    asgc = run_study("ASGC", "truss2", cfg, seed=5, n_test_points=10_000)
    easgc = run_study("EASGC", "truss2", cfg, seed=5, n_test_points=10_000)
    hit_a = next(r for r in asgc.rows if r.rmse <= target_rmse)
    hit_e = next(r for r in easgc.rows if r.rmse <= target_rmse)
    assert hit_a.full_evals / hit_e.full_evals >= 1.5
    _pass(9, "truss-oracles-and-efficiency")


def test_10_flow_equivalence_degenerate_splines(tmp_path):
    """With the line-scan disabled (infinite point requirement), the spline
    build is node-for-node and byte-identical to the plain adaptive build on
    every registered benchmark."""
    cases = [
        ("kink", None, AdaptiveConfig(dimension=1, epsilon=1e-4, max_level=6, init_level=2)),
        ("line_singularity", None, AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=6, init_level=2)),
        ("genz_oscillatory", None, AdaptiveConfig(dimension=5, epsilon=1e-3, max_level=4, init_level=2)),
        ("genz_corner_peak", None, AdaptiveConfig(dimension=5, epsilon=1e-4, max_level=4, init_level=2)),
        ("genz_discontinuous", None, AdaptiveConfig(dimension=5, epsilon=1e-3, max_level=4, init_level=2)),
        ("poisson", {"n_random": 4, "n_cells": 32},
         AdaptiveConfig(dimension=4, epsilon=1e-7, max_level=4, init_level=2)),
        ("truss2", None, AdaptiveConfig(dimension=2, epsilon=10.0, max_level=6, init_level=2)),
        ("truss3", None, AdaptiveConfig(dimension=3, epsilon=10.0, max_level=5, init_level=2)),
    ]
    for name, params, cfg in cases:
        fa, _ = get_benchmark(name, dict(params) if params else None)
        fe, _ = get_benchmark(name, dict(params) if params else None)
        plain = run_asgc(fa, cfg)
        degenerate = run_easgc(
            fe, dataclasses.replace(cfg, min_line_points=math.inf)
        )
        assert degenerate.model.spline_interpolations == 0, name
        a_path = tmp_path / f"{name}_a.surrogate"
        e_path = tmp_path / f"{name}_e.surrogate"
        save_surrogate(a_path, plain.model, plain.region_db)
        save_surrogate(e_path, degenerate.model, degenerate.region_db)
        assert a_path.read_bytes() == e_path.read_bytes(), name
    _pass(10, "flow-equivalence-degeneracy")
