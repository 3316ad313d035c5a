"""Benchmark models: analytic identities, solver oracles, buckling behavior."""

import bisect
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsurrogate import ModelFunction, SparseGridError
from sgsurrogate.models import (
    POISSON_BLOCK,
    GenzParams,
    PoissonSpec,
    TrussSpec,
    _conductivity,
    _PoissonGrid,
    _row_sums,
    _weighted_modes,
    benchmark_names,
    genz_corner_peak,
    genz_defaults,
    genz_discontinuous,
    genz_oscillatory,
    get_benchmark,
    line_singularity,
    solve_member_forces,
    truss_member4_force,
    xi_coefficient,
)

SQRT3 = math.sqrt(3.0)


def reference_field(x, y, spec):
    """The conductivity field term by term, for one draw (the scalar form)."""
    ratio = spec.decay_ratio
    expo = np.full_like(x, 1.0 + y[0] * math.sqrt(math.sqrt(math.pi) * ratio / 2.0))
    for n in range(2, spec.n_random + 1):
        k = n // 2
        phase = k * math.pi * x / spec.period
        mode = np.sin(phase) if n % 2 == 0 else np.cos(phase)
        expo += xi_coefficient(n, ratio) * mode * y[n - 1]
    return 0.5 + np.exp(expo)


def exact_poisson(kappa, x, x_obs):
    """u(x_obs) of the discrete system in exact rationals, for one row of kappa.

    The system has the model's float faces and right-hand side, and is
    solved by tridiagonal elimination; u(x_obs) is the exact linear
    interpolation between the two nodes around x_obs.
    """
    n = len(x) - 1
    face = 2.0 * kappa[:-1] * kappa[1:] / (kappa[:-1] + kappa[1:])
    h = 1.0 / n
    rhs = [Fraction(v) for v in -2.0 * x[1:-1] * h * h]
    f = [Fraction(v) for v in face]
    # row k - 1 is interior node k: f[k-1] u[k-1] - (f[k-1] + f[k]) u[k] + f[k] u[k+1]
    diag = [-(f[k - 1] + f[k]) for k in range(1, n)]
    for r in range(1, n - 1):
        ratio = f[r] / diag[r - 1]
        diag[r] -= ratio * f[r]
        rhs[r] -= ratio * rhs[r - 1]
    u = [Fraction(0)] * (n + 1)
    for r in range(n - 2, -1, -1):
        u[r + 1] = (rhs[r] - f[r + 1] * u[r + 2]) / diag[r]
    j = bisect.bisect_right(list(x), x_obs) - 1
    left, right = Fraction(x[j]), Fraction(x[j + 1])
    return u[j] + (Fraction(x_obs) - left) * (u[j + 1] - u[j]) / (right - left)


class TestLineSingularity:
    def test_origin(self):
        assert line_singularity(0.0, 0.0) == 2.5

    def test_on_the_arc(self):
        x = math.sqrt(0.3)
        assert line_singularity(x, 0.0) == pytest.approx(10.0, rel=1e-12)

    def test_far_corner(self):
        assert line_singularity(1.0, 1.0) == pytest.approx(1.0 / 1.8, rel=1e-15)


class TestGenz:
    def test_defaults_sum_per_family(self):
        assert sum(genz_defaults("oscillatory").c) == pytest.approx(5.0, rel=1e-14)
        assert sum(genz_defaults("corner_peak").c) == pytest.approx(2.0, rel=1e-14)
        assert sum(genz_defaults("discontinuous").c) == pytest.approx(4.0, rel=1e-14)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GenzParams(c=(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            GenzParams(c=(1.0, 1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            GenzParams(w1=1.5)
        with pytest.raises(ValueError, match="unknown kind"):
            genz_defaults("nope")

    def test_oscillatory_identities(self):
        zero = np.zeros(5)
        assert genz_oscillatory(zero, GenzParams(w1=0.0, c=genz_defaults("oscillatory").c)) == 1.0
        assert genz_oscillatory(zero, GenzParams(w1=0.25, c=(1.0,) * 5)) == pytest.approx(0.0, abs=1e-15)
        p = genz_defaults("oscillatory")
        x = np.full(5, 0.5)
        assert genz_oscillatory(x, p) == pytest.approx(math.cos(2 * math.pi * p.w1 + 2.5), rel=1e-14)

    def test_corner_peak(self):
        p = GenzParams(c=(1.0,) * 5)
        assert genz_corner_peak(np.zeros(5), p) == 1.0
        assert genz_corner_peak(np.ones(5), p) == pytest.approx(6.0 ** -6, rel=1e-13)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.random(5)
            i = rng.integers(5)
            y = x.copy()
            y[i] = min(1.0, x[i] + 0.1)
            assert genz_corner_peak(y, p) <= genz_corner_peak(x, p)

    def test_discontinuous_cases(self):
        p = GenzParams(w1=0.5, w2=0.5, c=(1.0,) * 5)
        assert genz_discontinuous(np.array([0.5, 0.1, 0.2, 0.3, 0.4]), p) == 0.0  # inclusive
        assert genz_discontinuous(np.array([0.1, 0.5, 0.2, 0.3, 0.4]), p) == 0.0
        assert genz_discontinuous(np.zeros(5), p) == 1.0
        x = np.array([0.4, 0.4, 1.0, 1.0, 1.0])
        assert genz_discontinuous(x, p) == pytest.approx(math.exp(3.8), rel=1e-14)


class TestPoisson:
    def test_xi_direct_evaluation(self):
        spec = PoissonSpec(correlation_length=0.5)  # period 1, ratio 0.5
        expected = math.sqrt(math.sqrt(math.pi) * 0.5) * math.exp(-((math.pi * 0.5) ** 2) / 8.0)
        assert xi_coefficient(2, spec.decay_ratio) == pytest.approx(expected, rel=1e-15)

    def test_xi_decays_in_frequency(self):
        ratio = 0.5
        values = [xi_coefficient(n, ratio) for n in range(2, 12)]
        assert values[0] == values[1]  # same floor(n/2)
        assert all(values[2 * i] > values[2 * i + 2] for i in range(4))
        with pytest.raises(ValueError, match="n >= 2"):
            xi_coefficient(1, ratio)

    def test_field_positive_and_shape(self):
        spec = PoissonSpec(n_random=7, n_cells=32)
        x = np.linspace(0, 1, 33)
        rng = np.random.default_rng(0)
        for _ in range(5):
            kappa = _conductivity(rng.random(7)[None], _weighted_modes(x, spec), spec)[0]
            assert kappa.shape == x.shape
            assert np.all(kappa > 0.5)

    def test_draw_of_wrong_length_rejected(self):
        f, _ = get_benchmark("poisson", {"n_random": 3, "n_cells": 16})
        for y in (np.full(4, 0.5), np.full((1, 3), 0.5)):
            with pytest.raises(SparseGridError, match="expected 3 random inputs"):
                f.func(y)

    def test_constant_kappa_analytic_solution(self):
        # u = (x - x^3) / (3 kappa0) solves the problem; the cubic is
        # represented exactly by the second-difference scheme
        for kappa0, n_cells in [(1.0, 512), (2.0, 128), (0.5, 64)]:
            grid = _PoissonGrid(PoissonSpec(n_random=1, n_cells=n_cells, x_obs=0.5))
            u = grid.solve(np.full_like(grid.x, kappa0)[None])[0]
            assert u == pytest.approx(0.125 / kappa0, abs=1e-12)

    def test_second_order_convergence_variable_kappa(self):
        # manufactured: kappa = 1 + x gives u' = -(x^2 + C)/(1 + x) with
        # (1 + C) ln 2 = 1/2, integrable in closed form
        C = 0.5 / math.log(2.0) - 1.0

        def exact(x):
            return -(x * x / 2.0 - x + (1.0 + C) * math.log(1.0 + x))

        errors = []
        for n_cells in [32, 64, 128, 256]:
            # 0.25 is a node of every grid, isolating the scheme error
            grid = _PoissonGrid(PoissonSpec(n_random=1, n_cells=n_cells, x_obs=0.25))
            u = grid.solve((1.0 + grid.x)[None])[0]
            errors.append(abs(u - exact(0.25)))
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        assert all(3.4 < r < 4.6 for r in ratios), (errors, ratios)

    def test_nonpositive_kappa_rejected(self):
        grid = _PoissonGrid(PoissonSpec(n_random=1, n_cells=32))
        with pytest.raises(SparseGridError):
            grid.solve(np.zeros_like(grid.x)[None])

    def test_non_finite_kappa_rejected(self):
        grid = _PoissonGrid(PoissonSpec(n_random=1, n_cells=32))
        with pytest.raises(SparseGridError, match="linear solve failed"):
            grid.solve(np.where(grid.x > 0.5, np.nan, 1.0)[None])

    @pytest.mark.parametrize("kappa0", [1e-310, 1e300])
    def test_faces_out_of_range_rejected(self, kappa0):
        # 1e-310 gives faces that underflow to 0, a singular system; 1e300
        # gives faces that overflow to infinity
        grid = _PoissonGrid(PoissonSpec(n_random=1, n_cells=32))
        with pytest.raises(SparseGridError, match="linear solve failed: row 0"):
            grid.solve(np.full((1, grid.x.size), kappa0))

    @settings(max_examples=60, deadline=None)
    @given(
        n_random=st.integers(1, 12),
        n_cells=st.integers(10, 64),
        correlation_length=st.floats(0.05, 2.0),
        x_obs=st.floats(1e-3, 1.0 - 1e-3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_within_4_ulps_of_the_exact_solve(self, n_random, n_cells, correlation_length,
                                              x_obs, seed):
        spec = PoissonSpec(n_random=n_random, n_cells=n_cells,
                           correlation_length=correlation_length, x_obs=x_obs)
        draws = np.random.default_rng(seed).random((3, n_random))
        draws[0] = 0.0
        x = np.linspace(0.0, 1.0, n_cells + 1)
        grid = _PoissonGrid(spec)
        f, _ = get_benchmark("poisson", {"n_random": n_random, "n_cells": n_cells,
                                         "correlation_length": correlation_length,
                                         "x_obs": x_obs})
        batch = f.many(draws)
        for row, y in enumerate(draws):
            field = _conductivity(y[None], _weighted_modes(x, spec), spec)[0]
            assert field.tobytes() == reference_field(x, y, spec).tobytes()
            assert grid.one(y) == batch[row]
            want = exact_poisson(field, x, x_obs)
            assert abs(Fraction(batch[row]) - want) <= 4 * Fraction(math.ulp(float(want)))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.booleans(), st.lists(st.floats(1e-100, 1e100),
                                                            max_size=40)),
                         min_size=1, max_size=4))
    def test_row_sums_within_one_ulp_and_row_by_row(self, rows):
        width = max(len(terms) for _, terms in rows)
        stack = np.zeros((len(rows), width))
        for r, (negative, terms) in enumerate(rows):
            stack[r, :len(terms)] = np.negative(terms) if negative else terms
        got = _row_sums(stack.copy())
        for r, row in enumerate(stack):
            exact = sum(map(Fraction, row), Fraction(0))
            assert abs(Fraction(got[r]) - exact) <= Fraction(math.ulp(math.fsum(row)))
            assert _row_sums(row[None].copy()).tobytes() == got[r:r + 1].tobytes()

    def test_batch_memory_stays_blocked(self):
        # an unblocked batch of 1,000 draws holds several (1000, 513) arrays
        # (about 4 MB each) at once
        f, _ = get_benchmark("poisson", {"n_random": 10})
        draws = np.random.default_rng(4).random((1000, 10))
        tracemalloc.start()
        try:
            f.many(draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, peak

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PoissonSpec(n_random=0)
        with pytest.raises(ValueError):
            PoissonSpec(n_cells=5)
        with pytest.raises(ValueError):
            PoissonSpec(x_obs=1.0)
        with pytest.raises(ValueError, match="n_random must be an integer"):
            PoissonSpec(n_random=2.5)
        with pytest.raises(ValueError, match="correlation_length"):
            PoissonSpec(correlation_length=math.nan)


# ---------------------------------------------------------------------------
# independent truss oracles
# ---------------------------------------------------------------------------

NODES = np.array([[0.0, 2 * SQRT3], [2.0, 2 * SQRT3], [2.0, 0.0], [0.0, 0.0]])  # A B C D
MEMBERS = [(1, 2), (1, 3), (0, 1), (0, 3), (0, 2), (3, 2)]
LENGTHS = [np.linalg.norm(NODES[j] - NODES[i]) for i, j in MEMBERS]
REACTION_DOFS = [0, 1, 3]  # Ax, Ay, By


def joints_oracle(loads, include_diagonal):
    """Method of joints: equilibrium at every node, solved as one system.

    Unknowns are the member forces (minus the cut brace) plus the three
    reactions; `loads` is an 8-vector of applied nodal forces.
    """
    member_ids = [i for i in range(6) if include_diagonal is True or i != 4]
    if include_diagonal is True:
        raise ValueError("joints oracle only solves determinate layouts")
    n_unknowns = len(member_ids) + 3
    A = np.zeros((8, n_unknowns))
    for col, m in enumerate(member_ids):
        i, j = MEMBERS[m]
        direction = (NODES[j] - NODES[i]) / LENGTHS[m]
        A[2 * i:2 * i + 2, col] += direction
        A[2 * j:2 * j + 2, col] -= direction
    for col, dof in enumerate(REACTION_DOFS):
        A[dof, len(member_ids) + col] = 1.0
    x = np.linalg.solve(A, -np.asarray(loads, dtype=float))
    forces = np.zeros(6)
    for col, m in enumerate(member_ids):
        forces[m] = x[col]
    return forces


def force_method_oracle(areas, spec):
    """Flexibility (force) method for the one-redundant panel.

    Cuts the brace, superposes the load state and the unit self-stress
    state, and closes the cut by compatibility.
    """
    areas = np.asarray(areas, dtype=float)
    loads = np.zeros(8)
    loads[4] = -spec.load
    loads[5] = -SQRT3 * spec.load
    n0 = joints_oracle(loads, include_diagonal=False)
    i, j = MEMBERS[4]
    direction = (NODES[j] - NODES[i]) / LENGTHS[4]
    unit_pair = np.zeros(8)
    unit_pair[2 * i:2 * i + 2] = direction
    unit_pair[2 * j:2 * j + 2] = -direction
    n1 = joints_oracle(unit_pair, include_diagonal=False)
    n1[4] = 1.0
    flexibility = LENGTHS / (spec.modulus * areas)
    d10 = float(np.sum(n0 * n1 * flexibility))
    d11 = float(np.sum(n1 * n1 * flexibility))
    redundant = -d10 / d11
    return n0 + redundant * n1


class TestTruss:
    def test_determinate_forces_analytic_and_area_independent(self):
        spec = TrussSpec()
        P = spec.load
        expected = np.array([SQRT3 * P, 2 * P, -P, -SQRT3 * P, 0.0, -P])
        rng = np.random.default_rng(5)
        for _ in range(5):
            areas = 1e-4 * (3.0 + 6.0 * rng.random(6))
            forces = solve_member_forces(areas, spec, include_diagonal=False)
            np.testing.assert_allclose(forces, expected, rtol=1e-12, atol=1e-9)

    def test_determinate_matches_joints_oracle(self):
        spec = TrussSpec()
        loads = np.zeros(8)
        loads[4] = -spec.load
        loads[5] = -SQRT3 * spec.load
        oracle = joints_oracle(loads, include_diagonal=False)
        got = solve_member_forces(spec.default_areas(), spec, include_diagonal=False)
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-9)

    def test_nominal_point_cross_checked(self):
        # all areas 6 cm^2, brace mid-range: the two formulations agree
        spec = TrussSpec()
        stiffness = solve_member_forces(spec.default_areas(), spec, include_diagonal=True)
        flexibility = force_method_oracle(spec.default_areas(), spec)
        np.testing.assert_allclose(stiffness, flexibility, rtol=1e-9, atol=1e-9 * spec.load)

    def test_stiffness_vs_force_method_100_random_points(self):
        spec = TrussSpec()
        rng = np.random.default_rng(99)
        for _ in range(100):
            areas = spec.default_areas()
            areas[0] = (5.5 + rng.random()) * 1e-4
            areas[1] = (3.0 + 6.0 * rng.random()) * 1e-4
            areas[2] = (5.5 + rng.random()) * 1e-4
            areas[4] = (3.0 + 6.0 * rng.random()) * 1e-4
            stiffness = solve_member_forces(areas, spec, include_diagonal=True)
            flexibility = force_method_oracle(areas, spec)
            np.testing.assert_allclose(stiffness, flexibility, rtol=1e-9, atol=1e-9 * spec.load)

    def test_equilibrium_residual_at_free_nodes(self):
        spec = TrussSpec()
        rng = np.random.default_rng(12)
        for _ in range(20):
            areas = 1e-4 * (3.0 + 6.0 * rng.random(6))
            forces = solve_member_forces(areas, spec, include_diagonal=True)
            residual = np.zeros(8)
            for m, (i, j) in enumerate(MEMBERS):
                direction = (NODES[j] - NODES[i]) / LENGTHS[m]
                residual[2 * i:2 * i + 2] += forces[m] * direction
                residual[2 * j:2 * j + 2] -= forces[m] * direction
            residual[4] += -spec.load
            residual[5] += -SQRT3 * spec.load
            free = [d for d in range(8) if d not in REACTION_DOFS]
            assert np.abs(residual[free]).max() <= 1e-9 * spec.load

    def test_brace_compressive_over_domain(self):
        spec = TrussSpec()
        rng = np.random.default_rng(7)
        for _ in range(50):
            areas = spec.default_areas()
            areas[1] = (3.0 + 6.0 * rng.random()) * 1e-4
            areas[4] = (3.0 + 6.0 * rng.random()) * 1e-4
            forces = solve_member_forces(areas, spec, include_diagonal=True)
            assert forces[4] < 0.0

    def test_buckling_switch_and_jump_by_bisection(self):
        spec = TrussSpec()

        def f4(a5_cm2):
            areas = spec.default_areas()
            areas[4] = a5_cm2 * 1e-4
            return truss_member4_force(areas, spec)

        lo, hi = 3.0, 9.0
        assert f4(lo) == pytest.approx(-SQRT3 * spec.load, rel=1e-12)  # buckled
        assert f4(hi) > -SQRT3 * spec.load  # intact carries less
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f4(mid) == pytest.approx(-SQRT3 * spec.load, rel=1e-12):
                lo = mid
            else:
                hi = mid
        jump = abs(f4(hi) - f4(lo))
        assert hi - lo < 1e-12
        assert jump > 0.4 * spec.load

    def test_member4_continuous_below_threshold(self):
        spec = TrussSpec()
        a = np.linspace(6.0, 9.0, 200)  # intact branch at A2 = 6 cm^2
        values = []
        for a5 in a:
            areas = spec.default_areas()
            areas[4] = a5 * 1e-4
            values.append(truss_member4_force(areas, spec))
        steps = np.abs(np.diff(values))
        assert steps.max() < 5.0  # newtons per fine step, no jumps

    def test_euler_load_reads_the_stiffness_length(self):
        # the Euler load took member 5's length as 3.9999999999999996 from
        # np.linalg.norm, the stiffness as 4.0 from np.hypot
        spec = TrussSpec()
        for area in (3e-4, 6e-4, 8.5e-4):
            inertia = area * area / (4.0 * math.pi)
            assert spec.critical_load(area) == math.pi ** 2 * spec.modulus * inertia / 4.0 ** 2

    @pytest.mark.parametrize("field, value", [("modulus", math.inf), ("load", 0.0),
                                              ("base_area", -1e-4), ("load", math.nan)])
    def test_spec_validation(self, field, value):
        with pytest.raises(ValueError, match="finite and positive"):
            TrussSpec(**{field: value})

    def test_bad_areas_rejected(self):
        spec = TrussSpec()
        with pytest.raises(SparseGridError):
            solve_member_forces(np.zeros(6), spec)
        with pytest.raises(SparseGridError):
            solve_member_forces(np.full(5, 1e-4), spec)


class TestRegistry:
    def test_names(self):
        assert "line_singularity" in benchmark_names()
        assert "truss2" in benchmark_names() and "poisson" in benchmark_names()

    def test_unknown_benchmark(self):
        with pytest.raises(SparseGridError):
            get_benchmark("nope")

    def test_unused_params_rejected(self):
        with pytest.raises(SparseGridError):
            get_benchmark("kink", {"typo": 1})

    @pytest.mark.parametrize("name, params", [
        ("poisson", {"n_random": 3.7}),  # int() made a 3-input model of it
        ("poisson", {"n_cells": 20.9}),  # and a 20-cell grid of this
        ("poisson", {"n_random": True}),  # and a 1-input model of this
        ("poisson", {"n_cells": 64.0}),
        ("poisson", {"correlation_length": math.nan}),
        ("poisson", {"correlation_length": math.inf}),
        ("kink", {"kink_pos": math.nan}),
        ("kink", {"kink_pos": -math.inf}),
        ("genz_oscillatory", {"c": [1.0, 1.0, math.nan, 1.0, 1.0]}),
        ("genz_corner_peak", {"c": [1.0, math.inf, 1.0, 1.0, 1.0]}),
        ("truss2", {"load": math.nan}),
        ("truss3", {"modulus": math.inf}),
        # wrongly typed: each escaped as a TypeError from float(), tuple() or
        # a comparison, or its bool or string was read as a number
        ("genz_oscillatory", {"c": 1}),
        ("genz_corner_peak", {"c": ["a"] * 5}),
        ("genz_oscillatory", {"c": [1.0, 1.0, True, 1.0, 1.0]}),
        ("genz_discontinuous", {"w1": [0.1, 0.2]}),
        ("kink", {"kink_pos": [0.3, 0.4]}),
        ("kink", {"kink_pos": "0.3"}),
        ("truss2", {"modulus": [1, 2]}),
        ("truss3", {"load": None}),
        ("poisson", {"correlation_length": [1, 2]}),
        ("truss2", {"load": True}),
    ])
    def test_fractional_or_non_finite_params_refused(self, name, params):
        # each was accepted: a count truncated, or a NaN or inf that failed
        # only later, at every evaluation
        with pytest.raises(ValueError, match=next(iter(params))):
            get_benchmark(name, params)

    def test_numpy_counts_echo_as_python_ints(self):
        f, echo = get_benchmark("poisson", {"n_random": np.int64(4), "n_cells": np.int32(32)})
        assert f.dimension == 4 and type(echo["n_random"]) is int
        assert json.loads(json.dumps(echo)) == {"n_random": 4, "correlation_length": 0.5,
                                                "n_cells": 32, "x_obs": 0.5}

    def test_truss_echo(self):
        _, echo = get_benchmark("truss3", {"load": 3000})
        assert json.dumps(echo) == (
            '{"modulus": 200000000000.0, "load": 3000.0, "base_area": 0.0006, '
            '"random_members": [1, 3, 5], "bounds_cm2": [[5.5, 6.5], [5.5, 6.5], [3, 9]]}')

    def test_dimension_wiring(self):
        for name, d in [("kink", 1), ("line_singularity", 2), ("genz_oscillatory", 5),
                        ("truss2", 2), ("truss3", 3)]:
            f, _ = get_benchmark(name)
            assert f.dimension == d
        f, echo = get_benchmark("poisson", {"n_random": 4, "n_cells": 32})
        assert f.dimension == 4 and echo["n_cells"] == 32

    def test_truss2_wiring_matches_direct_solver(self):
        f, _ = get_benchmark("truss2")
        spec = TrussSpec()
        x = np.array([0.25, 0.75])
        areas = spec.default_areas()
        areas[1] = (3.0 + 6.0 * 0.25) * 1e-4
        areas[4] = (3.0 + 6.0 * 0.75) * 1e-4
        assert f(x) == pytest.approx(truss_member4_force(areas, spec), rel=1e-14)

    def test_counter_counts_each_call(self):
        f, _ = get_benchmark("line_singularity")
        f([0.5, 0.5])
        f([0.1, 0.9])
        assert f.evaluations == 2

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batch_forms_equal_scalar_bitwise(self, data):
        name = data.draw(st.sampled_from(BATCHED))
        f, _ = get_benchmark(name)
        n = data.draw(st.sampled_from(
            [1, 2, POISSON_BLOCK - 1, POISSON_BLOCK, POISSON_BLOCK + 1, 2 * POISSON_BLOCK + 5]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        points = rng.random((n, f.dimension))
        # grid coordinates, where the kink and the boundaries sit
        special = rng.random(points.shape) < 0.3
        points[special] = rng.choice([0.0, 0.4375, 0.5, 1.0], size=int(special.sum()))
        got = f.many(points)
        assert f.evaluations == n
        want = np.array([f.func(x) for x in points])
        assert got.shape == (n,)
        assert got.tobytes() == want.tobytes()


BATCHED = sorted(name for name in benchmark_names() if get_benchmark(name)[0].batch is not None)


def test_batched_benchmarks():
    assert BATCHED == ["kink", "line_singularity", "poisson"]
