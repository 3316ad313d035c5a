"""Spline construction, line scans, the region database, and run_easgc."""

import logging
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from sgsurrogate import (
    AdaptiveConfig,
    CubicLineSpline,
    GridPoint,
    ModelFunction,
    NodeIndex1D,
    Provenance,
    RegionDatabase,
    SmoothRegion,
    SparseGridError,
    derivative_scan,
    group_lines,
    root_point,
    run_asgc,
    run_csc,
    run_easgc,
    spline_value,
)
from sgsurrogate.smooth import LineGroup, _endpoint_slope


class TestCubicLineSpline:
    def test_knot_exactness(self):
        x = np.array([0.0, 0.1, 0.35, 0.6, 0.62, 1.0])
        y = np.sin(4 * x) + x
        s = CubicLineSpline(x, y)
        np.testing.assert_allclose(s(x), y, rtol=0, atol=1e-14)

    def test_reproduces_cubics_exactly(self):
        t = np.linspace(0, 1, 777)
        for knots in ([0.0, 0.25, 0.5, 1.0], [0.0, 0.2, 0.4, 0.8, 0.9, 1.0]):
            x = np.array(knots)
            y = 2 * x ** 3 - 3 * x ** 2 + 0.5 * x + 1
            s = CubicLineSpline(x, y)
            expected = 2 * t ** 3 - 3 * t ** 2 + 0.5 * t + 1
            np.testing.assert_allclose(s(t), expected, rtol=0, atol=1e-12)

    def test_matches_clamped_scipy_oracle(self):
        # independent route: scipy clamped spline fed the same end slopes
        rng = np.random.default_rng(3)
        x = np.sort(rng.random(12))
        y = np.cos(5 * x) + x ** 2
        s = CubicLineSpline(x, y)
        lo = _endpoint_slope(x[:5], y[:5])
        hi = _endpoint_slope(x[-5:][::-1], y[-5:][::-1])
        oracle = CubicSpline(x, y, bc_type=((1, lo), (1, hi)))
        t = np.linspace(x[0], x[-1], 2000)
        np.testing.assert_allclose(s(t), oracle(t), rtol=0, atol=1e-12)

    def test_sine_error_within_quartic_bound(self):
        x = np.linspace(0, 1, 9)
        s = CubicLineSpline(x, np.sin(2 * np.pi * x))
        t = np.linspace(0, 1, 10_000)
        err = np.abs(s(t) - np.sin(2 * np.pi * t)).max()
        assert err <= (5 / 384) * (2 * np.pi) ** 4 * (1 / 8) ** 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CubicLineSpline([0.0, 0.5, 1.0], [1, 2, 3])
        with pytest.raises(ValueError):
            CubicLineSpline([0.0, 0.5, 0.5, 1.0], [1, 2, 3, 4])

    def test_endpoint_slope_exact_for_quartics(self):
        x = np.array([0.0, 0.13, 0.4, 0.55, 0.81])
        y = x ** 4 - 2 * x ** 2 + x
        got = _endpoint_slope(x, y)
        assert got == pytest.approx(4 * x[0] ** 3 - 4 * x[0] + 1, abs=1e-12)


def csc_model(func, d, level):
    f = ModelFunction(lambda x: float(func(x)), d, "m")
    return run_csc(f, d, level).model


class TestGroupLines:
    def test_1d_single_group(self):
        m = csc_model(lambda x: x[0], 1, 3)
        groups = group_lines(m, 0)
        assert len(groups) == 1
        assert groups[0].anchor == ()
        assert groups[0].multiplicity == len(m)

    def test_2d_level2_grouping(self):
        # 13 nodes; the y=0.5 line holds x in {0, 0.25, 0.5, 0.75, 1}
        m = csc_model(lambda x: x[0] + x[1], 2, 2)
        groups = group_lines(m, 0)
        assert sum(g.multiplicity for g in groups) == 13
        center = [g for g in groups if g.anchor == ((1, 1),)]
        assert len(center) == 1
        np.testing.assert_array_equal(center[0].positions, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_partition_property_every_dim(self):
        m = csc_model(lambda x: float(np.sin(x[0] + 2 * x[1] + x[2])), 3, 3)
        for dim in range(3):
            groups = group_lines(m, dim)
            assert sum(g.multiplicity for g in groups) == len(m)

    def test_positions_sorted_strictly(self):
        m = csc_model(lambda x: x[0] * x[1], 2, 4)
        for dim in range(2):
            for g in group_lines(m, dim):
                assert np.all(np.diff(g.positions) > 0)


def line(positions, outputs, dim=0, anchor=()):
    return LineGroup(dim=dim, anchor=anchor,
                     positions=np.asarray(positions, dtype=float),
                     outputs=np.asarray(outputs, dtype=float))


class TestDerivativeScan:
    def test_linear_line_single_full_run(self):
        x = np.linspace(0, 1, 9)
        g = line(x, 3 * x + 1)
        assert derivative_scan(g, 0.1, 5) == [(0, 9)]

    def test_kink_splits_at_junction(self):
        x = np.linspace(0, 1, 9)
        g = line(x, np.abs(x - 0.5))
        runs = derivative_scan(g, 0.1, 5)
        assert runs == [(0, 5), (4, 9)]
        assert x[4] == 0.5  # both runs share the kink knot

    def test_sine_survives_loose_tolerance(self):
        x = np.linspace(0, 1, 9)
        g = line(x, np.sin(2 * np.pi * x))
        assert derivative_scan(g, 5.0, 5) == [(0, 9)]
        # with a strict tolerance the same line shatters into nothing usable
        assert derivative_scan(g, 0.01, 5) == []

    def test_below_min_points_is_empty(self):
        x = np.linspace(0, 1, 7)
        g = line(x, 3 * x)
        assert derivative_scan(g, 0.1, 9) == []
        assert derivative_scan(g, 0.1, math.inf) == []

    def test_short_fragments_dropped(self):
        # kink at knot 2 of 9 leaves a 3-knot left fragment, dropped
        x = np.linspace(0, 1, 9)
        y = np.abs(x - 0.25) * 2
        g = line(x, y)
        runs = derivative_scan(g, 0.1, 5)
        assert runs == [(2, 9)]

    def test_scale_normalisation(self):
        # same shape, huge amplitude: relative tolerance keeps the verdict
        x = np.linspace(0, 1, 11)
        g_small = line(x, np.sin(2 * np.pi * x))
        g_big = line(x, 1e6 * np.sin(2 * np.pi * x))
        assert derivative_scan(g_small, 4.0, 5) == derivative_scan(g_big, 4.0, 5)

    def test_nonuniform_spacing_uses_true_gaps(self):
        # dyadic non-uniform knots on a parabola stay one smooth run
        x = np.array([0.0, 0.0625, 0.125, 0.25, 0.5, 0.625, 0.75, 0.875, 1.0])
        g = line(x, x ** 2)
        assert derivative_scan(g, 0.5, 5) == [(0, 9)]


def region(knots, outputs=None, dim=0, anchor=()):
    knots = np.asarray(knots, dtype=float)
    if outputs is None:
        outputs = knots ** 2
    return SmoothRegion(dim=dim, anchor=anchor, knots=knots,
                        outputs=np.asarray(outputs, dtype=float))


class TestRegionDatabase:
    def test_store_and_size(self):
        db = RegionDatabase()
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert len(db) == 1

    def test_idempotent_restore(self):
        db = RegionDatabase()
        r = region([0.0, 0.25, 0.5, 0.75, 1.0])
        db.store(r)
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert len(db) == 1

    def test_superset_replaces_subset(self):
        db = RegionDatabase()
        db.store(region([0.25, 0.375, 0.5, 0.625]))
        db.store(region([0.0, 0.25, 0.375, 0.5, 0.625, 0.75]))
        assert len(db) == 1
        stored = next(iter(db.regions()))
        assert stored.lo == 0.0 and stored.hi == 0.75

    def test_subset_is_noop(self):
        db = RegionDatabase()
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0]))
        db.store(region([0.25, 0.375, 0.5, 0.625]))
        assert len(db) == 1
        assert next(iter(db.regions())).hi == 1.0

    def test_partial_overlap_keeps_larger(self, caplog):
        db = RegionDatabase()
        db.store(region([0.0, 0.25, 0.5, 0.625]))
        with caplog.at_level(logging.DEBUG, logger="sgsurrogate.smooth"):
            db.store(region([0.3, 0.5, 0.625, 0.75, 0.875, 1.0]))
        assert len(db) == 1
        assert next(iter(db.regions())).hi == 1.0

    def test_partial_overlap_keeps_larger_existing(self):
        db = RegionDatabase()
        db.store(region([0.0, 0.25, 0.5, 0.625, 0.75]))
        db.store(region([0.625, 0.75, 0.875, 1.0]))  # shorter, dropped
        assert len(db) == 1
        assert next(iter(db.regions())).hi == 0.75

    def test_disjoint_regions_coexist(self):
        db = RegionDatabase()
        db.store(region([0.0, 0.125, 0.25, 0.375]))
        db.store(region([0.5, 0.625, 0.75, 1.0]))
        assert len(db) == 2

    def test_lookup_empty_and_hit_and_miss(self):
        db = RegionDatabase()
        p_mid = GridPoint((NodeIndex1D(1, 0), NodeIndex1D(2, 0)))  # (0.5, 0)
        assert db.lookup(p_mid) is None
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], dim=0, anchor=((0, 0),)))
        hit = db.lookup(p_mid)
        assert hit is not None
        r, t = hit
        assert t == 0.5
        # a point on the same line but outside the interval misses
        db2 = RegionDatabase()
        db2.store(region([0.0, 0.125, 0.25, 0.375], dim=0, anchor=((0, 0),)))
        p_out = GridPoint((NodeIndex1D(2, 1), NodeIndex1D(2, 0)))  # (1, 0)
        assert db2.lookup(p_out) is None

    def test_lookup_earliest_created_wins(self):
        db = RegionDatabase()
        # centre point (0.5, 0.5) lies on one line per dimension
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], dim=1, anchor=((1, 1),),
                        outputs=np.ones(5)))
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], dim=0, anchor=((1, 1),),
                        outputs=np.full(5, 2.0)))
        r, t = db.lookup(root_point(2))
        assert r.dim == 1  # stored first

    def test_spline_value_contract(self):
        r = region([0.0, 0.25, 0.5, 0.75, 1.0])
        assert spline_value(r, 0.75) == pytest.approx(0.75 ** 2, abs=1e-14)
        assert spline_value(r, r.midpoint) == pytest.approx(0.25, abs=1e-12)
        with pytest.raises(SparseGridError):
            spline_value(r, r.midpoint + 1.5 * r.half_length)

    def test_region_invariants(self):
        r = region([0.0, 0.25, 0.5, 0.75, 1.0])
        assert r.midpoint == 0.5 and r.half_length == 0.5
        with pytest.raises(SparseGridError):
            region([0.0, 0.25, 0.5])  # too few knots
        with pytest.raises(SparseGridError):
            region([0.0, 0.25, 0.25, 0.5])  # not strictly increasing


class TestRunEasgc:
    def test_constant_identical_to_asgc(self):
        fa = ModelFunction(lambda x: 2.0, 2, "c")
        fe = ModelFunction(lambda x: 2.0, 2, "c")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=8, init_level=0)
        ra = run_asgc(fa, cfg)
        re_ = run_easgc(fe, cfg)
        assert [n.point.key for n in ra.model.nodes()] == [n.point.key for n in re_.model.nodes()]
        assert re_.model.spline_interpolations == 0

    def test_plane_surpluses_vanish_so_no_refinement(self):
        # f = x + y is exact at level 1; every deeper surplus is exactly 0,
        # so both drivers stop immediately and splines never engage
        func = lambda x: float(x[0] + x[1])
        fe = ModelFunction(func, 2, "plane")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-9, max_level=7, init_level=2,
                             min_line_points=5)
        res = run_easgc(fe, cfg)
        assert res.stopped_by == "tolerance"
        assert res.model.spline_interpolations == 0

    def test_smooth_function_resolved_with_fewer_full_evaluations(self):
        # same refinement decisions as the plain adaptive run, but certified
        # lines take spline values instead of full evaluations
        func = lambda x: float(np.sin(2 * np.pi * x[0]) + x[1])
        fe = ModelFunction(func, 2, "s")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=8, init_level=2,
                             min_line_points=5)
        res = run_easgc(fe, cfg)
        fa = ModelFunction(func, 2, "s")
        ra = run_asgc(fa, AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=8, init_level=2))
        assert res.model.spline_interpolations > 0
        assert res.model.full_evaluations < ra.model.full_evaluations
        assert len(res.model) == len(ra.model)

    def test_counter_discipline(self):
        func = lambda x: float(np.sin(2 * np.pi * x[0]) + x[1])
        fe = ModelFunction(func, 2, "s")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=8, init_level=2,
                             min_line_points=5)
        res = run_easgc(fe, cfg)
        m = res.model
        assert m.full_evaluations + m.spline_interpolations == len(m)
        assert fe.evaluations == m.full_evaluations
        by_prov = {Provenance.FULL_MODEL: 0, Provenance.SPLINE_INTERPOLATED: 0}
        for n in m.nodes():
            by_prov[n.provenance] += 1
        assert by_prov[Provenance.FULL_MODEL] == m.full_evaluations
        assert by_prov[Provenance.SPLINE_INTERPOLATED] == m.spline_interpolations

    def test_flow_equivalence_min_points_infinite(self):
        func = lambda x: float(np.exp(x[0]) * np.cos(3 * x[1]))
        fe = ModelFunction(func, 2, "e")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-5, max_level=7, init_level=2,
                             min_line_points=math.inf)
        res = run_easgc(fe, cfg)
        fa = ModelFunction(func, 2, "e")
        ra = run_asgc(fa, AdaptiveConfig(dimension=2, epsilon=1e-5, max_level=7, init_level=2))
        assert res.model.spline_interpolations == 0
        assert [n.point.key for n in res.model.nodes()] == [n.point.key for n in ra.model.nodes()]
        got = [(n.output, n.w, n.v) for n in res.model.nodes()]
        want = [(n.output, n.w, n.v) for n in ra.model.nodes()]
        assert got == want

    def test_accuracy_guard_on_separable_smooth_function(self):
        func = lambda x: float(np.sin(2 * np.pi * x[0]) + np.cos(2 * np.pi * x[1]))
        f4max = (2 * np.pi) ** 4
        fe = ModelFunction(func, 2, "s")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-5, max_level=9, init_level=2,
                             min_line_points=9)
        res = run_easgc(fe, cfg)
        n_spline = res.model.spline_interpolations
        assert n_spline > 0
        checked = 0
        for r in res.region_db.regions():
            h = float(np.diff(r.knots).max())
            unit = (5 / 384) * f4max * h ** 4
            ts = np.linspace(r.lo, r.hi, 12)[1:-1]
            coords = np.empty((len(ts), 2))
            coords[:, r.dim] = ts
            num, exp = r.anchor[0]
            coords[:, 1 - r.dim] = num / (1 << exp)
            true = np.array([func(c) for c in coords])

            def on_line(t):
                c = np.empty(2)
                c[r.dim] = t
                c[1 - r.dim] = coords[0, 1 - r.dim]
                return func(c)

            # the spline machinery itself meets the sharp quartic bound when
            # fed exact knot outputs on the same scan geometry
            exact_knots = CubicLineSpline(r.knots, [on_line(t) for t in r.knots])
            assert np.abs(exact_knots(ts) - true).max() <= unit
            # stored regions inherit earlier substitutions: the integrated
            # bound scales with the number of spline-valued nodes
            dev = max(abs(spline_value(r, t) - tv) for t, tv in zip(ts, true))
            assert dev <= unit * max(1, n_spline)
            checked += 1
        assert checked > 0
