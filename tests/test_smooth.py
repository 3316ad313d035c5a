"""Spline construction, line scans, the region database, and run_easgc."""

import copy
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import reference as ref
from sgsurrogate import (
    AdaptiveConfig,
    DimensionMismatchError,
    InvalidNodeError,
    ModelFunction,
    RegionDatabase,
    SmoothRegion,
    SparseGridError,
    coordinates,
    derivative_scan,
    get_benchmark,
    group_lines,
    run_asgc,
    run_csc,
    run_easgc,
    spline_value,
)
from sgsurrogate import smooth
from sgsurrogate.core import _codes_of_dyadic, dyadic_codes
from sgsurrogate.smooth import (
    LineGroup, _endpoint_slopes, _second_derivatives, _solve_tridiagonal, _spline_values,
)


def fitted(knots, values):
    """The spline of one knot set as a function of t: a region's fit and
    evaluation by _spline_values, the path every spline value takes."""
    r = SmoothRegion(dim=0, anchor=(), knots=knots, outputs=values)
    return lambda t: _spline_values([r], np.zeros(np.size(t), dtype=np.intp), np.atleast_1d(t))


def endpoint_slope(x, y) -> float:
    """The library's end slope of one knot set: a one-row batch."""
    return float(_endpoint_slopes(np.asarray(x, dtype=float)[None], np.asarray(y)[None])[0])


class TestCubicLineSpline:
    """The clamped cubic line spline of a region, as _spline_values fits and
    evaluates it, against scipy and the one-spline reference.CubicLineSpline."""

    def test_knot_exactness(self):
        x = np.array([0.0, 0.1, 0.35, 0.6, 0.62, 1.0])
        y = np.sin(4 * x) + x
        s = fitted(x, y)
        np.testing.assert_allclose(s(x), y, rtol=0, atol=1e-14)

    def test_reproduces_cubics_exactly(self):
        t = np.linspace(0, 1, 777)
        for knots in ([0.0, 0.25, 0.5, 1.0], [0.0, 0.2, 0.4, 0.8, 0.9, 1.0]):
            x = np.array(knots)
            y = 2 * x ** 3 - 3 * x ** 2 + 0.5 * x + 1
            s = fitted(x, y)
            expected = 2 * t ** 3 - 3 * t ** 2 + 0.5 * t + 1
            np.testing.assert_allclose(s(t), expected, rtol=0, atol=1e-12)

    def test_matches_clamped_scipy_oracle(self):
        # independent route: scipy clamped spline fed the same end slopes
        rng = np.random.default_rng(3)
        x = np.sort(rng.random(12))
        y = np.cos(5 * x) + x ** 2
        s = fitted(x, y)
        lo = endpoint_slope(x[:5], y[:5])
        hi = endpoint_slope(x[-5:][::-1], y[-5:][::-1])
        oracle = CubicSpline(x, y, bc_type=((1, lo), (1, hi)))
        t = np.linspace(x[0], x[-1], 2000)
        np.testing.assert_allclose(s(t), oracle(t), rtol=0, atol=1e-12)

    def test_sine_error_within_quartic_bound(self):
        x = np.linspace(0, 1, 9)
        s = fitted(x, np.sin(2 * np.pi * x))
        t = np.linspace(0, 1, 10_000)
        err = np.abs(s(t) - np.sin(2 * np.pi * t)).max()
        assert err <= (5 / 384) * (2 * np.pi) ** 4 * (1 / 8) ** 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(SparseGridError, match="needs >= 4 knots"):
            fitted([0.0, 0.5, 1.0], [1, 2, 3])
        with pytest.raises(SparseGridError, match="strictly increasing"):
            fitted([0.0, 0.5, 0.5, 1.0], [1, 2, 3, 4])

    def test_second_derivatives_equal_banded_solve_bitwise(self):
        rng = np.random.default_rng(8)
        for n in (4, 5, 9, 33):
            x = np.sort(rng.choice(np.arange(1, 200), n, replace=False)) / 256.0
            y = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
            [got] = _second_derivatives([x], [y])
            np.testing.assert_array_equal(got, ref.CubicLineSpline(x, y).second_derivs)

    def test_non_finite_inputs_rejected(self):
        x = [0.0, 0.25, 0.5, 1.0]
        for bad_x, bad_y, fault in ((x, [0.0, np.nan, 1.0, 2.0], "outputs"),
                                    (x, [0.0, np.inf, 1.0, 2.0], "outputs"),
                                    ([0.0, 0.25, np.nan, 1.0], [0.0, 1.0, 2.0, 3.0], "knots")):
            with pytest.raises(SparseGridError, match=f"non-finite {fault}"):
                fitted(bad_x, bad_y)

    def test_endpoint_slope_exact_for_quartics(self):
        x = np.array([0.0, 0.13, 0.4, 0.55, 0.81])
        y = x ** 4 - 2 * x ** 2 + x
        got = endpoint_slope(x, y)
        assert got == pytest.approx(4 * x[0] ** 3 - 4 * x[0] + 1, abs=1e-12)
        assert np.float64(got).tobytes() == np.float64(ref.endpoint_slope(x, y)).tobytes()


def columns(blocks):
    """(diag, off, rhs) blocks laid out as _solve_tridiagonal takes them: one
    column each, padded below with identity rows of zero coupling."""
    shape = (max(len(d) for d, _, _ in blocks), len(blocks))
    diag, off, rhs = np.ones(shape), np.zeros(shape), np.zeros(shape)
    for r, (d, e, b) in enumerate(blocks):
        diag[:len(d), r], off[:len(e), r], rhs[:len(b), r] = d, e, b
    return diag, off, rhs


@st.composite
def dominant_blocks(draw):
    """1-400 symmetric, strictly diagonally dominant tridiagonal systems of
    1-70 unknowns, built as spline systems are from knot spacings down to
    2**-40 (zero outside the end knots of some), each times +1 or -1, with
    right-hand sides that include +0 and -0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    longest = draw(st.integers(1, 70))
    blocks = []
    for n in rng.integers(1, longest + 1, size=draw(st.integers(1, 400))):
        h = 2.0 ** -rng.uniform(0, 40, n + 1) * rng.uniform(1, 2, n + 1)
        if n > 1 and rng.random() < 0.5:
            h[0] = h[-1] = 0.0  # the end rows of a clamped spline
        sign = rng.choice([-1.0, 1.0])
        rhs = rng.normal(size=n) * 2.0 ** rng.integers(-40, 40, n)
        rhs[rng.random(n) < 0.3] = 0.0
        rhs[rng.random(n) < 0.3] = -0.0
        blocks.append((sign * ((h[:-1] + h[1:]) / 3.0), sign * (h[1:-1] / 6.0), rhs))
    return blocks


class TestTridiagonalSolve:
    """_solve_tridiagonal against LAPACK: reference.block_tridiagonal_solve
    solves the same systems with one `dgtsv` call."""

    @settings(max_examples=120, deadline=None)
    @given(blocks=dominant_blocks())
    def test_equals_lapack_bitwise(self, blocks):
        got = _solve_tridiagonal(*columns(blocks))
        for r, want in enumerate(ref.block_tridiagonal_solve(blocks)):
            assert got[:len(want), r].tobytes() == want.tobytes()  # -0 and +0 differ here

    def test_zero_pivot_refused(self):
        blocks = [(np.array([2.0, 1.0, 3.0]), np.array([0.5, 0.5]), np.ones(3)),
                  (np.array([4.0, 0.0, 4.0]), np.array([0.0, 0.0]), np.ones(3))]
        with pytest.raises(SparseGridError, match="zero pivot in row 1 of system 1"):
            _solve_tridiagonal(*columns(blocks))

    def test_row_interchange_refused(self):
        # LAPACK would swap rows 0 and 1 of system 0 (|diag| < |off|) and
        # solve it; the NumPy solve only follows the branch without swaps
        blocks = [(np.array([1.0, 3.0, 3.0]), np.array([2.0, 1.0]), np.ones(3))]
        np.testing.assert_array_equal(ref.block_tridiagonal_solve(blocks)[0], [-1.0, 1.0, 0.0])
        with pytest.raises(SparseGridError, match="row 0 of system 0 would need a row interchange"):
            _solve_tridiagonal(*columns(blocks))


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
        center = [g for g in groups if g.anchor == (1,)]  # code 1: the node at 0.5
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

    @pytest.mark.parametrize("colliding", [False, True])
    def test_builds_only_long_lines(self, colliding, monkeypatch):
        # many short lines, few long ones: LineGroups are built for the long
        # lines only, and they are exactly the lines of the per-node reference
        m = csc_model(lambda x: float(np.sin(x[0] + 2 * x[1]) * x[2] + x[3]), 4, 5)
        if colliding:
            # every anchor key collides: the exact grouping must still decide
            monkeypatch.setattr(smooth, "_row_weights", lambda d: np.zeros(d, dtype=np.int64))
        built = []
        grouped = []  # rows sent to the exact grouping

        def counting(**fields):
            built.append(fields["dim"])
            return LineGroup(**fields)

        def exact(codes):
            grouped.append(len(codes))
            return dyadic_codes(codes)

        monkeypatch.setattr(smooth, "LineGroup", counting)
        monkeypatch.setattr(smooth, "dyadic_codes", exact)
        for min_points in (1, 5, 7, 9, math.inf):
            for dim in range(4):
                built.clear()
                grouped.clear()
                want = reference_lines(m, dim, min_points)
                got = group_lines(m, dim, min_points)
                assert len(built) == len(got) == len(want)
                on_long_lines = sum(len(positions) for _, positions, _ in want)
                assert sum(grouped) == (len(m) if colliding and want else on_long_lines)
                all_lines = len(reference_lines(m, dim, 1))
                assert len(built) <= all_lines and (min_points <= 1 or len(built) < all_lines)
                for g, (anchor, positions, outputs) in zip(got, want):
                    assert g.dim == dim and g.anchor == anchor
                    np.testing.assert_array_equal(g.positions, positions)
                    np.testing.assert_array_equal(g.outputs, outputs)

    def test_scan_builds_groups_for_scanned_lines_only(self, monkeypatch):
        # the scan carries its lines as arrays: it builds no LineGroup at all
        built = []

        def counting(**fields):
            built.append(fields["dim"])
            return LineGroup(**fields)

        monkeypatch.setattr(smooth, "LineGroup", counting)
        f = ModelFunction(lambda x: float(np.sin(2 * np.pi * x[0]) * (1 + x[1] * x[2])), 3, "s")
        cfg = AdaptiveConfig(dimension=3, epsilon=1e-3, max_level=7, init_level=2,
                             min_line_points=7)
        res = run_easgc(f, cfg)
        assert not built and sum(r.lines_scanned for r in res.records) > 0
        long_lines = sum(len(reference_lines(res.model, dim, 7)) for dim in range(3))
        all_lines = sum(len(reference_lines(res.model, dim, 1)) for dim in range(3))
        # scans before the last level see fewer nodes, so fewer long lines
        assert max(r.lines_scanned for r in res.records) <= long_lines < all_lines


def reference_lines(m, dim, min_points):
    """Reference grouping: per-node anchor tuples, then sorted by the anchors'
    exact coordinates, long lines only; each line as (anchor codes,
    positions, outputs)."""
    lines = {}
    for p, output in zip(ref.model_points(m), m.outputs.tolist()):
        others = p.dims[:dim] + p.dims[dim + 1:]
        key = (tuple(map(ref.dyadic_1d, others)), tuple(n.code for n in others))
        lines.setdefault(key, []).append((ref.coord_1d(p.dims[dim]), output))
    return [
        (anchor, np.array([p for p, _ in pts]), np.array([o for _, o in pts]))
        for (_, anchor), pts in sorted((k, sorted(p)) for k, p in lines.items())
        if len(pts) >= min_points
    ]


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
        p_mid = [1, 2]  # (0.5, 0)
        assert db.lookup(p_mid) is None
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], dim=0, anchor=(2,)))
        hit = db.lookup(p_mid)
        assert hit is not None
        r, t = hit
        assert t == 0.5
        # a point on the same line but outside the interval misses
        db2 = RegionDatabase()
        db2.store(region([0.0, 0.125, 0.25, 0.375], dim=0, anchor=(2,)))
        p_out = [3, 2]  # (1, 0)
        assert db2.lookup(p_out) is None

    def test_lookup_earliest_created_wins(self):
        db = RegionDatabase()
        # centre point (0.5, 0.5) lies on one line per dimension
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], dim=1, anchor=(1,),
                        outputs=np.ones(5)))
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], dim=0, anchor=(1,),
                        outputs=np.full(5, 2.0)))
        r, t = db.lookup([1, 1])
        assert r.dim == 1  # stored first

    def test_store_reports_its_outcome(self):
        db = RegionDatabase()
        line = dict(dim=0, anchor=(1,))  # a line of 2-D nodes, as the other one
        assert db.store(region([0.25, 0.375, 0.5, 0.625], **line)) == ("created", 0, 0)
        assert db.store(region([0.75, 0.8125, 0.875, 0.9375], **line)) == ("created", 0, 0)
        assert db.store(region([0.25, 0.375, 0.5, 0.625], **line)).status == "covered"
        # covers both stored intervals
        assert db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], **line)) == ("created", 2, 0)
        other = dict(dim=1, anchor=(1,))
        assert db.store(region([0.0, 0.25, 0.5, 0.625], **other)).status == "created"
        # longer partial overlap displaces, shorter one is rejected
        assert db.store(region([0.3, 0.5, 0.625, 0.75, 0.875, 1.0], **other)) == ("created", 0, 1)
        assert db.store(region([0.0, 0.125, 0.25, 0.5], **other)).status == "rejected"
        assert len(db) == 2

    def test_second_node_dimension_refused(self):
        # one database holds the regions of one model: its first region fixes d
        db = RegionDatabase()
        assert db.lookup([1, 1, 1]) is None  # an empty database fixes no d
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], dim=1, anchor=(2,)))
        with pytest.raises(InvalidNodeError, match="3-dimensional nodes in a database "
                                                   "of 2-dimensional"):
            db.store(region([0.0, 0.25, 0.5, 0.75], dim=0, anchor=(1, 1)))
        with pytest.raises(InvalidNodeError, match="1-dimensional nodes"):
            db.store(region([0.0, 0.25, 0.5, 0.75]))
        assert len(db) == 1
        for codes in ([[1, 1, 1]], [[1]], np.zeros((0, 3), dtype=np.int64)):
            with pytest.raises(DimensionMismatchError, match="regions of 2-dimensional"):
                db.lookup_many(codes)
        with pytest.raises(DimensionMismatchError):
            db.lookup([2, 1, 1])
        assert db.lookup([2, 1])[1] == 0.5

    @pytest.mark.parametrize("name, value", [("created_at", 3),
                                             ("_second_derivs", np.zeros(4))])
    def test_store_and_fit_fields_are_no_arguments(self, name, value):
        # store sets created_at and the fit the second derivatives; a value
        # given here was overwritten or taken as a fit of other knots
        with pytest.raises(TypeError, match=name):
            SmoothRegion(dim=0, anchor=(), knots=[0.0, 0.25, 0.5, 0.75],
                         outputs=[0.0, 1.0, 2.0, 3.0], **{name: value})

    def test_lookup_of_a_key_of_no_node(self):
        db = RegionDatabase()
        db.store(region([0.0, 0.25, 0.5, 0.75, 1.0], dim=0, anchor=(2,)))
        # the dyadic pairs 2/4 (0.5, not in lowest terms), 3/2 (outside the
        # cube) and -1/1 name no node: the file reader gives them no code
        for num, exp in ((2, 2), (3, 1), (-1, 0)):
            assert not _codes_of_dyadic(np.array([num]), np.array([exp]))[1].any()
        # code rows with a code of no node: 0, 7 (level 3 has codes 4 and
        # 5), -1 and level 63
        for row in ([1, 0], [7, 2], [1, -1], [1 << 62, 2]):
            with pytest.raises(InvalidNodeError):
                db.lookup(row)

    def test_store_sequences_equal_reference_rule(self):
        # the store decides in one walk of the line; the reference checks for
        # a region holding the new one first.  No benchmark build displaces
        # or rejects a region, so this is the check of those branches.
        seen = dict.fromkeys(["created", "covered", "rejected", "superseded", "displaced"], 0)

        @settings(max_examples=300, deadline=None)
        @given(sequence=store_sequences())
        def check(sequence):
            db, want = RegionDatabase(), ref.RegionStore()
            for dim, anchor, knots in sequence:
                r = region(knots, dim=dim, anchor=anchor)
                outcome = db.store(r)
                assert tuple(outcome) == want.store(dim, anchor, r.lo, r.hi)
                seen[outcome.status] += 1
                seen["superseded"] += outcome.superseded
                seen["displaced"] += outcome.displaced
            assert [(r.dim, r.anchor, r.lo, r.hi, r.created_at)
                    for r in db.regions()] == want.table()

        check()
        assert all(seen.values()), seen

    @pytest.mark.parametrize("anchor, fault", [
        ((0,), "code of no node"),
        ((7, 1), "code of no node"),
        ((-1,), "code of no node"),
        ((1 << 62,), "code of no node"),
        ((1.5,), "non-integer"),
        (((1, 1),), "non-integer"),  # a dyadic (num, exp) pair, not a code
    ])
    def test_anchor_of_no_node_refused(self, anchor, fault):
        # refused at construction, so no database ever holds a region no
        # lookup could match
        with pytest.raises(InvalidNodeError, match=fault):
            region([0.0, 0.25, 0.5, 0.75], anchor=anchor)
        r = region([0.0, 0.25, 0.5, 0.75], anchor=np.array([1, 2, 5 << 40]))
        assert r.anchor == (1, 2, 5 << 40) and all(type(c) is int for c in r.anchor)

    @pytest.mark.parametrize("dim, anchor", [(3, (1,)), (2, (1,)), (-1, (1,)), (1, ())])
    def test_dim_of_no_line_refused(self, dim, anchor):
        # a d-dimensional line runs along one of d = len(anchor) + 1
        # dimensions; any other dim would be stored and never matched
        with pytest.raises(InvalidNodeError, match=f"region dim {dim} outside"):
            region([0.0, 0.25, 0.5, 0.75], dim=dim, anchor=anchor)
        assert region([0.0, 0.25, 0.5, 0.75], dim=len(anchor), anchor=anchor).dim == len(anchor)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_level_lookup_equals_per_key_reference_bitwise(self, data):
        db, codes = data.draw(region_databases())
        with pytest.MonkeyPatch.context() as patch:
            if data.draw(st.booleans()):
                # every anchor key collides: the exact anchor check must decide
                patch.setattr(smooth, "_row_weights", lambda d: np.zeros(d, dtype=np.int64))
            regions, which, t = db.lookup_many(codes)
            singles = [db.lookup(row) for row in codes]
        values = _spline_values(regions, which, t)
        for i, (row, single) in enumerate(zip(codes.tolist(), singles)):
            want = reference_lookup(db, row)
            assert (single is None) == (want is None)
            if want is None:
                assert which[i] == -1 and np.isnan(values[i])
                continue
            r, at = want
            assert regions[which[i]] is r and single[0] is r and single[1] == at
            assert np.float64(t[i]).tobytes() == np.float64(at).tobytes()
            oracle = ref.CubicLineSpline(r.knots, r.outputs)  # one spline at a time
            value = float(oracle(at))
            assert np.float64(values[i]).tobytes() == np.float64(value).tobytes()
            assert np.float64(spline_value(r, at)).tobytes() == np.float64(value).tobytes()
            np.testing.assert_array_equal(r._second_derivs, oracle.second_derivs)
        assert len(set(map(id, regions))) == len(regions)

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

    @pytest.mark.parametrize("knots, outputs, fault", [
        ([0, 0.25, 0.5, 0.75, 1], [0, 1, 2, 3], "5 knots but 4 outputs"),
        ([0, 0.25, 0.5, 0.75], [0, 1, 2, 3, 4], "4 knots but 5 outputs"),
        ([0, 0.25, np.nan, 0.75, 1], [0, 1, 2, 3, 4], "non-finite knots"),
        ([0, 0.25, 0.5, np.inf], [0, 1, 2, 3], "non-finite knots"),
        ([0, 0.25, 0.5, 0.75], [0, np.inf, 2, 3], "non-finite outputs"),
        ([0, 0.25, 0.5, 0.75], [0, 1, -np.inf, np.nan], "non-finite outputs"),
    ])
    def test_malformed_regions_refused(self, knots, outputs, fault):
        # refused at construction, so no database ever stores one
        with pytest.raises(SparseGridError, match=fault):
            SmoothRegion(dim=0, anchor=(), knots=np.array(knots, dtype=float),
                         outputs=np.array(outputs, dtype=float))


# codes of levels 1 .. 4 for knots and anchors, 1 .. 5 for queries
KNOT_CODES = [1, 2, 3, 4, 5, 8, 9, 10, 11]
QUERY_CODES = KNOT_CODES + list(range(16, 24))
BY_POSITION = [2, 8, 4, 9, 1, 10, 5, 11, 3]  # KNOT_CODES in ascending position


@st.composite
def region_databases(draw):
    """A database of up to 14 regions in 1-3 dimensions, and query rows.

    Some regions cross an earlier one at one of its knots, along another
    dimension, so lookups there tie across dimensions; and intervals on one
    line overlap, so stores supersede, displace or are rejected.  Most query
    rows lie on a stored region's line, the rest anywhere.  (An anchor of no
    node cannot be built; test_anchor_of_no_node_refused and the file tests
    check those refusals.)
    """
    d = draw(st.integers(1, 3))
    db = RegionDatabase()
    lines = []  # (dim, full code row with the line's anchor, 0 at dim)
    for _ in range(draw(st.integers(0, 14))):
        dim = draw(st.integers(0, d - 1))
        lo = draw(st.integers(0, 5))  # a window of the line, so intervals overlap partly
        window = BY_POSITION[lo:draw(st.integers(lo + 4, 9))]
        knots = draw(st.sets(st.sampled_from(window), min_size=4, max_size=len(window)))
        crossing = [(a, row) for a, row in lines if a != dim]
        if crossing and draw(st.booleans()):
            # through a knot of an earlier line: the two lines share that node
            a, row = draw(st.sampled_from(crossing))
            row = row.copy()
            row[a] = draw(st.sampled_from(KNOT_CODES))
            knots.add(int(row[dim]))
        else:
            row = np.array(draw(st.lists(st.sampled_from(KNOT_CODES[:5]), min_size=d,
                                         max_size=d)), dtype=np.int64)
        row[dim] = 1
        lines.append((dim, row))
        anchor = tuple(np.delete(row, dim).tolist())
        positions = np.sort(coordinates(np.array(sorted(knots))))
        outputs = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=len(knots),
                                max_size=len(knots)))
        db.store(SmoothRegion(dim=dim, anchor=anchor, knots=positions,
                              outputs=np.array(outputs)))
    queries = []
    for _ in range(draw(st.integers(1, 40))):
        if lines and draw(st.integers(0, 3)):
            dim, row = draw(st.sampled_from(lines))
            row = row.copy()
            row[dim] = draw(st.sampled_from(QUERY_CODES))
        else:
            row = draw(st.lists(st.sampled_from(QUERY_CODES), min_size=d, max_size=d))
        queries.append(row)
    return db, np.array(queries, dtype=np.int64).reshape(-1, d)


@st.composite
def store_sequences(draw):
    """Up to 12 stores of 4-13 knots in sixteenths on 1-3 lines of 2-D nodes.

    Each interval is a random window of [0, 1], so later ones often hold,
    fall inside or partly overlap earlier ones on their line, and equal
    intervals are re-stored.
    """
    lines = draw(st.lists(st.sampled_from([(0, (1,)), (1, (1,)), (0, (2,))]),
                          min_size=1, max_size=3, unique=True))
    sequence = []
    for _ in range(draw(st.integers(1, 12))):
        dim, anchor = draw(st.sampled_from(lines))
        lo = draw(st.integers(0, 13))
        hi = draw(st.integers(lo + 3, min(lo + 12, 16)))
        inner = draw(st.sets(st.integers(lo + 1, hi - 1), min_size=2, max_size=hi - lo - 1))
        sequence.append((dim, anchor, np.array(sorted({lo, hi, *inner})) / 16))
    return sequence


def reference_lookup(db, row):
    """Reference: the per-node loop the level-wide lookup replaced."""
    lines = {}
    for r in db.regions():
        lines.setdefault((r.dim, r.anchor), []).append(r)
    best = None
    best_t = None
    row = tuple(row)
    for dim in range(len(row)):
        anchor = row[:dim] + row[dim + 1:]
        regions = sorted(lines.get((dim, anchor), []), key=lambda r: r.lo)
        t = ref.coord_1d(ref.node_of_code(row[dim]))
        for region in regions:
            if region.lo <= t <= region.hi:
                if best is None or region.created_at < best.created_at:
                    best, best_t = region, t
    if best is None:
        return None
    return best, best_t


class TestRunEasgc:
    def test_constant_identical_to_asgc(self):
        fa = ModelFunction(lambda x: 2.0, 2, "c")
        fe = ModelFunction(lambda x: 2.0, 2, "c")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=8, init_level=0)
        ra = run_asgc(fa, cfg)
        re_ = run_easgc(fe, cfg)
        assert ra.model.codes.tolist() == re_.model.codes.tolist()
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
        assert int((~m.spline).sum()) == m.full_evaluations
        assert int(m.spline.sum()) == m.spline_interpolations

    def test_level_records_count_the_smooth_layer(self):
        func = lambda x: float(np.sin(2 * np.pi * x[0]) + x[1])
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=8, init_level=2,
                             min_line_points=5)
        res = run_easgc(ModelFunction(func, 2, "s"), cfg)
        recs = res.records
        hits = [r.spline_hits for r in recs]
        assert sum(hits) == res.model.spline_interpolations > 0
        assert [r.spline_interpolations for r in recs] == np.cumsum(hits).tolist()
        assert [r.region_lookups for r in recs] == [r.candidates for r in recs]
        assert sum(r.lines_scanned for r in recs) > 0
        created = sum(r.regions_created for r in recs)
        removed = sum(r.regions_superseded + r.regions_displaced for r in recs)
        assert created > 0 and created - removed == len(res.region_db)
        # the scan counts sit on the level whose candidates it prepared
        assert all(r.lines_scanned == 0 for r in recs[:cfg.init_level + 2])
        plain = run_asgc(ModelFunction(func, 2, "s"), cfg).records
        fields = ("region_lookups", "spline_hits", "lines_scanned", "regions_created",
                  "regions_superseded", "regions_displaced", "regions_rejected")
        assert all(getattr(r, k) == 0 for r in plain for k in fields)

    def test_flow_equivalence_min_points_infinite(self):
        func = lambda x: float(np.exp(x[0]) * np.cos(3 * x[1]))
        fe = ModelFunction(func, 2, "e")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-5, max_level=7, init_level=2,
                             min_line_points=math.inf)
        res = run_easgc(fe, cfg)
        fa = ModelFunction(func, 2, "e")
        ra = run_asgc(fa, AdaptiveConfig(dimension=2, epsilon=1e-5, max_level=7, init_level=2))
        assert res.model.spline_interpolations == 0
        assert res.model.codes.tolist() == ra.model.codes.tolist()
        for a, b in ((res.model.outputs, ra.model.outputs), (res.model.w, ra.model.w),
                     (res.model.v, ra.model.v)):
            assert a.tolist() == b.tolist()

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
            coords[:, 1 - r.dim] = coordinates(np.array(r.anchor))[0]
            true = np.array([func(c) for c in coords])

            def on_line(t):
                c = np.empty(2)
                c[r.dim] = t
                c[1 - r.dim] = coords[0, 1 - r.dim]
                return func(c)

            # the spline machinery itself meets the sharp quartic bound when
            # fed exact knot outputs on the same scan geometry
            exact_knots = fitted(r.knots, [on_line(t) for t in r.knots])
            assert np.abs(exact_knots(ts) - true).max() <= unit
            # stored regions inherit earlier substitutions: the integrated
            # bound scales with the number of spline-valued nodes
            dev = max(abs(spline_value(r, t) - tv) for t, tv in zip(ts, true))
            assert dev <= unit * max(1, n_spline)
            checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# the batched scan, fit and evaluation against their one-line references
# ---------------------------------------------------------------------------

def reference_scan(positions, outputs, slope_tol, min_points):
    """Reference: the one-line derivative scan the batched scan replaced."""
    n = len(positions)
    if n < min_points or n < 4:
        return []
    slopes = np.diff(outputs) / np.diff(positions)
    scale = max(1.0, float(np.max(np.abs(outputs))))
    breaks = np.flatnonzero(np.abs(np.diff(slopes)) > slope_tol * scale) + 1
    runs = []
    start = 0
    for b in breaks:
        if b - start + 1 >= 4:
            runs.append((start, b + 1))
        start = b
    if n - start >= 4:
        runs.append((start, n))
    return runs


def eighths(draw, n, top):
    """n outputs k / 8 with integers |k| <= top, each zero +0 or -0."""
    out = np.array(draw(st.lists(st.integers(-top, top), min_size=n,
                                 max_size=n)), dtype=float) / 8
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.where((out == 0) & np.array(signs, dtype=bool), -0.0, out)


@st.composite
def line_sets(draw):
    """Lines laid end to end, as (positions, outputs, bounds, slope_tol).

    Lines hold 1-20 knots at dyadic spacings.  Their outputs are eighths,
    with zeros of either sign: random, or linear with a kink next to a line
    end or anywhere.  A line may start where the line before it ended, so a
    slope across the boundary would divide by zero.  slope_tol is often a
    slope change of a line whose outputs lie in [-1, 1], so that change
    ties with the threshold exactly.
    """
    xs, ys, bounds = [], [], [0]
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(1, 20))
        gaps = np.array(draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=n,
                                      max_size=n)), dtype=float) / 64
        x = np.cumsum(gaps)
        if xs and draw(st.booleans()):
            x += xs[-1][-1] - x[0]
        if draw(st.booleans()):
            y = eighths(draw, n, draw(st.sampled_from([8, 24])))
        else:
            kink = draw(st.sampled_from([1, n - 2, draw(st.integers(0, n))]))
            steps = np.where(np.arange(n) < kink, draw(st.integers(-4, 4)),
                             draw(st.integers(-4, 4))) / 8
            y = np.cumsum(steps) - steps[0]
        xs.append(x)
        ys.append(y)
        bounds.append(bounds[-1] + n)
    ties = [0.0625, 0.25, 1.0, 4.0]
    for x, y in zip(xs, ys):
        if len(x) > 2 and np.abs(y).max() <= 1:
            ties.extend(np.abs(np.diff(np.diff(y) / np.diff(x))).tolist())
    slope_tol = draw(st.sampled_from(ties))
    empty = np.zeros(0)
    return (np.concatenate(xs) if xs else empty, np.concatenate(ys) if ys else empty,
            np.array(bounds), slope_tol)


class TestBatchedScan:
    @settings(max_examples=300, deadline=None)
    @given(lines=line_sets(), min_points=st.integers(1, 12))
    def test_segmented_scan_equals_per_line_reference(self, lines, min_points):
        x, y, bounds, slope_tol = lines
        with np.errstate(all="raise"):  # no slope across a line boundary
            start, stop = smooth._smooth_runs(x, y, bounds, slope_tol)
        line_of = np.searchsorted(bounds, start, "right") - 1
        got = list(zip(line_of.tolist(), (start - bounds[line_of]).tolist(),
                       (stop - bounds[line_of]).tolist()))
        want = []
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            runs = reference_scan(x[lo:hi], y[lo:hi], slope_tol, 1)
            want.extend((i, a, b) for a, b in runs)
            g = line(x[lo:hi], y[lo:hi])
            assert derivative_scan(g, slope_tol, min_points) == reference_scan(
                x[lo:hi], y[lo:hi], slope_tol, min_points)
        assert got == want

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), kind=st.sampled_from(["sine", "kink", "eighths"]),
           shift=st.floats(0.0, 1.0), epsilon=st.sampled_from([1e-3, 1e-4, 1e-5]),
           max_level=st.integers(6, 10), init_level=st.integers(0, 2),
           min_points=st.integers(5, 7), slope_tol=st.sampled_from([0.05, 0.25, 1.0, 4.0]))
    def test_scan_pass_equals_storing_every_run(self, d, kind, shift, epsilon, max_level,
                                                 init_level, min_points, slope_tol):
        def func(x):
            v = np.sin(2 * np.pi * (x[0] + shift)) * (1 + x[-1])
            if kind == "kink":
                v += 3 * abs(x[0] - shift)
            return float(np.round(8 * v) / 8 if kind == "eighths" else v)

        cfg = AdaptiveConfig(dimension=d, epsilon=epsilon, max_level=max_level,
                             init_level=init_level, min_line_points=min_points,
                             slope_tol=slope_tol)
        check_every_scan_pass(ModelFunction(func, d, kind), cfg)

    def test_scan_pass_equals_storing_every_run_when_a_cover_is_displaced(self):
        # in this build, a run of a pass displaces the region that covered a
        # later run of the same line when the pass began, so that later run
        # is created: a scan that dropped every run covered at the start of
        # its pass would lose it
        f, _ = get_benchmark("line_singularity")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=16, init_level=2,
                             min_line_points=5)
        assert check_every_scan_pass(f, cfg) > 0


def region_table(db):
    return [(r.dim, r.anchor, r.knots.tobytes(), r.outputs.tobytes(), r.created_at)
            for r in db.regions()]


def check_every_scan_pass(f, cfg) -> int:
    """Build with run_easgc, checking every scan pass against storing every run.

    The reference pass groups with group_lines, scans each line with the
    one-line reference and stores every run in order, on a copy of the
    database the pass starts from; counts and regions must be equal.
    Returns how many runs a region covered when their pass began and whose
    store still changed the database.
    """
    scan = smooth._scan_and_store
    uncovered = []

    def checked(db, model, slope_tol, min_points):
        ref = copy.deepcopy(db)
        want = dict.fromkeys(smooth._SCAN_COUNTS, 0)
        at_start = {}  # (dim, anchor) -> the line's regions when the pass begins
        for r in db.regions():
            at_start.setdefault((r.dim, r.anchor), []).append(r)
        for dim in range(model.dimension):
            for g in group_lines(model, dim, min_points):
                want["lines_scanned"] += 1
                before = at_start.get((dim, g.anchor), [])
                for lo, hi in reference_scan(g.positions, g.outputs, slope_tol, min_points):
                    outcome = ref.store(SmoothRegion(dim=dim, anchor=g.anchor,
                                                     knots=g.positions[lo:hi].copy(),
                                                     outputs=g.outputs[lo:hi].copy()))
                    covered = any(r.lo <= g.positions[lo] and g.positions[hi - 1] <= r.hi
                                  for r in before)
                    uncovered.append(covered and outcome.status != "covered")
                    want["regions_created"] += outcome.status == "created"
                    want["regions_rejected"] += outcome.status == "rejected"
                    want["regions_superseded"] += outcome.superseded
                    want["regions_displaced"] += outcome.displaced
        got = scan(db, model, slope_tol, min_points)
        assert got == want
        assert region_table(db) == region_table(ref)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smooth, "_scan_and_store", checked)
        run_easgc(f, cfg)
    return sum(uncovered)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@st.composite
def region_sets(draw):
    """Up to 12 regions of 4-9 knots, as a list; outputs in eighths and ±0.

    Some regions start at the end knot of the one before, as neighbouring
    runs of a line do, and some have only zero outputs of mixed signs, whose
    second derivatives are zeros of either sign.
    """
    regions = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(4, 9))
        gaps = np.array(draw(st.lists(st.sampled_from([1, 2, 4]), min_size=n - 1,
                                      max_size=n - 1)), dtype=float) / 128
        knots = np.cumsum(np.append(0.0, gaps))
        if regions and draw(st.booleans()):
            knots += regions[-1].knots[-1]
        outputs = eighths(draw, n, draw(st.sampled_from([0, 2, 16])))
        if regions and knots[0] == regions[-1].knots[-1]:
            outputs[0] = regions[-1].outputs[-1]
        regions.append(SmoothRegion(dim=0, anchor=(), knots=knots, outputs=outputs))
    return regions


class TestBatchedSpline:
    @settings(max_examples=200, deadline=None)
    @given(regions=region_sets(), data=st.data())
    def test_batched_fit_and_values_equal_one_region_bitwise(self, regions, data):
        # every knot of every region, then positions anywhere in a region
        rows = [r for r, region in enumerate(regions) for _ in region.knots]
        t = [k for region in regions for k in region.knots.tolist()]
        for r in data.draw(st.lists(st.integers(0, len(regions) - 1), max_size=20)):
            rows.append(r)
            t.append(data.draw(st.floats(regions[r].lo, regions[r].hi)))
        which = np.array(rows + [-1], dtype=np.intp)
        t = np.array(t + [0.0])
        values = _spline_values(regions, which, t)  # fits all unfitted regions at once
        assert np.isnan(values[-1])
        for r in regions:
            if r._second_derivs is None:
                continue
            x, y = r.knots, r.outputs
            k = min(5, len(x))
            assert same_bits(endpoint_slope(x[:k], y[:k]), ref.endpoint_slope(x[:k], y[:k]))
            assert same_bits(r._second_derivs, ref.CubicLineSpline(x, y).second_derivs)
            assert same_bits(r._second_derivs, _second_derivatives([x], [y])[0])
        fitted = [r for r in regions if r._second_derivs is not None]
        oracle = ref.second_derivatives([r.knots for r in fitted], [r.outputs for r in fitted])
        for r, m in zip(fitted, oracle):
            assert same_bits(r._second_derivs, m)
        for value, r, at in zip(values, rows, t):
            assert same_bits(value, ref.CubicLineSpline(regions[r].knots, regions[r].outputs)(at))
            assert same_bits(value, spline_value(regions[r], at))

    def test_position_outside_its_region_named(self):
        regions = [region([0.0, 0.25, 0.5, 0.75]), region([0.5, 0.625, 0.75, 1.0])]
        which = np.array([0, 1, 1])
        with pytest.raises(SparseGridError, match=r"position 0\.375 outside region \[0\.5, 1\.0\]"):
            _spline_values(regions, which, np.array([0.5, 0.75, 0.375]))
        with pytest.raises(SparseGridError, match="position nan outside"):
            spline_value(regions[0], np.nan)


class TestBatching:
    """Counts, not timings, that show the smooth layer works in batches.

    The build is the one of test_scan_builds_groups_for_scanned_lines_only
    run two levels deeper: up to level 7 no scan finds a run that a region
    already covers.
    """

    @staticmethod
    def build(on_level=None):
        f = ModelFunction(lambda x: float(np.sin(2 * np.pi * x[0]) * (1 + x[1] * x[2])), 3, "s")
        cfg = AdaptiveConfig(dimension=3, epsilon=1e-3, max_level=9, init_level=2,
                             min_line_points=7)
        return run_easgc(f, cfg, on_level=on_level)

    def test_at_most_one_spline_solve_per_level(self, monkeypatch):
        calls = []
        per_level = []

        solve = smooth._solve_tridiagonal

        def counting(*args):
            calls.append(len(args[1]))
            return solve(*args)

        monkeypatch.setattr(smooth, "_solve_tridiagonal", counting)
        res = self.build(on_level=lambda model, record: per_level.append(len(calls)))
        assert res.model.spline_interpolations > 0
        assert sum(r.spline_hits > 0 for r in res.records) > 1
        assert len(per_level) == len(res.records)
        solves = np.diff(per_level, prepend=0)
        assert solves.max() == 1 and solves.sum() == len(calls)

    def test_scan_builds_regions_only_for_runs_it_may_store(self, monkeypatch):
        built = []
        scanning = []
        scan = smooth._scan_and_store

        def counting(**fields):
            built.append(bool(scanning))
            return SmoothRegion(**fields)

        def flagged(*args):
            scanning.append(True)
            try:
                return scan(*args)
            finally:
                scanning.pop()

        monkeypatch.setattr(smooth, "SmoothRegion", counting)
        monkeypatch.setattr(smooth, "_scan_and_store", flagged)
        res = self.build()
        kept = sum(r.regions_created + r.regions_rejected for r in res.records)
        assert 0 < sum(built) <= kept

    def test_scan_hashes_node_codes_once(self, monkeypatch):
        operands = []

        class Weights(np.ndarray):
            def __rmatmul__(self, other):
                operands.append(other)
                return np.asarray(other) @ self.view(np.ndarray)

        weights = smooth._row_weights
        scan = smooth._scan_and_store
        hashes = []

        def counted(db, model, slope_tol, min_points):
            operands.clear()
            counts = scan(db, model, slope_tol, min_points)
            hashes.append(sum(o is model.codes for o in operands))
            return counts

        monkeypatch.setattr(smooth, "_row_weights", lambda d: weights(d).view(Weights))
        monkeypatch.setattr(smooth, "_scan_and_store", counted)
        self.build()
        assert hashes and set(hashes) == {1}
