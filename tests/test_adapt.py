"""Construction drivers: counts, refinement behavior, determinism."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from reference import NodeIndex1D, Point, point, root_point
from sgsurrogate import (
    AdaptiveConfig,
    DimensionMismatchError,
    EvaluationError,
    InvalidNodeError,
    ModelFunction,
    SurrogateModel,
    build,
    coordinates,
    refine_candidates,
    run_asgc,
    run_csc,
    run_easgc,
    split_codes,
)
from sgsurrogate.io import save_surrogate


def smolyak_count(d, level):
    """Oracle: direct enumeration of points with level sum <= `level`.

    Counts the tensor products of newly-added 1-D node sets over all
    per-dimension level combinations, independent of the son-closure the
    drivers use.
    """
    def new_nodes(lv):
        return 1 if lv == 0 else (2 if lv == 1 else 2 ** (lv - 1))

    total = 0
    for combo in itertools.product(range(level + 1), repeat=d):
        if sum(combo) <= level:
            total += math.prod(new_nodes(lv) for lv in combo)
    return total


class TestConfig:
    def test_defaults_valid(self):
        cfg = AdaptiveConfig(dimension=3)
        assert cfg.epsilon > 0 and cfg.init_level < cfg.max_level

    @pytest.mark.parametrize("kwargs", [
        dict(dimension=0),
        dict(dimension=1, epsilon=0.0),
        dict(dimension=1, epsilon=-1e-3),
        dict(dimension=1, init_level=5, max_level=5),
        dict(dimension=1, init_level=-1),
        dict(dimension=1, min_line_points=4),
        dict(dimension=1, slope_tol=0.0),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", math.nan),
        ("slope_tol", math.nan),
        ("min_line_points", math.nan),
        ("min_line_points", 7.5),
        ("min_line_points", 9.0),
        ("min_line_points", True),
        ("min_line_points", -math.inf),
        ("max_level", 3.5),
        ("init_level", 1.5),
        ("max_level", 6.0),
        ("dimension", 2.0),
        ("init_level", True),
    ])
    def test_nan_and_fractional_fields_rejected(self, field, value):
        # NaN failed no `<=` check, so epsilon=nan stopped a line_singularity
        # EASGC build at level 2 "by tolerance" and slope_tol=nan certified
        # every line; levels of 3.5 were taken as given, and a
        # min_line_points of 7.5 as 8
        kwargs = {"dimension": 2, "max_level": 6, "init_level": 1, field: value}
        with pytest.raises(ValueError, match=field):
            AdaptiveConfig(**kwargs)

    def test_infinite_min_line_points_allowed(self):
        cfg = AdaptiveConfig(dimension=2, min_line_points=math.inf)
        assert math.isinf(cfg.min_line_points)


class TestModelFunction:
    def test_counter(self):
        f = ModelFunction(lambda x: x[0], 2, "probe")
        f([0.5, 0.5])
        f([0.1, 0.2])
        assert f.evaluations == 2

    def test_failure_carries_coordinate(self):
        def bad(x):
            raise RuntimeError("boom")
        f = ModelFunction(bad, 2, "bad")
        with pytest.raises(EvaluationError) as err:
            f([0.25, 0.75])
        np.testing.assert_array_equal(err.value.coordinate, [0.25, 0.75])

    def test_many_without_batch_loops_over_func(self):
        calls = []

        def func(x):
            calls.append(x.tolist())
            return float(x[0] - x[1])

        f = ModelFunction(func, 2, "loop")
        got = f.many([[0.5, 0.25], [1.0, 0.0]])
        assert got.tolist() == [0.25, 1.0]
        assert calls == [[0.5, 0.25], [1.0, 0.0]] and f.evaluations == 2
        assert f.many(np.empty((0, 2))).shape == (0,) and f.evaluations == 2

    def test_many_non_finite_row_carries_its_coordinate(self):
        f = ModelFunction(lambda x: 1.0 / x[0], 1, "recip", batch=lambda xs: 1.0 / xs[:, 0])
        points = np.array([[0.5], [0.25], [0.0], [1.0]])
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError) as err:
            f.many(points)
        assert err.value.coordinate.shape == (1,) and err.value.coordinate[0] == 0.0
        assert f.evaluations == 4  # the whole batch ran

    def test_exception_in_batch_is_chained(self):
        def batch(xs):
            raise RuntimeError("solver diverged")

        f = ModelFunction(lambda x: 0.0, 2, "bad", batch=batch)
        points = np.array([[0.25, 0.75], [0.5, 0.5]])
        with pytest.raises(EvaluationError, match="solver diverged") as err:
            f.many(points)
        assert isinstance(err.value.__cause__, RuntimeError)
        np.testing.assert_array_equal(err.value.coordinate, points)
        assert f.evaluations == 2

    def test_batch_of_wrong_length_rejected(self):
        f = ModelFunction(lambda x: 0.0, 1, "short", batch=lambda xs: xs[:-1, 0])
        with pytest.raises(EvaluationError, match="shape"):
            f.many([[0.25], [0.5]])

    def test_many_checks_point_shape(self):
        f = ModelFunction(lambda x: 0.0, 2, "m", batch=lambda xs: xs[:, 0])
        with pytest.raises(DimensionMismatchError):
            f.many([0.5, 0.5])
        with pytest.raises(DimensionMismatchError):
            f.many([[0.5, 0.5, 0.5]])
        assert f.evaluations == 0


class TestRunCsc:
    def test_1d_level5_is_33_evaluations(self):
        f = ModelFunction(lambda x: x[0] ** 2, 1, "sq")
        res = run_csc(f, 1, 5)
        assert len(res.model) == 33
        assert f.evaluations == 33
        assert res.model.full_evaluations == 33

    def test_1d_level0_single_root(self):
        f = ModelFunction(lambda x: 1.0, 1, "c")
        res = run_csc(f, 1, 0)
        assert len(res.model) == 1
        assert res.model.codes.tolist() == ref.codes(root_point(1)).tolist() == [[1]]

    def test_2d_level2_is_13_nodes(self):
        f = ModelFunction(lambda x: x[0] + x[1], 2, "s")
        assert len(run_csc(f, 2, 2).model) == 13

    @pytest.mark.parametrize("d,level", [(1, 7), (2, 5), (3, 4)])
    def test_counts_match_enumeration_oracle(self, d, level):
        f = ModelFunction(lambda x: float(np.sum(x)), d, "s")
        res = run_csc(f, d, level)
        assert len(res.model) == smolyak_count(d, level)

    def test_levels_fully_populated(self):
        f = ModelFunction(lambda x: float(np.sum(x)), 2, "s")
        res = run_csc(f, 2, 4)
        level = split_codes(res.model.codes)[0].sum(axis=1) - 2
        for lv in range(5):
            got = int((level == lv).sum())
            assert got == smolyak_count(2, lv) - smolyak_count(2, lv - 1) if lv else 1

    def test_evaluation_failure_propagates(self):
        def bad(x):
            if x[0] == 0.25:
                raise RuntimeError("unstable")
            return float(x[0])
        f = ModelFunction(bad, 1, "bad")
        with pytest.raises(EvaluationError) as err:
            run_csc(f, 1, 4)
        assert err.value.coordinate[0] == 0.25

    @pytest.mark.parametrize("d, q_max, name", [
        (1, 2.5, "q_max"), (1, 3.0, "q_max"), (1, True, "q_max"), (1, -1, "q_max"),
        (1.0, 2, "d"), (True, 2, "d"), (0, 2, "d"),
    ])
    def test_levels_and_dimension_must_be_integers(self, d, q_max, name):
        # q_max=2.5 built 9 nodes, to level 3, and q_max=True built level 1
        f = ModelFunction(lambda x: float(x[0]), 1, "x")
        with pytest.raises(ValueError, match=name):
            run_csc(f, d, q_max)
        assert f.evaluations == 0


class TestRunAsgc:
    def test_constant_terminates_after_first_adaptive_check(self):
        f = ModelFunction(lambda x: 4.2, 1, "c")
        cfg = AdaptiveConfig(dimension=1, epsilon=1e-3, max_level=10, init_level=0)
        res = run_asgc(f, cfg)
        # root spawns its sons; all non-root surpluses are 0 < epsilon
        assert len(res.model) == 3
        assert res.stopped_by == "tolerance"
        level = split_codes(res.model.codes)[0].sum(axis=1) - 1
        assert (res.model.w[level > 0] == 0.0).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_output_fails_loudly(self, bad):
        # NaN >= eps is False, so a NaN surplus would otherwise end the
        # build as if the tolerance were met
        calls = []

        def func(x):
            calls.append(float(x[0]))
            return bad if x[0] > 0.6 else float(x[0]) ** 2

        f = ModelFunction(func, 1, "holey")
        with pytest.raises(EvaluationError) as err:
            run_asgc(f, AdaptiveConfig(dimension=1, epsilon=1e-3, max_level=8, init_level=2))
        assert err.value.coordinate.shape == (1,)
        assert err.value.coordinate[0] == calls[-1] and calls[-1] > 0.6
        assert f.evaluations == len(calls)
        # the completed levels survive: level 1 (x = 0, 1) failed at x = 1,
        # so only the root is stored, and its counters match its nodes
        partial = err.value.partial
        assert partial.stopped_by == "evaluation_error"
        assert [r.level for r in partial.records] == [0]
        assert len(partial.model) == 1 and partial.model.frozen
        assert partial.model.full_evaluations == 1
        assert partial.model.interpolate([0.3]) == 0.25

    def test_non_finite_batch_row_keeps_completed_levels(self):
        batches = []

        def batch(xs):
            batches.append(len(xs))
            return np.where(xs[:, 0] > 0.6, np.nan, xs[:, 0] ** 2)

        f = ModelFunction(lambda x: float(batch(np.array([x]))[0]), 1, "holey", batch=batch)
        with pytest.raises(EvaluationError) as err:
            run_asgc(f, AdaptiveConfig(dimension=1, epsilon=1e-3, max_level=8, init_level=2))
        assert err.value.coordinate.shape == (1,) and err.value.coordinate[0] == 1.0
        # one call per level: the root, then level 1 (x = 0, 1) as one batch
        assert batches == [1, 2] and f.evaluations == 3
        partial = err.value.partial
        assert partial.stopped_by == "evaluation_error"
        assert [r.level for r in partial.records] == [0]
        assert len(partial.model) == 1 and partial.model.frozen
        assert partial.model.full_evaluations == 1

    def test_overflowing_square_fails_loudly(self):
        # 2e154 * (1 + x) is finite but its square is not, from the root on:
        # v used to be stored as inf and nan, and moments() returned nan
        f = ModelFunction(lambda x: 2e154 * (1 + x[0]), 1, "huge")
        with np.errstate(over="ignore"), pytest.raises(EvaluationError) as err:
            run_csc(f, 1, 2)
        assert err.value.coordinate.tolist() == [0.5]
        partial = err.value.partial
        assert partial.stopped_by == "evaluation_error"
        assert partial.records == [] and len(partial.model) == 0 and partial.model.frozen

    @pytest.mark.parametrize("driver", [run_asgc, run_easgc])
    def test_overflowing_surplus_keeps_completed_levels(self, driver):
        f = ModelFunction(lambda x: -1.5e308 if x[0] > 0.9 else 1.0, 1, "huge")
        with np.errstate(over="ignore"), pytest.raises(EvaluationError) as err:
            driver(f, AdaptiveConfig(dimension=1, epsilon=1e-3, max_level=8, init_level=2))
        assert err.value.coordinate.tolist() == [1.0]
        partial = err.value.partial
        assert partial.stopped_by == "evaluation_error"
        assert [r.level for r in partial.records] == [0]
        assert len(partial.model) == 1 and partial.model.frozen
        assert np.isfinite(partial.model.v).all()

    @pytest.mark.parametrize("driver", [run_asgc, run_easgc])
    def test_batched_model_counts_match(self, driver):
        calls = []

        def batch(xs):
            calls.append(len(xs))
            return np.abs(xs[:, 0] - 0.3) + xs[:, 1] ** 2

        f = ModelFunction(lambda x: float(batch(np.array([x]))[0]), 2, "k", batch=batch)
        calls.clear()
        res = driver(f, AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=7, init_level=2,
                                       min_line_points=5))
        assert f.evaluations == res.model.full_evaluations == sum(calls)
        assert len(calls) <= len(res.records)  # at most one model call per level
        if driver is run_easgc:
            assert res.model.spline_interpolations > 0

    def test_kink_refines_fewer_than_conventional(self):
        f = ModelFunction(lambda x: abs(x[0] - 0.5), 1, "kink")
        cfg = AdaptiveConfig(dimension=1, epsilon=1e-3, max_level=9, init_level=2)
        res = run_asgc(f, cfg)
        # conventional to level 9 would take 2^9 + 1 = 513 nodes
        assert len(res.model) < 513
        # piecewise-linear away from the kink: once the kink is a node,
        # every remaining surplus vanishes
        assert res.stopped_by == "tolerance"

    def test_subset_of_csc_at_same_depth(self):
        func = lambda x: float(np.sin(3 * x[0]) * x[1] + x[0])
        fa = ModelFunction(func, 2, "s")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-6, max_level=5, init_level=2)
        adaptive = run_asgc(fa, cfg)
        fc = ModelFunction(func, 2, "s")
        conventional = run_csc(fc, 2, 5)
        keys_a = {tuple(row) for row in adaptive.model.codes.tolist()}
        keys_c = {tuple(row) for row in conventional.model.codes.tolist()}
        assert keys_a < keys_c

    def test_epsilon_zero_limit_reproduces_csc(self):
        # strictly convex and separable: every surplus is a product of
        # nonzero 1-D surpluses, so a tolerance below all of them prunes
        # nothing and the adaptive build recovers the full grid
        func = lambda x: float(np.exp(1.3 * x[0] + 0.7 * x[1]))
        fa = ModelFunction(func, 2, "e")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-13, max_level=5, init_level=2)
        adaptive = run_asgc(fa, cfg)
        fc = ModelFunction(func, 2, "e")
        conventional = run_csc(fc, 2, 5)
        assert adaptive.model.codes.tolist() == conventional.model.codes.tolist()

    def test_monotone_counts_and_counter_identity(self):
        f = ModelFunction(lambda x: float(np.exp(x[0] * x[1])), 2, "e")
        res = run_asgc(f, AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=7, init_level=2))
        fulls = [r.full_evaluations for r in res.records]
        assert fulls == sorted(fulls)
        assert f.evaluations == res.model.full_evaluations

    def test_level_cap_termination(self):
        f = ModelFunction(lambda x: abs(x[0] - 0.3), 1, "k")
        res = run_asgc(f, AdaptiveConfig(dimension=1, epsilon=1e-12, max_level=4, init_level=1))
        assert res.stopped_by == "level_cap"
        assert res.model.depth == 4

    def test_determinism_byte_identical(self, tmp_path):
        func = lambda x: float(np.sin(7 * x[0]) + np.cos(3 * x[1]))
        paths = []
        for tag in ("a", "b"):
            f = ModelFunction(func, 2, "s")
            res = run_asgc(f, AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=6, init_level=2))
            p = tmp_path / f"{tag}.surrogate"
            save_surrogate(p, res.model)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


codes = ref.codes


class TestRefineCandidates:
    def test_root_sons(self):
        got = refine_candidates(codes(root_point(1)))
        assert sorted(float(x) for x in coordinates(got)[:, 0]) == [0.0, 1.0]

    def test_adjacent_nodes_disjoint_sons(self):
        quarter = point((3, 0))
        three_quarter = point((3, 1))
        got = refine_candidates(codes(quarter, three_quarter))
        assert sorted(float(x) for x in coordinates(got)[:, 0]) == [0.125, 0.375, 0.625, 0.875]

    def test_shared_son_deduplicated(self):
        # (0, 0.5) and (0.5, 0) both spawn the corner (0, 0)
        a = point((2, 0), (1, 0))
        b = point((1, 0), (2, 0))
        got = refine_candidates(codes(a, b))
        keys = [tuple(row) for row in got.tolist()]
        assert len(keys) == len(set(keys))
        corner = [row for row in coordinates(got).tolist() if tuple(row) == (0.0, 0.0)]
        assert len(corner) == 1

    def test_existing_model_points_excluded(self):
        # refining a stored level other than the deepest meets stored sons,
        # which a caller filters with model.stored
        f = ModelFunction(lambda x: float(x[0]), 1, "l")
        res = run_csc(f, 1, 2)
        sons = refine_candidates(codes(root_point(1)))
        got = sons[~res.model.stored(sons)]
        assert got.shape == (0, 1)

    def test_refinement_capped_at_level_62(self):
        deepest = (1 << 61) + (1 << 60) - 1  # last node of level 62
        with pytest.raises(InvalidNodeError):
            refine_candidates(np.array([[deepest]]))
        assert refine_candidates(np.array([[1 << 60]])).tolist() == [[1 << 61], [(1 << 61) + 1]]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_make_sons_reference(self, data):
        """Order and content equal the object form: make_sons, dedupe by key,
        sort by dims; model.stored then drops the stored points."""
        dimension = data.draw(st.integers(1, 4))
        node = st.integers(1, 7).flatmap(lambda level: st.integers(
            0, (1 if level == 1 else 2 if level == 2 else 2 ** (level - 2)) - 1,
        ).map(lambda index: NodeIndex1D(level, index)))
        points = st.tuples(*[node] * dimension).map(Point)
        active = data.draw(st.lists(points, max_size=30))
        sons = [s for p in active for s in ref.make_sons(p)]
        stored = data.draw(st.lists(st.sampled_from(sons), unique=True)) if sons else []
        stored += data.draw(st.lists(points, max_size=5))
        model = SurrogateModel(dimension)
        by_key = {p.key: p for p in stored}
        for level in sorted({p.level for p in by_key.values()}):
            batch = [p for p in by_key.values() if p.level == level]
            zeros = [0.0] * len(batch)
            model.add_level(codes(*batch), zeros, zeros, zeros)
        seen, want = set(), []
        for p in active:
            for son in ref.make_sons(p):
                if son.key not in seen and son.key not in by_key:
                    seen.add(son.key)
                    want.append(son)
        want.sort(key=lambda p: p.dims)
        unfiltered = refine_candidates(codes(*active).reshape(-1, dimension))
        got = unfiltered[~model.stored(unfiltered)]
        assert got.tolist() == codes(*want).reshape(-1, dimension).tolist()
        assert not model.stored(got).any()
        assert len(unfiltered) == len({son.key for son in sons})


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(["CSC", "ASGC", "EASGC"]), dimension=st.integers(1, 3),
       init_level=st.integers(0, 2), extra=st.integers(1, 3),
       epsilon=st.floats(1e-6, 1.0), min_line_points=st.integers(5, 9),
       noise=st.sampled_from([0.0, 1e-3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_each_level_lies_on_the_next_total_level(method, dimension, init_level, extra,
                                                 epsilon, min_line_points, noise, seed):
    # refinement looks no son up in the model: every level's rows must lie
    # on the level's own total level, and every row stored before it below;
    # the record's counts are those of the rows inserted so far
    rng = np.random.default_rng(seed)
    frequency = rng.uniform(0.0, 6.0, dimension)

    def func(x):
        return float(np.sin(frequency @ x) + noise * rng.standard_normal())

    cfg = AdaptiveConfig(dimension=dimension, epsilon=epsilon,
                         max_level=init_level + extra, init_level=init_level,
                         min_line_points=min_line_points)
    seen = []

    def on_level(model, record):
        total = split_codes(model.codes)[0].sum(axis=1) - dimension
        new = len(model) - record.candidates
        assert record.level == len(seen)
        assert (total[new:] == record.level).all() and (total[:new] < record.level).all()
        assert record.full_evaluations == np.count_nonzero(~model.spline)
        assert record.spline_interpolations == np.count_nonzero(model.spline)
        seen.append(record.level)

    result = build(ModelFunction(func, dimension, "random"), cfg, method, on_level=on_level)
    assert seen == [r.level for r in result.records]


def test_level_records_carry_phase_timings():
    f = ModelFunction(lambda x: float(abs(x[0] - 0.3) + x[1]), 2, "k")
    cfg = AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=6, init_level=2,
                         min_line_points=5)
    for result in (run_csc(f, 2, 3), run_asgc(f, cfg), run_easgc(f, cfg)):
        for record in result.records:
            assert list(record.phase_s) == ["evaluate", "surplus", "insert", "refine",
                                            "after_level"]
            assert all(t >= 0.0 for t in record.phase_s.values())
        first = result.records[0].phase_s
        assert first["refine"] == first["after_level"] == 0.0
        assert sum(r.phase_s["refine"] for r in result.records) > 0.0
    # only the spline-backed driver scans lines, after each adaptive level
    assert sum(r.phase_s["after_level"] for r in result.records) > 0.0
