"""Metrics, Monte Carlo reference, studies, configuration, persistence, CLI."""

import dataclasses
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsurrogate import (
    METHODS,
    AdaptiveConfig,
    DimensionMismatchError,
    ModelFunction,
    PersistenceError,
    RegionDatabase,
    SmoothRegion,
    SparseGridError,
    SurrogateModel,
    build,
    draw_test_points,
    get_benchmark,
    load_surrogate,
    max_abs_error,
    mc_reference,
    rmse,
    run_csc,
    run_easgc,
    run_study,
    save_surrogate,
    split_codes,
)
import reference as ref
import sgsurrogate.io
from sgsurrogate import core, harness
from sgsurrogate.cli import _KEYS, _benchmark_and_config, _parse_config
from sgsurrogate.cli import main as cli_main
from sgsurrogate.harness import CSV_COLUMNS
from sgsurrogate.smooth import StoreOutcome


def csc_model(func, d, level):
    f = ModelFunction(lambda x: float(func(x)), d, "m")
    return run_csc(f, d, level).model


class TestMetrics:
    def test_points_are_seeded(self):
        a = draw_test_points(3, 100, 42)
        b = draw_test_points(3, 100, 42)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (100, 3)

    @pytest.mark.parametrize("args, name", [
        ((2, 2.5, 0), "count"), ((2, 0, 0), "count"), ((2, True, 0), "count"),
        ((0, 10, 1), "dimension"), ((2.0, 10, 1), "dimension"),
        ((2, 10, 1.5), "seed"), ((2, 10, -3), "seed"),
    ])
    def test_bad_counts_and_seeds_refused(self, args, name):
        # 2.5 points and a 1.5 seed raised numpy's TypeError, and dimension 0
        # gave a (10, 0) array
        with pytest.raises(ValueError, match=name):
            draw_test_points(*args)

    def test_constant_model_zero_error(self):
        m = csc_model(lambda x: 7.0, 2, 1)
        pts = draw_test_points(2, 1000, 0)
        f = lambda x: 7.0
        assert max_abs_error(m, f, pts) == 0.0
        assert rmse(m, f, pts) == 0.0

    def test_linear_exact(self):
        m = csc_model(lambda x: x[0], 1, 1)
        pts = draw_test_points(1, 1000, 0)
        assert max_abs_error(m, lambda x: float(x[0]), pts) <= 1e-15

    def test_quadratic_chord_error(self):
        # PL interpolation of x^2 over {0, 0.5, 1}: max error 1/16, and the
        # mean squared error is 2 * (0.5)^5 / 30 = 1/480 by direct quadrature
        m = csc_model(lambda x: x[0] ** 2, 1, 1)
        xs = np.linspace(0, 1, 100001)[:, None]
        f = lambda x: float(x[0] ** 2)
        assert max_abs_error(m, f, xs) == pytest.approx(1.0 / 16.0, rel=1e-6)
        dev = m.interpolate_many(xs) - xs[:, 0] ** 2
        oracle = math.sqrt(np.trapezoid(dev * dev, xs[:, 0]))
        assert rmse(m, f, xs) == pytest.approx(math.sqrt(1.0 / 480.0), rel=1e-4)
        # discrete mean vs integral differ by O(1/n) on this grid
        assert rmse(m, f, xs) == pytest.approx(oracle, rel=1e-4)

    def test_precomputed_values_accepted(self):
        m = csc_model(lambda x: x[0], 1, 2)
        pts = draw_test_points(1, 50, 3)
        true = pts[:, 0].copy()
        assert max_abs_error(m, true, pts) <= 1e-15

    @pytest.mark.parametrize("cut", [lambda t: t[:1], lambda t: t[:, None],
                                     lambda t: t[:-1], lambda t: t[0]],
                             ids=["(1,)", "(50, 1)", "(49,)", "()"])
    @pytest.mark.parametrize("metric", [max_abs_error, rmse])
    def test_truth_of_another_shape_refused(self, metric, cut):
        # the (1,) and (50, 1) truths were broadcast: max_abs_error read 0.3475
        # and 0.5316, rmse 0.2010 for (50, 1), where the right truth gives 0
        f, _ = get_benchmark("kink")
        m = run_csc(f, 1, 4).model
        pts = draw_test_points(1, 50, 3)
        truth = f.many(pts)
        assert metric(m, truth, pts) == 0.0
        shape = np.shape(cut(truth))
        with pytest.raises(DimensionMismatchError,
                           match=rf"shape {re.escape(str(shape))} for 50 test points, not \(50,\)"):
            metric(m, np.asarray(cut(truth)), pts)

    @pytest.mark.parametrize("metric", [max_abs_error, rmse])
    def test_empty_test_set_refused(self, metric):
        # max_abs_error raised NumPy's zero-size reduction error, and rmse
        # warned "Mean of empty slice" and gave NaN
        m = csc_model(lambda x: x[0], 1, 2)
        for f in (lambda x: float(x[0]), np.zeros(0)):
            with pytest.raises(ValueError, match=r"empty test set of shape \(0, 1\)"):
                metric(m, f, np.zeros((0, 1)))


class TestMonteCarlo:
    def test_constant(self):
        f = ModelFunction(lambda x: 3.0, 2, "c")
        est = mc_reference(f, 10_000, 5)
        assert est.mean == 3.0 and est.variance == 0.0

    def test_uniform_moments(self):
        f = ModelFunction(lambda x: float(x[0]), 1, "u")
        est = mc_reference(f, 1_000_000, 123)
        assert abs(est.mean - 0.5) < 4 * est.mean_stderr
        assert abs(est.variance - 1.0 / 12.0) < 4 * est.variance_stderr
        assert est.mean_stderr == pytest.approx(math.sqrt(est.variance / est.n_samples), rel=1e-12)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_rejected(self, n_samples):
        f, _ = get_benchmark("kink")
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            mc_reference(f, n_samples, 0)

    @pytest.mark.parametrize("n_samples, seed, name", [
        (2.5, 0, "n_samples"), (10.0, 0, "n_samples"), (10, 1.5, "seed"), (10, -1, "seed"),
    ])
    def test_fractional_samples_and_bad_seed_refused(self, n_samples, seed, name):
        # 2.5 samples and a 1.5 seed raised numpy's TypeError
        f, _ = get_benchmark("kink")
        with pytest.raises(ValueError, match=name):
            mc_reference(f, n_samples, seed)
        assert f.evaluations == 0

    def test_batched_samples_counted(self):
        f, _ = get_benchmark("kink")
        est = mc_reference(f, 500, 3)
        assert f.evaluations == 500
        x = np.random.default_rng(3).random((500, 1))
        assert est.mean == float(np.mean([f.func(xi) for xi in x]))

    def test_seed_reproducibility(self):
        f1 = ModelFunction(lambda x: float(np.sum(x)), 3, "s")
        f2 = ModelFunction(lambda x: float(np.sum(x)), 3, "s")
        assert mc_reference(f1, 20_000, 9) == mc_reference(f2, 20_000, 9)


class TestRunStudy:
    def test_csc_1d_row5_has_33_evals(self):
        cfg = AdaptiveConfig(dimension=1, max_level=5, init_level=2)
        rep = run_study("CSC", "kink", cfg, seed=0, n_test_points=1000)
        row5 = [r for r in rep.rows if r.level == 5][0]
        assert row5.full_evals == 33

    def test_easgc_on_constant_matches_asgc(self):
        cfg = AdaptiveConfig(dimension=5, epsilon=1e-3, max_level=4, init_level=0)
        a = run_study("ASGC", "genz_oscillatory", cfg, seed=1, n_test_points=500,
                      benchmark_params={"c": [1e-9] * 5, "w1": 0.3})
        e = run_study("EASGC", "genz_oscillatory", cfg, seed=1, n_test_points=500,
                      benchmark_params={"c": [1e-9] * 5, "w1": 0.3})
        assert len(a.rows) == len(e.rows)
        for ra, re_ in zip(a.rows, e.rows):
            assert re_.spline_evals == 0
            assert ra.full_evals == re_.full_evals
            assert ra.mean == re_.mean and ra.variance == re_.variance

    def test_deltas_match_definition(self):
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=5, init_level=2)
        rep = run_study("ASGC", "line_singularity", cfg, seed=2, n_test_points=500)
        assert math.isnan(rep.rows[0].mean_delta)
        for prev, row in zip(rep.rows, rep.rows[1:]):
            assert row.mean_delta == pytest.approx(abs(row.mean - prev.mean), rel=1e-12)
            assert row.variance_delta == pytest.approx(abs(row.variance - prev.variance), rel=1e-12)

    def test_csv_deterministic_modulo_wall_time(self, tmp_path):
        cfg = AdaptiveConfig(dimension=1, epsilon=1e-4, max_level=6, init_level=2)
        outputs = []
        for tag in ("a", "b"):
            rep = run_study("ASGC", "kink", cfg, seed=4, n_test_points=2000,
                            output_dir=tmp_path / tag)
            text = (tmp_path / tag / "kink_asgc.csv").read_text()
            rows = [line.split(",")[:-1] for line in text.splitlines()]
            outputs.append(rows)
        assert outputs[0] == outputs[1]
        header = outputs[0][0] + ["wall_time"]
        assert tuple(header) == CSV_COLUMNS

    def test_sidecar_metadata(self, tmp_path):
        cfg = AdaptiveConfig(dimension=1, epsilon=1e-3, max_level=4, init_level=1)
        run_study("EASGC", "kink", cfg, seed=7, n_test_points=500,
                  output_dir=tmp_path, persist_surrogate=True)
        meta = json.loads((tmp_path / "kink_easgc.json").read_text())
        assert meta["method"] == "EASGC"
        assert meta["seed"] == 7
        assert meta["config"]["epsilon"] == 1e-3
        assert (tmp_path / "kink_easgc.surrogate").exists()

    def test_sidecar_is_strict_json_with_infinite_config_values(self, tmp_path):
        # an infinite epsilon was written as the bare token Infinity
        cfg = AdaptiveConfig(dimension=1, epsilon=math.inf, max_level=4, init_level=1,
                             min_line_points=math.inf)
        run_study("ASGC", "kink", cfg, n_test_points=50, output_dir=tmp_path)

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        meta = json.loads((tmp_path / "kink_asgc.json").read_text(), parse_constant=refuse)
        assert meta["config"] == {"epsilon": "inf", "max_level": 4, "init_level": 1,
                                  "min_line_points": "inf", "slope_tol": 0.25}

    @pytest.mark.parametrize("n_test_points", [0, -3, 2.5, True])
    @pytest.mark.parametrize("name, dimension", [("kink", 1), ("truss2", 2)])
    def test_fewer_than_one_test_point_refused(self, tmp_path, monkeypatch, name,
                                               dimension, n_test_points):
        # 0 built level 0 of kink, then failed in numpy's max of no errors;
        # truss2 drew a 2 x 2 grid instead and recorded 4 points
        made = []
        real = harness.get_benchmark
        monkeypatch.setattr(harness, "get_benchmark",
                            lambda *args: made.append(real(*args)) or made[-1])
        with pytest.raises(ValueError, match="n_test_points"):
            run_study("ASGC", name, AdaptiveConfig(dimension=dimension, max_level=3),
                      n_test_points=n_test_points, output_dir=tmp_path / "out")
        assert all(f.evaluations == 0 for f, _ in made)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [1.5, -3, True, "1"])
    @pytest.mark.parametrize("name, dimension", [("kink", 1), ("truss2", 2)])
    def test_bad_seed_refused(self, tmp_path, name, dimension, seed):
        # 1.5 raised numpy's TypeError and -3 a ValueError naming no argument;
        # truss2 draws no random points, so took any seed
        with pytest.raises(ValueError, match="seed"):
            run_study("ASGC", name, AdaptiveConfig(dimension=dimension, max_level=3),
                      seed=seed, n_test_points=50, output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_sidecar_level_build_seconds(self, tmp_path):
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=6, init_level=2)
        rep = run_study("EASGC", "line_singularity", cfg, seed=1, n_test_points=200,
                        output_dir=tmp_path)
        meta = json.loads((tmp_path / "line_singularity_easgc.json").read_text())
        build_s = meta["level_build_s"]
        assert len(build_s) == len(rep.rows)
        assert all(math.isfinite(s) and s >= 0 for s in build_s)
        assert sum(build_s) <= rep.rows[-1].wall_time

    @pytest.mark.parametrize("method, name, cfg", [
        ("CSC", "line_singularity", AdaptiveConfig(dimension=2, max_level=7)),
        ("ASGC", "kink", AdaptiveConfig(dimension=1, epsilon=1e-4, max_level=8, init_level=2)),
        ("EASGC", "line_singularity",
         AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=12, init_level=2)),
        ("EASGC", "truss2", AdaptiveConfig(dimension=2, epsilon=10.0, max_level=5, init_level=2)),
    ])
    def test_error_columns_equal_fresh_evaluation_bitwise(self, monkeypatch, method,
                                                          name, cfg):
        # the study folds only each level's new groups onto running sums; every
        # row must equal the errors of interpolate_many on that level's model
        points = harness._study_test_points(name, cfg.dimension, 3000, 5)
        truth = get_benchmark(name)[0].many(points)
        fresh = []
        real_build = harness.build

        def spying_build(f, cfg, method, on_level):
            def spy(model, record):
                on_level(model, record)
                fresh.append(model.interpolate_many(points))
            return real_build(f, cfg, method, spy)

        monkeypatch.setattr(harness, "build", spying_build)
        rep = run_study(method, name, cfg, seed=5, n_test_points=3000)
        assert len(fresh) == len(rep.rows) > 3
        for row, values in zip(rep.rows, fresh):
            dev = values - truth
            assert row.max_abs_error == float(np.abs(dev).max())
            assert row.rmse == float(np.sqrt(np.mean(dev * dev)))

    def test_error_pass_memory_is_one_row_per_level(self, monkeypatch):
        # after the build, the error pass holds one row of sums per level,
        # a few per-point arrays (the sort order, a row's deviation and its
        # square) and the kernel's block-sized scratch: a second copy of the
        # (levels, points) sums, or every level's deviations at once, would
        # add a whole levels x points array
        points, real_build = 80_000, harness.build

        def traced_build(*args):
            result = real_build(*args)
            tracemalloc.start()  # the build's own memory stays out
            return result

        monkeypatch.setattr(harness, "build", traced_build)
        try:
            rep = run_study("EASGC", "line_singularity",
                            AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=12, init_level=2),
                            seed=3, n_test_points=points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        levels = len(rep.rows)
        assert levels == 13
        assert peak < (levels + 3) * points * 8 + 8 * core._BLOCK * 8, (peak, levels)

    @pytest.mark.parametrize("kwargs", [{"persist_surrogate": True}, {"stem": "run"}])
    def test_output_options_without_output_dir_refused(self, monkeypatch, kwargs):
        # each returned a report and wrote nothing
        made = []
        real = harness.get_benchmark
        monkeypatch.setattr(harness, "get_benchmark",
                            lambda *args: made.append(real(*args)) or made[-1])
        with pytest.raises(ValueError, match="output_dir"):
            run_study("ASGC", "kink", AdaptiveConfig(dimension=1, max_level=3), **kwargs)
        assert all(f.evaluations == 0 for f, _ in made)

    def test_default_config(self):
        rep = run_study("ASGC", "kink", n_test_points=50)
        assert rep.metadata["config"] == {"epsilon": 1e-3, "max_level": 10, "init_level": 2,
                                          "min_line_points": 9, "slope_tol": 0.25}

    def test_unknown_method(self):
        with pytest.raises(SparseGridError):
            run_study("NOPE", "kink")
        with pytest.raises(SparseGridError, match="unknown method"):
            build(get_benchmark("kink")[0], AdaptiveConfig(dimension=1), "FOO")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SparseGridError):
            run_study("CSC", "line_singularity", AdaptiveConfig(dimension=3))


class TestPersistence:
    def test_round_trip_with_regions(self, tmp_path):
        func = lambda x: float(np.sin(2 * np.pi * x[0]) + x[1])
        f = ModelFunction(func, 2, "s")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-4, max_level=7, init_level=2,
                             min_line_points=5)
        res = run_easgc(f, cfg)
        path = tmp_path / "model.surrogate"
        save_surrogate(path, res.model, res.region_db)
        loaded, db = load_surrogate(path)

        assert len(loaded) == len(res.model)
        assert loaded.full_evaluations == res.model.full_evaluations
        assert loaded.spline_interpolations == res.model.spline_interpolations
        for a, b in zip(res.model.nodes(), loaded.nodes()):
            assert a.point.codes == b.point.codes
            assert (a.output, a.w, a.v, a.spline) == (b.output, b.w, b.v, b.spline)
        assert db is not None and len(db) == len(res.region_db)

        pts = draw_test_points(2, 200, 11)
        np.testing.assert_array_equal(
            res.model.interpolate_many(pts), loaded.interpolate_many(pts)
        )

        # a second save must be byte-identical
        path2 = tmp_path / "model2.surrogate"
        save_surrogate(path2, loaded, db)
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        # a write dies halfway, the header's or the node lines' after it: the
        # old file must survive whole, and the half-written file beside it
        # must be gone
        path = tmp_path / "model.surrogate"
        save_surrogate(path, csc_model(lambda x: x[0], 1, 2))
        old = path.read_bytes()
        real_open = open

        class HalfWriter:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                writes.append(text)
                if len(writes) < failing_write:
                    return self.handle.write(text)
                self.handle.write(text[:len(text) // 2])
                raise OSError("disk full")

        for failing_write in (1, 2):
            writes = []
            monkeypatch.setattr(sgsurrogate.io, "open",
                                lambda *a, **k: HalfWriter(real_open(*a, **k)), raising=False)
            with pytest.raises(OSError, match="disk full"):
                save_surrogate(path, csc_model(lambda x: x[0] ** 2, 1, 4))
            monkeypatch.undo()
            assert len(writes) == failing_write
            assert path.read_bytes() == old
            assert [p.name for p in tmp_path.iterdir()] == ["model.surrogate"]
        # a save that succeeds replaces the file, byte for byte as written fresh
        model = csc_model(lambda x: x[0] ** 2, 1, 4)
        save_surrogate(path, model)
        save_surrogate(tmp_path / "fresh.surrogate", model)
        assert path.read_bytes() == (tmp_path / "fresh.surrogate").read_bytes() != old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.surrogate",
                                                              "model.surrogate"]

    @pytest.mark.parametrize("count", [lambda k: 1, lambda k: k - 1, lambda k: k,
                                       lambda k: k + 1, lambda k: 2 * k + 1],
                             ids=["1", "K-1", "K", "K+1", "2K+1"])
    def test_chunk_edges_match_the_one_shot_writer(self, tmp_path, count):
        # models of 1, K - 1, K, K + 1 and 2K + 1 node lines, K the lines per
        # chunk: each saves as the one-string writer writes it and loads back
        # to the same arrays, with outputs and surpluses of every exponent.
        # The nodes are a 1-D grid's without its root, so levels start on
        # rows 0, 2, 4, 8, ..., and a power-of-two K starts a level on a chunk
        k = sgsurrogate.io._CHUNK
        n = count(k)
        grid = csc_model(lambda x: x[0], 1, (2 * k).bit_length() + 1).codes[1:n + 1]
        assert len(grid) == n
        rng = np.random.default_rng(n)
        reals = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-320, 300, (3, n))
        reals[:, ::7] = -0.0
        reals[:, 3::11] = 5e-324
        spline = rng.random(n) < 0.3
        model = SurrogateModel(1)
        depth = split_codes(grid)[0].sum(axis=1)
        bounds = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), n]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            model.add_level(grid[lo:hi], *reals[:, lo:hi], spline[lo:hi])
        db = RegionDatabase(1)
        knots = np.array([0.0, 0.25, 0.5, 0.75])
        db.store(SmoothRegion(dim=0, anchor=(), knots=knots, outputs=knots ** 3))
        path = tmp_path / "model.surrogate"
        save_surrogate(path, model, db)
        assert path.read_text() == ref.surrogate_text(model, db)
        loaded, regions = load_surrogate(path)
        assert len(regions) == 1
        assert loaded.codes.tobytes() == model.codes.tobytes()
        for field in ("outputs", "w", "v", "spline"):
            assert getattr(loaded, field).tobytes() == getattr(model, field).tobytes()

    @pytest.mark.parametrize("anchor", [(), (1, 1)])
    def test_region_on_no_line_of_the_model_refused_before_writing(self, tmp_path, anchor):
        # a 2-D model's lines have 1-code anchors: a region with another
        # anchor length, held by a database of other nodes, would be saved
        # to a file that does not load
        path = tmp_path / "model.surrogate"
        model = csc_model(lambda x: x[0] + x[1], 2, 3)
        save_surrogate(path, model)
        old = path.read_bytes()
        d = len(anchor) + 1
        db = RegionDatabase(d)
        knots = np.array([0.0, 0.25, 0.5, 0.75])
        db.store(SmoothRegion(dim=0, anchor=anchor, knots=knots, outputs=knots))
        with pytest.raises(PersistenceError, match=f"database of {d}-dimensional nodes saved "
                                                   f"with a model of 2-dimensional ones"):
            save_surrogate(path, model, db)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.surrogate"]

    def test_no_regions_section_when_empty(self, tmp_path):
        m = csc_model(lambda x: x[0], 1, 2)
        path = tmp_path / "plain.surrogate"
        save_surrogate(path, m)
        assert "regions" not in path.read_text()
        loaded, db = load_surrogate(path)
        assert db is None and len(loaded) == 5

    def test_level_vectors_beyond_key_limit_rejected(self, tmp_path):
        # the (40, 30) level vector holds 2**66 nodes: more kernel keys than int64
        p = tmp_path / "fine.surrogate"
        p.write_text(
            "surrogate d=2 depth=68 full=3 spline=0\n"
            "1:0,1:0 1 1 1 F\n"
            "40:5,30:7 3 2 0 F\n"
            "40:5,30:1000 4 3 0 F\n"
        )
        with pytest.raises(PersistenceError, match="KEY_LIMIT"):
            load_surrogate(p)

    def test_header_dimension_does_not_size_the_node_grammar(self, tmp_path):
        # the node grammar held d copies of the pair pattern, so refusing
        # this two-line file took 12.9 s and 491 MB
        p = tmp_path / "wide.surrogate"
        p.write_text("surrogate d=100000 depth=0 full=1 spline=0\n1:0 0 0 0 F\n")
        tracemalloc.start()
        try:
            with pytest.raises(PersistenceError, match="bad node line 2: '1:0 0 0 0 F'"):
                load_surrogate(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        # a d too large for numpy's record dtype (2**31 + 5) or re's repeat
        # count (2**32) is refused by name
        for d in (2 ** 31 + 5, 2 ** 32):
            p.write_text(f"surrogate d={d} depth=0 full=1 spline=0\n1:0 0 0 0 F\n")
            with pytest.raises(PersistenceError, match=f"no node line of d = {d} can be read"):
                load_surrogate(p)

    def test_bad_files_rejected(self, tmp_path):
        p = tmp_path / "junk.surrogate"
        p.write_text("not a surrogate\n")
        with pytest.raises(PersistenceError):
            load_surrogate(p)
        p.write_text("surrogate d=1 depth=0 full=1 spline=0\nbroken line here x\n")
        with pytest.raises(PersistenceError):
            load_surrogate(p)

        # 9-node 1-D x^2 build, with and without a region section
        good = tmp_path / "good.surrogate"
        save_surrogate(good, csc_model(lambda x: x[0] ** 2, 1, 3))
        nodes = good.read_text().splitlines()
        assert len(nodes) == 10
        with_regions = tmp_path / "regions.surrogate"
        db = RegionDatabase(1)
        for knots in ([0.0, 0.125, 0.25, 0.375], [0.5, 0.625, 0.75, 1.0]):
            knots = np.array(knots)
            db.store(SmoothRegion(dim=0, anchor=(), knots=knots, outputs=knots ** 2))
        save_surrogate(with_regions, csc_model(lambda x: x[0] ** 2, 1, 3), db)
        regions = with_regions.read_text().splitlines()
        assert regions[10] == "regions 2" and len(regions) == 13
        for path in (good, with_regions):
            model, _ = load_surrogate(path)
            assert len(model) == 9

        # (file lines, index of the line the refusal names): line 0 is the
        # header, lines 1 .. 9 the nodes, and from line 10 the region section
        bad_inputs = [
            (["surrogate d=1 depth garbage full=9 spline=0"] + nodes[1:], 0),  # item without '='
            (["surrogate d=0 depth=3 full=9 spline=0"] + nodes[1:], 0),
            (["surrogate d=1 depth=3 full=9\x0cspline=0"] + nodes[1:], 0),  # two lines to splitlines
            (nodes[:5] + [""] + nodes[5:], 5),  # blank line after node 4
            (nodes[:5] + ["# a comment"] + nodes[5:], 5),
            (nodes[:5] + [nodes[5] + " extra"] + nodes[6:], 5),
            (nodes[:5] + [nodes[5].replace(" F", " Q")] + nodes[6:], 5),  # unknown provenance
            (nodes[:5] + ["9:999 0 0 0 F"] + nodes[6:], 5),  # index out of range for its level
            (nodes[:5] + ["99999999999999999999:0 0 0 0 F"] + nodes[6:], 5),  # past int64
            # a repeated node: its level's run of lines starts at line 4
            (nodes[:6] + [nodes[4]] + nodes[6:], 4),
            # the root after a level-1 line: the root's run is refused
            (nodes[:1] + [nodes[2], nodes[1]] + nodes[3:], 2),
            (nodes[:5] + [nodes[5].replace(" ", ",2:0 ", 1)] + nodes[6:], 5),  # two pairs in 1-D
            # spellings save never writes, which loaded and saved as other bytes
            (nodes[:2] + [nodes[2].replace("2:0 ", "\uff12:\uff10 ", 1)] + nodes[3:], 2),
            (nodes[:2] + [nodes[2].replace("2:0 ", "+2:+0 ", 1)] + nodes[3:], 2),
            (nodes[:2] + [nodes[2].replace("2:0 ", "02:0 ", 1)] + nodes[3:], 2),
            (nodes[:5] + [" ".join([nodes[5].split()[0], "0.43_75", *nodes[5].split()[2:]])]
             + nodes[6:], 5),
            (nodes[:5] + [" ".join([nodes[5].split()[0], "0.50", *nodes[5].split()[2:]])]
             + nodes[6:], 5),
            (nodes[:5] + [nodes[5].replace(" ", "  ", 1)] + nodes[6:], 5),
            (regions[:11] + [""] + regions[11:], 10),  # blank line between regions
            (regions[:12], 10),  # one region line missing
            (regions[:10] + ["regions two"] + regions[11:], 10),
            (regions[:11] + [regions[11].replace(",", ";", 1)] + regions[12:], 11),
            # header and region spellings save never writes, which loaded and
            # saved as other bytes
            (["surrogate d=+1 depth=3 full=9 spline=0"] + nodes[1:], 0),
            (["surrogate depth=3 d=1 full=9 spline=0"] + nodes[1:], 0),
            (["surrogate d=1 full=9 depth=3 spline=0"] + nodes[1:], 0),
            (regions[:11] + [regions[11].replace(" ", "  ", 1)] + regions[12:], 11),
            (regions[:11] + [regions[11].replace(",0.25,", ",0.250,", 1)] + regions[12:], 11),
            (regions[:11] + ["+" + regions[11]] + regions[12:], 11),
            (regions[:10] + ["regions 02"] + regions[11:], 10),
            (regions[:10] + ["regions 0"], 10),
            # header items other than d, depth, full and spline, each once
            (["surrogate d=1 depth=3 full=9 full=4 spline=0"] + nodes[1:], 0),
            (["surrogate d=1 depth=3 full=9 spline=0 foo=1"] + nodes[1:], 0),
            # a header that differs from what the node lines hold
            (["surrogate d=1 depth=7 full=9 spline=0"] + nodes[1:], 0),
            (["surrogate d=1 depth=3 full=8 spline=0"] + nodes[1:], 0),
            (["surrogate d=1 depth=3 full=9 spline=1"] + nodes[1:], 0),
        ]
        assert nodes[0] == "surrogate d=1 depth=3 full=9 spline=0"
        assert regions[11].startswith("0 - 0,0.125,0.25,0.375 ")
        assert nodes[2].startswith("2:0 ") and nodes[1].startswith("1:0 ")
        # the file cut after each of node lines 1 .. 8
        bad_inputs += [(nodes[:1 + k], 0) for k in range(1, 9)]
        # a non-finite output, w or v
        for field in range(1, 4):
            for value in ("nan", "inf", "-inf", "1e999"):
                fields = nodes[5].split()
                fields[field] = value
                bad_inputs.append((nodes[:5] + [" ".join(fields)] + nodes[6:], 5))
        for lines, k in bad_inputs:
            p.write_text("\n".join(lines) + "\n")
            with pytest.raises(PersistenceError) as info:
                load_surrogate(p)
            if k == 0:
                named = repr(lines[0])
            elif k < 10:
                named = f"bad node line {k + 1}: {lines[k]!r}"
            else:
                named = f"bad region line: {lines[k]!r}"
            assert named in str(info.value), lines

    @pytest.mark.parametrize("edit, reason", [
        (lambda f: ["7", "1:1,3:2,5:9"] + f[2:], "dim 7 outside"),
        (lambda f: ["2"] + f[1:], "dim 2 outside"),
        (lambda f: ["-1"] + f[1:], "dim -1 outside"),
        (lambda f: f[:1] + ["-"] + f[2:], "anchor of 0 codes, not d - 1"),
        (lambda f: f[:1] + ["1:1,3:2"] + f[2:], "anchor of 2 codes, not d - 1"),
        # 0.5 and 1 not in lowest terms, 7/4 outside the cube, level 63, and
        # a numerator past int64: pairs of no node, so no lookup could match
        (lambda f: f[:1] + ["2:2"] + f[2:], "names no node"),
        (lambda f: f[:1] + ["2:1"] + f[2:], "names no node"),
        (lambda f: f[:1] + ["7:2"] + f[2:], "names no node"),
        (lambda f: f[:1] + ["1:62"] + f[2:], "names no node"),
        (lambda f: f[:1] + ["1:1:1"] + f[2:], "too many values"),
        (lambda f: f[:1] + [f"{1 << 64}:1"] + f[2:], "too large"),
        (lambda f: f[:2] + [f[2] + ",1"] + f[3:], "5 knots but 4 outputs"),
        (lambda f: f[:3] + [f[3].rsplit(",", 1)[0]] + f[4:], "4 knots but 3 outputs"),
        (lambda f: f[:3] + ["nan," + f[3].split(",", 1)[1]] + f[4:], "non-finite"),
        (lambda f: f[:2] + [f[2].rsplit(",", 1)[0] + ",inf"] + f[3:], "non-finite"),
        # a midpoint and half-length other than the 0.375 0.375 save writes:
        # both fields were skipped, so these loaded and saved as other bytes
        (lambda f: f[:4] + ["hello", "1_0"], "not the line save writes"),
        (lambda f: f[:5] + ["1_0"], "not the line save writes"),
        (lambda f: f[:4] + ["0.5", "0.375"], "not the line save writes"),
        (lambda f: f[:4] + ["0.375", "0.3750"], "not the line save writes"),
    ])
    def test_region_lines_no_node_can_match_rejected(self, tmp_path, edit, reason):
        # a 2-D model with one region along dim 0 at x1 = 0.5
        db = RegionDatabase(2)
        knots = np.array([0.0, 0.25, 0.5, 0.75])
        db.store(SmoothRegion(dim=0, anchor=(1,), knots=knots, outputs=knots + 0.5))
        good = tmp_path / "good.surrogate"
        save_surrogate(good, csc_model(lambda x: x[0] + x[1], 2, 3), db)
        lines = good.read_text().splitlines()
        assert lines[-2] == "regions 1"
        _, loaded = load_surrogate(good)
        assert len(loaded) == 1
        bad_line = " ".join(edit(lines[-1].split()))
        p = tmp_path / "bad.surrogate"
        p.write_text("\n".join(lines[:-1] + [bad_line]) + "\n")
        with pytest.raises(PersistenceError, match=reason) as info:
            load_surrogate(p)
        assert repr(bad_line) in str(info.value)

    @pytest.mark.parametrize("knots, outcome", [
        ([0.0, 0.25, 0.5, 0.75], StoreOutcome("covered")),  # the same line twice
        ([0.25, 0.375, 0.5, 0.75], StoreOutcome("covered")),
        ([0.5, 0.625, 0.75, 0.875], StoreOutcome("rejected")),  # no longer than the first
        ([0.125, 0.25, 0.5, 0.75, 1.0], StoreOutcome("created", displaced=1)),
        ([0.0, 0.25, 0.5, 0.75, 1.0], StoreOutcome("created", superseded=1)),
        ([0.75, 0.8125, 0.875, 1.0], StoreOutcome("created")),  # touching is no overlap
    ], ids=["duplicate", "covered", "partial", "displacing", "superseding", "touching"])
    def test_overlapping_region_lines_refused(self, tmp_path, knots, outcome):
        # the second line was dropped, or removed the first, without an error
        def region(k):
            return SmoothRegion(dim=0, anchor=(1,), knots=np.array(k), outputs=np.array(k) + 0.5)

        model = csc_model(lambda x: x[0] + x[1], 2, 3)
        lines = []
        for k in ([0.0, 0.25, 0.5, 0.75], knots):  # each saved alone, so both are written
            db = RegionDatabase(2)
            db.store(region(k))
            save_surrogate(tmp_path / "one.surrogate", model, db)
            lines.append((tmp_path / "one.surrogate").read_text().splitlines()[-1])
        db = RegionDatabase(2)
        db.store(region([0.0, 0.25, 0.5, 0.75]))
        assert db.store(region(knots)) == outcome
        p = tmp_path / "two.surrogate"
        save_surrogate(p, model)
        p.write_text(p.read_text() + "regions 2\n" + "\n".join(lines) + "\n")
        if outcome == StoreOutcome("created"):
            assert len(load_surrogate(p)[1]) == 2
            return
        with pytest.raises(PersistenceError, match="overlaps an earlier region line") as info:
            load_surrogate(p)
        assert repr(lines[1]) in str(info.value)

    @settings(max_examples=30, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        dimension=st.integers(1, 2),
        amplitude=st.floats(-5.0, 5.0, allow_nan=False),
        frequency=st.floats(0.0, 12.0, allow_nan=False),
        kink=st.floats(0.0, 1.0),
        max_level=st.integers(1, 7),
        epsilon=st.sampled_from([1e-1, 1e-2, 1e-4]),
        query_seed=st.integers(0, 2 ** 16),
        cut=st.floats(0.0, 1.0, exclude_max=True),
        at=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_random_builds_round_trip(self, method, dimension, amplitude, frequency,
                                      kink, max_level, epsilon, query_seed, cut, at):
        def func(x):
            return amplitude * math.sin(frequency * x[0]) + abs(x[-1] - kink)

        cfg = AdaptiveConfig(dimension=dimension, epsilon=epsilon, max_level=max_level,
                             init_level=min(2, max_level - 1), min_line_points=5)
        res = build(ModelFunction(func, dimension, "random"), cfg, method)
        queries = draw_test_points(dimension, 50, query_seed)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.surrogate", Path(tmp) / "second.surrogate"
            save_surrogate(first, res.model, res.region_db)
            loaded, db = load_surrogate(first)
            save_surrogate(second, loaded, db)
            assert first.read_bytes() == second.read_bytes()
            # one field of the header, and of a region line if there are any,
            # respelled as save never writes it: a leading +, a doubled space,
            # and a trailing zero on a region's midpoint
            lines = first.read_text().splitlines()
            for k in [0] + ([len(lines) - 1 - int(at * len(db))] if db else []):
                fields = lines[k].split(" ")
                j = 1 + int(at * (len(fields) - 1))
                key, eq, value = fields[j].rpartition("=")
                respelled = [" ".join(fields[:j] + [f"{key}{eq}+{value}"] + fields[j + 1:]),
                             lines[k].replace(" ", "  ", 1)]
                if k:
                    mid = fields[4] + ("0" if "." in fields[4] else ".0")
                    respelled.append(" ".join(fields[:4] + [mid] + fields[5:]))
                for line in respelled:
                    second.write_text("\n".join(lines[:k] + [line] + lines[k + 1:]) + "\n")
                    with pytest.raises(PersistenceError, match=re.escape(repr(line))):
                        load_surrogate(second)
            # cut before a node line: the header no longer matches
            first.write_text("\n".join(lines[:1 + int(cut * len(loaded))]) + "\n")
            with pytest.raises(PersistenceError, match="header says"):
                load_surrogate(first)
        assert len(db or ()) == len(res.region_db or ())
        np.testing.assert_array_equal(
            loaded.interpolate_many(queries), res.model.interpolate_many(queries)
        )


class TestConfigFiles:
    def test_parse_types_and_dotted_keys(self, tmp_path):
        p = tmp_path / "study.cfg"
        p.write_text(
            "# comment\n"
            "epsilon = 1e-3\n"
            "i_max = 12\n"
            "i1 = 2\n"
            "m_min = inf\n"
            "phi = 0.25\n"
            "seed = 42\n"
            "benchmark = poisson\n"
            "poisson.n_random = 10\n"
            "poisson.n_cells = 128\n"
            "use_fancy = true\n"
        )
        got = _parse_config(p)
        assert got["epsilon"] == 1e-3 and isinstance(got["epsilon"], float)
        assert got["i_max"] == 12 and isinstance(got["i_max"], int)
        assert math.isinf(got["m_min"])
        assert got["seed"] == 42
        assert got["poisson"] == {"n_random": 10, "n_cells": 128}
        assert got["use_fancy"] == "true"  # no key takes a bool: it stays text

    def test_parse_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("this line has no equals sign\n")
        with pytest.raises(SparseGridError):
            _parse_config(p)

    @pytest.mark.parametrize("text, key, first, again", [
        ("i_max = 4\nepsilon = 1e-1\n\nepsilon = 1e-6\n", "epsilon", 2, 4),
        ("kink.kink_pos = 0.3\ni_max = 4\nkink.kink_pos = 0.6\n", "kink.kink_pos", 1, 3),
        ("seed = 1\n# seed = 2\nseed = 1\n", "seed", 1, 3),  # even to the same value
    ], ids=["flat", "dotted", "same value"])
    def test_parse_rejects_repeated_key(self, tmp_path, text, key, first, again):
        # the last value was kept: epsilon 1e-6, a kink at 0.6
        p = tmp_path / "twice.cfg"
        p.write_text(text)
        with pytest.raises(SparseGridError, match=rf":{again}: key '{key}' repeated, "
                                                  rf"first set on line {first}"):
            _parse_config(p)

    @pytest.mark.parametrize("text", ["kink = 1\nkink.kink_pos = 0.3\n",
                                      "kink.kink_pos = 0.3\nkink = 1\n"],
                             ids=["flat first", "dotted first"])
    def test_parse_rejects_key_both_flat_and_dotted(self, tmp_path, text):
        # a flat key after the group replaced the group's parameters
        p = tmp_path / "both.cfg"
        p.write_text(text)
        with pytest.raises(SparseGridError, match="'kink' used both flat and dotted"):
            _parse_config(p)

    def test_config_from_mapping(self):
        settings = {"epsilon": 1e-2, "i_max": 9, "i1": 3, "m_min": 11, "phi": 0.5,
                    "poisson": {"n_random": 4}}
        f, echo, cfg = _benchmark_and_config(settings, "poisson")
        assert f.dimension == echo["n_random"] == 4
        assert cfg.dimension == 4
        assert cfg.epsilon == 1e-2
        assert cfg.max_level == 9
        assert cfg.init_level == 3
        assert cfg.min_line_points == 11
        assert cfg.slope_tol == 0.5

    def test_settings_keys_name_every_config_field_once(self):
        # so a config field added later cannot be left out of the settings file
        named = sorted(field for field in _KEYS.values() if field is not None)
        assert named == sorted(field.name for field in dataclasses.fields(AdaptiveConfig)
                               if field.name != "dimension")


class TestCli:
    def write_cfg(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "epsilon = 1e-3\ni_max = 6\ni1 = 2\nseed = 3\nn_test_points = 500\n"
        )
        return p

    def test_build_moments_query(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["build", "--method", "asgc", "--benchmark", "kink",
                         "--config", str(cfg), "--output-dir", str(out)]) == 0
        meta = json.loads(capsys.readouterr().out)
        surrogate = out / meta["surrogate"]
        assert surrogate.exists()

        assert cli_main(["moments", str(surrogate)]) == 0
        est = json.loads(capsys.readouterr().out)
        assert est["mean"] == pytest.approx(0.25390625)

        assert cli_main(["query", str(surrogate), "--point", "0.3"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["value"] == pytest.approx(abs(0.3 - 0.4375), abs=1e-12)

    def test_study_writes_reports(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "study"
        assert cli_main(["study", "--benchmark", "kink", "--config", str(cfg),
                         "--output-dir", str(out), "--methods", "csc,asgc"]) == 0
        capsys.readouterr()
        assert (out / "kink_csc.csv").exists()
        assert (out / "kink_asgc.csv").exists()
        assert (out / "kink_asgc.json").exists()

    def test_failure_is_machine_readable(self, tmp_path, capsys):
        code = cli_main(["moments", str(tmp_path / "missing.surrogate")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "detail" in err

    def test_query_dimension_mismatch(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        cli_main(["build", "--method", "csc", "--benchmark", "kink",
                  "--config", str(cfg), "--output-dir", str(out)])
        capsys.readouterr()
        code = cli_main(["query", str(out / "kink_csc.surrogate"),
                         "--point", "0.3,0.4"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SparseGridError"

    @pytest.mark.parametrize("point", ["1.5", "-3", "nan"])
    def test_query_outside_cube(self, tmp_path, capsys, point):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        cli_main(["build", "--method", "csc", "--benchmark", "kink",
                  "--config", str(cfg), "--output-dir", str(out)])
        capsys.readouterr()
        code = cli_main(["query", str(out / "kink_csc.surrogate"), "--point", point])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "OutOfDomainError"

    @pytest.mark.parametrize("method", ["csc", "asgc", "easgc"])
    def test_build_matches_study_surrogate(self, tmp_path, capsys, method):
        # the CLI and the study harness share one method dispatch
        cfg = self.write_cfg(tmp_path)
        assert cli_main(["build", "--method", method, "--benchmark", "kink",
                         "--config", str(cfg), "--output-dir", str(tmp_path / "cli")]) == 0
        capsys.readouterr()
        _, _, config = _benchmark_and_config(_parse_config(cfg), "kink")
        run_study(method.upper(), "kink", config,
                  seed=3, n_test_points=500, output_dir=tmp_path / "study",
                  persist_surrogate=True)
        built = (tmp_path / "cli" / f"kink_{method}.surrogate").read_bytes()
        studied = (tmp_path / "study" / f"kink_{method}.surrogate").read_bytes()
        assert built == studied

    @pytest.mark.parametrize("setting", ["epsilon = nan", "phi = nan", "m_min = nan",
                                         "i_max = 6.5", "i1 = 1.5", "m_min = 7.5",
                                         # int() truncated these, or build never read them
                                         "seed = 1.7", "seed = true", "seed = -1",
                                         "dimension = 2.5", "dimension = 2.0",
                                         # a TypeError traceback, or built with slope_tol True
                                         "epsilon = abc", "epsilon = 1,2", "phi = true"])
    def test_nan_or_fractional_config_refused(self, tmp_path, capsys, setting):
        cfg = tmp_path / "bad.cfg"
        base = {"i_max": 6, "i1": 2}
        base.pop(setting.split()[0], None)  # a key set twice is refused first
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + f"{setting}\n")
        out = tmp_path / "out"
        code = cli_main(["build", "--method", "easgc", "--benchmark", "line_singularity",
                         "--config", str(cfg), "--output-dir", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["poisson.n_random = 3.7", "poisson.n_cells = 20.9",
                                         "poisson.correlation_length = nan",
                                         "genz_oscillatory.c = 1", "kink.kink_pos = 0.3,0.4"])
    def test_fractional_or_nan_benchmark_parameter_refused(self, tmp_path, capsys, setting):
        # the first two built a 3-input model and a 20-cell grid; the NaN
        # failed only at the first model evaluation, as a linear solve; the
        # last two ended in a TypeError traceback
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"i_max = 2\n{setting}\n")
        out = tmp_path / "out"
        code = cli_main(["build", "--method", "csc", "--benchmark", setting.split(".")[0],
                         "--config", str(cfg), "--output-dir", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert setting.split()[0].split(".")[1] in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "study"])
    @pytest.mark.parametrize("setting", [
        "epsilom = 1e-1",  # a misspelt key
        "kink.kink_pos = 0.3",  # a parameter of another benchmark
        "line_singularity = 3",  # the benchmark's name as a flat key
        "method = asgc",
        "benchmark = kink",
    ])
    def test_unknown_settings_key_refused(self, tmp_path, capsys, command, setting):
        # each was ignored: the build ran with the default epsilon, 65 nodes
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"i_max = 4\nseed = 1\nn_test_points = 50\n{setting}\n")
        out = tmp_path / "out"
        args = ["--method", "asgc"] if command == "build" else ["--methods", "asgc"]
        code = cli_main([command, *args, "--benchmark", "line_singularity",
                         "--config", str(cfg), "--output-dir", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "SparseGridError"
        assert repr(setting.split()[0].split(".")[0]) in err["detail"]
        assert not out.exists()

    def test_dimension_of_another_benchmark_refused(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("i_max = 4\ndimension = 3\n")
        code = cli_main(["build", "--method", "asgc", "--benchmark", "line_singularity",
                         "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SparseGridError" and "dimension 3" in err["detail"]
        assert not (tmp_path / "out").exists()

    def test_benchmark_parameters_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("i_max = 4\nkink.kink_pos = 0.3\ndimension = 1\n")
        assert cli_main(["build", "--method", "asgc", "--benchmark", "kink",
                         "--config", str(cfg), "--output-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["benchmark_params"]["kink_pos"] == 0.3

    @pytest.mark.parametrize("setting", ["n_test_points = 0", "n_test_points = 2.5"])
    def test_study_of_fewer_than_one_test_point_refused(self, tmp_path, capsys, setting):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"i_max = 4\n{setting}\n")
        code = cli_main(["study", "--benchmark", "kink", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out"), "--methods", "asgc"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["2.5", "abc", "0", "true"])
    def test_build_refuses_the_test_point_counts_study_refuses(self, tmp_path, capsys, value):
        # build never read n_test_points, so it built kink CSC and exited 0
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"i_max = 3\nn_test_points = {value}\n")
        errors = []
        for command, args in (("build", ["--method", "csc"]), ("study", ["--methods", "csc"])):
            out = tmp_path / command
            code = cli_main([command, *args, "--benchmark", "kink", "--config", str(cfg),
                             "--output-dir", str(out)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "" and not out.exists(), command
            errors.append(json.loads(captured.err))
        assert errors[0] == errors[1]
        assert errors[0]["error"] == "ValueError" and "n_test_points" in errors[0]["detail"]

    @pytest.mark.parametrize("setting", ["seed = 1.7", "seed = -2", "dimension = 1.0"])
    def test_study_of_fractional_seed_or_dimension_refused(self, tmp_path, capsys, setting):
        # int() ran the study with seed 1 and recorded "seed": 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"i_max = 4\nn_test_points = 50\n{setting}\n")
        code = cli_main(["study", "--benchmark", "kink", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out"), "--methods", "asgc"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and setting.split()[0] in err["detail"]
        assert not (tmp_path / "out").exists()

    def test_unknown_study_method(self, tmp_path, capsys):
        code = cli_main(["study", "--benchmark", "kink", "--output-dir", str(tmp_path),
                         "--methods", "csc,nope"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SparseGridError"
        assert not (tmp_path / "kink_csc.csv").exists()
