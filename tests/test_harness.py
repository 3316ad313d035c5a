"""Metrics, Monte Carlo reference, studies, configuration, persistence, CLI."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsurrogate import (
    METHODS,
    AdaptiveConfig,
    ModelFunction,
    PersistenceError,
    RegionDatabase,
    SmoothRegion,
    SparseGridError,
    build,
    draw_test_points,
    get_benchmark,
    load_surrogate,
    max_abs_error,
    mc_reference,
    parse_config,
    config_from_mapping,
    rmse,
    run_csc,
    run_easgc,
    run_study,
    save_surrogate,
)
import sgsurrogate.io
from sgsurrogate import harness
from sgsurrogate.cli import main as cli_main
from sgsurrogate.harness import CSV_COLUMNS


def csc_model(func, d, level):
    f = ModelFunction(lambda x: float(func(x)), d, "m")
    return run_csc(f, d, level).model


class TestMetrics:
    def test_points_are_seeded(self):
        a = draw_test_points(3, 100, 42)
        b = draw_test_points(3, 100, 42)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (100, 3)

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
        with pytest.raises(ValueError, match="n_samples >= 2"):
            mc_reference(f, n_samples, 0)

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

    def test_unknown_method(self):
        with pytest.raises(SparseGridError):
            run_study("NOPE", "kink")

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
        # the write dies halfway: the old file must survive whole, and the
        # half-written file beside it must be gone
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
                self.handle.write(text[:len(text) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(sgsurrogate.io, "open",
                            lambda *a, **k: HalfWriter(real_open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_surrogate(path, csc_model(lambda x: x[0] ** 2, 1, 4))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.surrogate"]
        monkeypatch.undo()
        # a save that succeeds replaces the file, byte for byte as written fresh
        model = csc_model(lambda x: x[0] ** 2, 1, 4)
        save_surrogate(path, model)
        save_surrogate(tmp_path / "fresh.surrogate", model)
        assert path.read_bytes() == (tmp_path / "fresh.surrogate").read_bytes() != old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.surrogate",
                                                              "model.surrogate"]

    @pytest.mark.parametrize("anchor", [(), (1, 1)])
    def test_region_on_no_line_of_the_model_refused_before_writing(self, tmp_path, anchor):
        # a 2-D model's lines have 1-code anchors: a region with another
        # anchor length would be saved to a file that does not load
        path = tmp_path / "model.surrogate"
        model = csc_model(lambda x: x[0] + x[1], 2, 3)
        save_surrogate(path, model)
        old = path.read_bytes()
        db = RegionDatabase()
        knots = np.array([0.0, 0.25, 0.5, 0.75])
        db.store(SmoothRegion(dim=0, anchor=anchor, knots=knots, outputs=knots))
        with pytest.raises(PersistenceError, match=f"anchor of {len(anchor)} codes, not d - 1 = 1"):
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
        db = RegionDatabase()
        for knots in ([0.0, 0.125, 0.25, 0.375], [0.5, 0.625, 0.75, 1.0]):
            knots = np.array(knots)
            db.store(SmoothRegion(dim=0, anchor=(), knots=knots, outputs=knots ** 2))
        save_surrogate(with_regions, csc_model(lambda x: x[0] ** 2, 1, 3), db)
        regions = with_regions.read_text().splitlines()
        assert regions[10] == "regions 2" and len(regions) == 13
        for path in (good, with_regions):
            model, _ = load_surrogate(path)
            assert len(model) == 9

        bad_inputs = [
            ["surrogate d=1 depth garbage full=9 spline=0"] + nodes[1:],  # header item without '='
            ["surrogate d=0 depth=3 full=9 spline=0"] + nodes[1:],
            nodes[:5] + [""] + nodes[5:],  # blank line after node 4
            nodes[:5] + ["# a comment"] + nodes[5:],
            nodes[:5] + [nodes[5] + " extra"] + nodes[6:],
            nodes[:5] + [nodes[5].replace(" F", " Q")] + nodes[6:],  # unknown provenance
            nodes[:5] + ["9:999 0 0 0 F"] + nodes[6:],  # index out of range for its level
            nodes[:6] + [nodes[4]] + nodes[6:],  # duplicate node
            regions[:11] + [""] + regions[11:],  # blank line between regions
            regions[:12],  # one region line missing
            regions[:10] + ["regions two"] + regions[11:],
            regions[:11] + [regions[11].replace(",", ";", 1)] + regions[12:],
            # header items other than d, depth, full and spline, each once
            ["surrogate d=1 depth=3 full=9 full=4 spline=0"] + nodes[1:],
            ["surrogate d=1 depth=3 full=9 spline=0 foo=1"] + nodes[1:],
            # a header that differs from what the node lines hold
            ["surrogate d=1 depth=7 full=9 spline=0"] + nodes[1:],
            ["surrogate d=1 depth=3 full=8 spline=0"] + nodes[1:],
            ["surrogate d=1 depth=3 full=9 spline=1"] + nodes[1:],
        ]
        assert nodes[0] == "surrogate d=1 depth=3 full=9 spline=0"
        # the file cut after each of node lines 1 .. 8
        bad_inputs += [nodes[:1 + k] for k in range(1, 9)]
        # a non-finite output, w or v
        for field in range(1, 4):
            for value in ("nan", "inf"):
                fields = nodes[5].split()
                fields[field] = value
                bad_inputs.append(nodes[:5] + [" ".join(fields)] + nodes[6:])
        for lines in bad_inputs:
            p.write_text("\n".join(lines) + "\n")
            with pytest.raises(PersistenceError):
                load_surrogate(p)

    @pytest.mark.parametrize("edit, reason", [
        (lambda f: ["7", "1:1,3:2,5:9"] + f[2:], "dim 7 outside"),
        (lambda f: ["2"] + f[1:], "dim 2 outside"),
        (lambda f: ["-1"] + f[1:], "dim -1 outside"),
        (lambda f: f[:1] + ["-"] + f[2:], "anchor of 0 pairs"),
        (lambda f: f[:1] + ["1:1,3:2"] + f[2:], "anchor of 2 pairs"),
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
        (lambda f: f[:4] + ["hello", "1_0"], "midpoint and half-length"),
        (lambda f: f[:5] + ["1_0"], "midpoint and half-length"),
        (lambda f: f[:4] + ["0.5", "0.375"], "midpoint and half-length"),
        (lambda f: f[:4] + ["0.375", "0.3750"], "midpoint and half-length"),
    ])
    def test_region_lines_no_node_can_match_rejected(self, tmp_path, edit, reason):
        # a 2-D model with one region along dim 0 at x1 = 0.5
        db = RegionDatabase()
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
    )
    def test_random_builds_round_trip(self, method, dimension, amplitude, frequency,
                                      kink, max_level, epsilon, query_seed, cut):
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
            # cut before a node line: the header no longer matches
            lines = first.read_text().splitlines()
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
        got = parse_config(p)
        assert got["epsilon"] == 1e-3 and isinstance(got["epsilon"], float)
        assert got["i_max"] == 12 and isinstance(got["i_max"], int)
        assert math.isinf(got["m_min"])
        assert got["seed"] == 42
        assert got["poisson"] == {"n_random": 10, "n_cells": 128}
        assert got["use_fancy"] is True

    def test_parse_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("this line has no equals sign\n")
        with pytest.raises(SparseGridError):
            parse_config(p)

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
            parse_config(p)

    @pytest.mark.parametrize("text", ["kink = 1\nkink.kink_pos = 0.3\n",
                                      "kink.kink_pos = 0.3\nkink = 1\n"],
                             ids=["flat first", "dotted first"])
    def test_parse_rejects_key_both_flat_and_dotted(self, tmp_path, text):
        # a flat key after the group replaced the group's parameters
        p = tmp_path / "both.cfg"
        p.write_text(text)
        with pytest.raises(SparseGridError, match="'kink' used both flat and dotted"):
            parse_config(p)

    def test_config_from_mapping(self):
        cfg = config_from_mapping(
            {"epsilon": 1e-2, "i_max": 9, "i1": 3, "m_min": 11, "phi": 0.5},
            dimension=4,
        )
        assert cfg.dimension == 4
        assert cfg.epsilon == 1e-2
        assert cfg.max_level == 9
        assert cfg.init_level == 3
        assert cfg.min_line_points == 11
        assert cfg.slope_tol == 0.5


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
        run_study(method.upper(), "kink", config_from_mapping(parse_config(cfg), 1),
                  seed=3, n_test_points=500, output_dir=tmp_path / "study",
                  persist_surrogate=True)
        built = (tmp_path / "cli" / f"kink_{method}.surrogate").read_bytes()
        studied = (tmp_path / "study" / f"kink_{method}.surrogate").read_bytes()
        assert built == studied

    @pytest.mark.parametrize("setting", ["epsilon = nan", "phi = nan", "m_min = nan",
                                         "i_max = 6.5", "i1 = 1.5", "m_min = 7.5",
                                         # int() truncated these, or build never read them
                                         "seed = 1.7", "seed = true", "seed = -1",
                                         "dimension = 2.5", "dimension = 2.0"])
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
