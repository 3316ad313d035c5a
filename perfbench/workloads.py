"""Workloads of the sgsurrogate benchmark and the closed loop that runs them.

Every workload is a closed loop with one caller in one process: the next
operation starts only when the previous one has returned.  A run repeats the
operation until the operations alone have taken `seconds`, then reports
medians.  Outputs are checked after every operation, outside the timed
region; a mismatch or an exception counts the operation as failed.

Inputs that vary with the seed (the query batch, whose first rows are also
the single-point queries, and the sample of stored nodes whose interpolation
property is checked) are drawn here and handed to the library as arrays.  The
builds take no randomness.  The accuracy test set is fixed (seed 11, as in
the acceptance sweep), so `max_abs_error` compares like with like.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sgsurrogate as sg

clock = time.perf_counter

SETUP_MIN_REPS = 5     # set-ups per untraced run, at least; setup_s is their median
SETUP_BURST_S = 0.3    # set-ups repeat for this long at each of several points of a run
ERROR_SEED = 11        # fixed accuracy test set
ERROR_POINTS = 2000
NODE_SAMPLE = 256      # stored nodes checked for the interpolation property
PROBE_CYCLES = 3       # save -> load -> query cycles on a build workload's models
WARM_QUERIES = 3       # timed repeats of the batch query per cycle, after the first
LOOP_LIMIT_S = 100     # start no operation after this long, so a run ends within 180 s
FLOAT_RTOL = 1e-9      # recorded floats may move by summation order only
INTERP_RTOL = 1e-12    # interpolation property, as in the acceptance tests

E2E_METRICS = (
    ("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("full_evals", "count"),
    ("max_abs_error", "1"),
)


def easgc_config(**kwargs) -> sg.AdaptiveConfig:
    """An AdaptiveConfig for run_easgc.

    Passes use_splines=True while the config still has that field; a
    planned simplification drops it, and the benchmark must run on both
    sides of that change.
    """
    if "use_splines" in {f.name for f in dataclasses.fields(sg.AdaptiveConfig)}:
        kwargs["use_splines"] = True
    return sg.AdaptiveConfig(**kwargs)


def problems_of(check) -> list[str]:
    """Run a check returning a list of problems; an exception is one problem."""
    try:
        return check()
    except Exception:
        return ["exception: " + traceback.format_exc(limit=4).strip()]


# ---------------------------------------------------------------------------
# the save -> load -> moments -> query cycle
# ---------------------------------------------------------------------------

@dataclass
class Cycle:
    """Timings and outputs of one save -> load -> moments -> query cycle."""

    save_s: float
    load_s: float
    query_s: float         # the first batch query, which builds the loaded model's arrays
    warm_s: list           # the repeats of the same batch query
    point_s: list
    path: Path
    model: object
    regions: object
    moments: object
    values: np.ndarray
    singles: np.ndarray
    repeats_equal: bool    # every warm repeat returned `values`

    def timings(self) -> dict:
        """The timings alone, so a run need not keep loaded models alive."""
        p50, p99 = np.percentile(self.point_s, [50, 99])
        return {"save_s": self.save_s, "load_s": self.load_s,
                "cold_points_per_s": len(self.values) / self.query_s,
                "warm_points_per_s": [len(self.values) / t for t in self.warm_s],
                "p50_us": p50 * 1e6, "p99_us": p99 * 1e6, "points": len(self.point_s)}


def io_cycle(model, regions, batch: np.ndarray, n_single: int, path: Path) -> Cycle:
    """Save, load, take moments, query a batch, then query points one by one.

    The batch query then repeats WARM_QUERIES times; every repeat must
    return the first query's values.  Each timed phase starts from a fresh
    garbage collection, so where the collector runs inside the phase does
    not depend on what ran before it.
    """
    gc.collect()
    t0 = clock()
    sg.save_surrogate(path, model, regions)
    t1 = clock()
    gc.collect()
    t1b = clock()
    loaded, loaded_regions = sg.load_surrogate(path)
    t2 = clock()
    est = sg.moments(loaded)
    t3 = clock()
    values = loaded.interpolate_many(batch)
    t4 = clock()
    singles = np.empty(n_single)
    point_s = []
    gc.collect()
    for i in range(n_single):
        start = clock()
        singles[i] = loaded.interpolate(batch[i])
        point_s.append(clock() - start)
    warm_s, repeats_equal = [], True
    gc.collect()
    for _ in range(WARM_QUERIES):
        start = clock()
        again = loaded.interpolate_many(batch)
        warm_s.append(clock() - start)
        repeats_equal = repeats_equal and np.array_equal(again, values)
    return Cycle(t1 - t0, t2 - t1b, t4 - t3, warm_s, point_s, path, loaded, loaded_regions,
                 est, values, singles, repeats_equal)


def cycle_problems(cyc: Cycle, saved, saved_regions, saved_values) -> list[str]:
    """Round-trip and query checks of a cycle against the model it saved."""
    problems = []
    loaded = cyc.model
    if len(loaded) != len(saved):
        problems.append(f"loaded {len(loaded)} nodes, saved {len(saved)}")
    if loaded.full_evaluations != saved.full_evaluations:
        problems.append("loaded full evaluation count differs")
    if loaded.spline_interpolations != saved.spline_interpolations:
        problems.append("loaded spline count differs")
    if len(cyc.regions or ()) != len(saved_regions or ()):
        problems.append(f"loaded {len(cyc.regions or ())} regions, saved {len(saved_regions or ())}")
    again = cyc.path.with_suffix(".again")
    sg.save_surrogate(again, loaded, cyc.regions)
    if again.read_bytes() != cyc.path.read_bytes():
        problems.append("save -> load -> save is not byte-identical")
    if not np.array_equal(cyc.values, saved_values):
        problems.append("loaded interpolate_many differs from the saved model's")
    if not cyc.repeats_equal:
        problems.append("a repeated interpolate_many returned other values")
    head = cyc.values[:len(cyc.singles)]
    if np.any(np.abs(cyc.singles - head) > INTERP_RTOL * np.maximum(1.0, np.abs(head))):
        problems.append("single-point interpolate differs from interpolate_many")
    if cyc.moments != sg.moments(saved):
        problems.append("loaded moments differ from the saved model's")
    return problems


def interpolation_problems(model, sample: np.ndarray) -> list[str]:
    """The surrogate must reproduce its stored outputs at sampled nodes."""
    nodes = model.nodes()
    picked = [nodes[i] for i in sample % len(nodes)]
    coords = np.array([n.point.coordinate() for n in picked])
    outputs = np.array([n.output for n in picked])
    bad = np.abs(model.interpolate_many(coords) - outputs) > INTERP_RTOL * np.maximum(1.0, np.abs(outputs))
    return [f"interpolation property fails at {int(bad.sum())} sampled nodes"] if bad.any() else []


def reference_problems(observed: dict, reference: dict) -> list[str]:
    """Exact match for counts and labels; floats within FLOAT_RTOL."""
    problems = []
    for key, want in reference.items():
        got = observed.get(key)
        if isinstance(want, float):
            ok = got is not None and abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want))
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """Inputs of one run, made by a workload's setup from the seed."""

    batch: np.ndarray         # seeded interpolate_many batch
    node_sample: np.ndarray   # seeded indices of stored nodes to check
    error_points: np.ndarray  # fixed accuracy test set
    error_truth: np.ndarray
    out_dir: Path
    saved_values: np.ndarray | None = None


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `operate(ctx)` is the timed operation.  `observe(ctx, outcome)` returns
    the values compared with `reference` after every operation, and the
    model and regions the first operation's extra checks and probe use.
    `error_reference` is the model's max_abs_error on the fixed accuracy set
    (None when the operation reports its own error).  On build and study
    workloads, PROBE_CYCLES probe cycles supply the save, load and query
    timings of the details line: one after each of the first operations,
    the rest on the last operation's model.
    """

    name: str
    benchmark: str
    params: dict
    dimension: int
    query_points: int      # rows of the seeded interpolate_many batch
    single_points: int     # single-point interpolate calls per cycle
    reference: dict
    error_reference: float | None
    operate: object
    observe: object

    def setup(self, seed: int, out_dir: Path) -> Context:
        rng = np.random.default_rng(seed)
        f, _ = sg.get_benchmark(self.benchmark, dict(self.params))
        error_points = sg.draw_test_points(self.dimension, ERROR_POINTS, ERROR_SEED)
        return Context(
            batch=rng.random((self.query_points, self.dimension)),
            node_sample=rng.integers(0, 1 << 62, NODE_SAMPLE),
            error_points=error_points,
            error_truth=np.array([f.func(x) for x in error_points]),
            out_dir=out_dir,
        )


def build_observed(result, f) -> dict:
    model = result.model
    return {
        "nodes": len(model),
        "full_evals": model.full_evaluations,
        "spline_evals": model.spline_interpolations,
        "model_calls": f.evaluations,
        "regions": len(result.region_db or ()),
        "levels": len(result.records),
        "stopped_by": result.stopped_by,
    }


def _observe_build(ctx, outcome):
    result, f = outcome
    return build_observed(result, f), result.model, result.region_db


def _csc_operate(ctx):
    f, _ = sg.get_benchmark("line_singularity")
    return sg.run_csc(f, 2, 12), f


def _poisson_operate(ctx):
    f, _ = sg.get_benchmark("poisson", {"n_random": 10})
    cfg = easgc_config(dimension=10, epsilon=1e-6, max_level=4, init_level=2,
                       min_line_points=7)
    return sg.run_easgc(f, cfg), f


def _kink_operate(ctx):
    f, _ = sg.get_benchmark("kink")
    return sg.run_csc(f, 1, 4), f


def _line_easgc_config():
    return easgc_config(dimension=2, epsilon=1e-2, max_level=20, init_level=2)


STUDY_STEM = "line_singularity_easgc"


def _study_operate(ctx):
    """The code behind `sgsurrogate study --methods easgc --persist`."""
    return sg.run_study("EASGC", "line_singularity", _line_easgc_config(), seed=11,
                        n_test_points=10_000, output_dir=ctx.out_dir / "study",
                        stem=STUDY_STEM, persist_surrogate=True)


def _observe_study(ctx, report):
    model, regions = sg.load_surrogate(ctx.out_dir / "study" / f"{STUDY_STEM}.surrogate")
    meta = report.metadata
    observed = {
        "nodes": meta["nodes"],
        "full_evals": meta["full_evaluations"],
        "spline_evals": meta["spline_interpolations"],
        "file_nodes": len(model),
        "regions": len(regions or ()),
        "levels": len(report.rows),
        "stopped_by": meta["stopped_by"],
        "max_abs_error": report.rows[-1].max_abs_error,
    }
    return observed, model, regions


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="csc_line_l12", benchmark="line_singularity", params={}, dimension=2,
            query_points=1000, single_points=1000,
            reference={"nodes": 32769, "full_evals": 32769, "spline_evals": 0,
                       "model_calls": 32769, "regions": 0, "levels": 13,
                       "stopped_by": "level_cap"},
            error_reference=0.4534807229584974,
            operate=_csc_operate, observe=_observe_build,
        ),
        Workload(
            name="easgc_line_study", benchmark="line_singularity", params={}, dimension=2,
            query_points=1000, single_points=1000,
            reference={"nodes": 10017, "full_evals": 5734, "spline_evals": 4283,
                       "file_nodes": 10017, "regions": 1102, "levels": 21,
                       "stopped_by": "level_cap", "max_abs_error": 0.31588935206390545},
            error_reference=None,
            operate=_study_operate, observe=_observe_study,
        ),
        Workload(
            name="poisson_easgc_10d", benchmark="poisson", params={"n_random": 10},
            dimension=10, query_points=1000, single_points=1000,
            reference={"nodes": 4961, "full_evals": 4921, "spline_evals": 40,
                       "model_calls": 4921, "regions": 6, "levels": 5,
                       "stopped_by": "level_cap"},
            error_reference=7.087437637096072e-06,
            operate=_poisson_operate, observe=_observe_build,
        ),
        # self-test only: tiny, and not listed in BENCHMARK.json
        Workload(
            name="selftest_kink_csc_l4", benchmark="kink", params={}, dimension=1,
            query_points=200, single_points=200,
            reference={"nodes": 17, "full_evals": 17, "spline_evals": 0,
                       "model_calls": 17, "regions": 0, "levels": 5,
                       "stopped_by": "level_cap"},
            error_reference=0.0,
            operate=_kink_operate, observe=_observe_build,
        ),
    )
}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class RunLog:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])


@dataclass
class Outputs:
    """What a run reports besides operation times: build counts, accuracy, cycles."""

    full_evals: int | None = None
    max_abs_error: float | None = None
    cycles: list = field(default_factory=list)  # Cycle.timings() of each cycle


def _first_op_checks(wl: Workload, ctx: Context, observed: dict, model, outs: Outputs) -> list[str]:
    """Accuracy and interpolation property, on the first operation's model only.

    The builds are deterministic, so later operations are held to the
    reference counts alone.
    """
    problems = []
    if "max_abs_error" in observed:
        outs.max_abs_error = observed["max_abs_error"]
    else:
        outs.max_abs_error = float(np.max(np.abs(
            model.interpolate_many(ctx.error_points) - ctx.error_truth)))
        if wl.error_reference is not None:
            problems += reference_problems({"max_abs_error": outs.max_abs_error},
                                           {"max_abs_error": wl.error_reference})
    outs.full_evals = model.full_evaluations
    return problems + interpolation_problems(model, ctx.node_sample)


def _probe(wl: Workload, ctx: Context, label: str, model, regions, log: RunLog,
           outs: Outputs, tracer) -> None:
    """One save -> load -> query cycle on a build's model.

    The cycle is one more attempted operation, checked against the
    model it saved.
    """
    if tracer is not None:
        tracer.start(label)
    try:
        cyc = io_cycle(model, regions, ctx.batch, wl.single_points,
                       ctx.out_dir / "probe.surrogate")
    except Exception:
        log.record(label, ["exception: " + traceback.format_exc(limit=4).strip()])
        return
    finally:
        if tracer is not None:
            tracer.stop()
    outs.cycles.append(cyc.timings())
    if ctx.saved_values is None:
        ctx.saved_values = model.interpolate_many(ctx.batch)
    log.record(label, problems_of(lambda: cycle_problems(cyc, model, regions, ctx.saved_values)))


def run_workload(wl: Workload, seed: int, seconds: float, out_dir: Path, tracer=None) -> dict:
    """Run one workload for `seconds` of operations; return details and result.

    With a tracer, operations alternate untraced and traced; the per-layer
    metrics come from the traced ones, and the tracing overhead from
    comparing them with the untraced ones after the first.  Without a tracer
    nothing is wrapped.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s = []

    def timed_setup():
        gc.collect()
        start = clock()
        made = wl.setup(seed, out_dir)
        setup_s.append(clock() - start)
        return made

    def setup_burst():
        """Set-ups for SETUP_BURST_S.  Bursts at several points of the run keep
        setup_s from hanging on one stretch of the host's load."""
        if tracer is None:
            start = clock()
            while clock() - start < SETUP_BURST_S:
                timed_setup()

    def probe(model, regions):
        _probe(wl, ctx, f"probe{len(outs.cycles)}", model, regions, log, outs, tracer)
        setup_burst()

    ctx = timed_setup()
    setup_burst()
    log = RunLog()
    outs = Outputs()
    op_s = {False: [], True: []}
    last = None  # model and regions of the latest operation, for the probe
    loop_start = clock()
    i = 0
    while clock() - loop_start < LOOP_LIMIT_S:
        traced = tracer is not None and i % 2 == 1
        label = f"op{i}"
        last = None  # one model at a time, so peak memory is the same with one operation or more
        gc.collect()
        if traced:
            tracer.start(label)
        start = clock()
        try:
            outcome = wl.operate(ctx)
        except Exception:
            outcome = None
            log.record(label, ["exception: " + traceback.format_exc(limit=4).strip()])
        finally:
            elapsed = clock() - start
            if traced:
                tracer.stop()
        if outcome is not None:
            op_s[traced].append(elapsed)
            problems, model, regions = [], None, None
            try:
                observed, model, regions = wl.observe(ctx, outcome)
                problems = reference_problems(observed, wl.reference)
                if i == 0:
                    problems += _first_op_checks(wl, ctx, observed, model, outs)
            except Exception:
                problems.append("exception: " + traceback.format_exc(limit=4).strip())
            log.record(label, problems)
            if model is not None:
                if len(outs.cycles) < PROBE_CYCLES:
                    probe(model, regions)
                last = (model, regions)
            del outcome, model, regions
        i += 1
        measured = sum(op_s[False]) + sum(op_s[True])
        if not (op_s[False] or op_s[True]):
            break  # the first operation raised; nothing to measure
        # a traced run also wants an untraced operation after the first,
        # which pays the process's cold start, to compare the traced ones with
        if measured >= seconds and (tracer is None or (op_s[True] and op_s[False][1:])):
            break
    while last is not None and len(outs.cycles) < PROBE_CYCLES:
        probe(*last)
    last = None
    while tracer is None and len(setup_s) < SETUP_MIN_REPS:
        timed_setup()
    if tracer is not None:
        untraced = op_s[False][1:] or op_s[False]
        overhead = (statistics.median(op_s[True]) / statistics.median(untraced) - 1.0
                    if op_s[True] and untraced else float("nan"))
        metrics = tracer.layer_metrics([f"op{k}" for k in range(1, i, 2)], overhead)
    else:
        metrics = _e2e_metrics(op_s[False], setup_s, outs)
    details = {
        "workload": wl.name,
        "seed": seed,
        "operations": {"untraced": len(op_s[False]), "traced": len(op_s[True])},
        "op_s": {"untraced": _summary(op_s[False]), "traced": _summary(op_s[True])},
        "setup_s": _summary(setup_s),
        "query_batch_points": wl.query_points,
        "io_cycles": _cycle_summary(outs.cycles),
        "problems": log.problems[:20],
    }
    return {
        "details": details,
        "result": {
            "correct": log.failed == 0,
            "attempted": log.attempted,
            "failed": log.failed,
            "metrics": metrics,
        },
    }


def _summary(values) -> dict:
    """Count, extremes and quartiles of a list of timings."""
    if len(values) <= 20:
        return {"n": len(values), "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3,
            "max": max(values)}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _cycle_summary(cycles) -> dict:
    """Medians over cycles of the save, load, batch-query and single-point timings.

    Reported in the details line only: on a shared host their spread across
    runs exceeded any bound the benchmark may set.
    """
    return {
        "cycles": len(cycles),
        "save_s": _median(c["save_s"] for c in cycles),
        "query_points_per_s": _median(rate for c in cycles for rate in c["warm_points_per_s"]),
        "cold_query_points_per_s": _median(c["cold_points_per_s"] for c in cycles),
        "load_s": _median(c["load_s"] for c in cycles),
        "point_query_p50_us": _median(c["p50_us"] for c in cycles),
        "point_query_p99_us": _median(c["p99_us"] for c in cycles),
        "point_query_samples": sum(c["points"] for c in cycles),
    }


def _e2e_metrics(op_s, setup_s, outs: Outputs) -> dict:
    values = {
        "op_s": _median(op_s),
        "setup_s": _median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "full_evals": outs.full_evals,
        "max_abs_error": outs.max_abs_error,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}
