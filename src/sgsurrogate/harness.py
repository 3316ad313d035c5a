"""Error metrics, Monte Carlo reference, convergence studies and configuration.

A study builds a surrogate level by level and records one row per level:
evaluation counts, max-abs and RMS errors over a seeded test set, analytic
moments, and the moment changes between consecutive levels.  Reports land in
a CSV whose columns are StudyRow's fields, in order, plus a JSON sidecar
echoing the full configuration, so runs are reproducible from their
artifacts alone.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .adapt import (
    AdaptiveConfig, BuildResult, ModelFunction, _check_integer, run_asgc, run_csc,
)
from .errors import SparseGridError
from .io import save_surrogate
from .models import get_benchmark
from .moments import moments
from .smooth import run_easgc

__all__ = [
    "METHODS",
    "build",
    "StudyRow",
    "StudyReport",
    "draw_test_points",
    "max_abs_error",
    "rmse",
    "MonteCarloEstimate",
    "mc_reference",
    "run_study",
    "parse_config",
    "config_from_mapping",
    "CSV_COLUMNS",
]

METHODS = ("CSC", "ASGC", "EASGC")


def draw_test_points(dimension: int, count: int, seed: int) -> np.ndarray:
    """Uniform test points in the cube with a recorded seed."""
    rng = np.random.default_rng(seed)
    return rng.random((count, dimension))


def _deviation(m, f, test_points) -> np.ndarray:
    """surrogate - model at every test point; `f` may be the model's values there."""
    test_points = np.asarray(test_points, dtype=float)
    truth = f if isinstance(f, np.ndarray) else np.array([f(x) for x in test_points])
    return m.interpolate_many(test_points) - truth


def _max_abs(dev: np.ndarray) -> float:
    return float(np.abs(dev).max())


def _rms(dev: np.ndarray) -> float:
    return float(np.sqrt(np.mean(dev * dev)))


def max_abs_error(m, f, test_points) -> float:
    """Max |surrogate - model| over the test set.

    `f` may be a callable or an array of precomputed model values.
    """
    return _max_abs(_deviation(m, f, test_points))


def rmse(m, f, test_points) -> float:
    """Root mean squared deviation over the test set."""
    return _rms(_deviation(m, f, test_points))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample moments with their own standard errors."""

    mean: float
    mean_square: float
    variance: float
    mean_stderr: float
    variance_stderr: float
    n_samples: int
    seed: int


def mc_reference(f, n_samples: int, seed: int) -> MonteCarloEstimate:
    """Plain Monte Carlo moments of `f` under uniform inputs.

    The variance standard error uses the fourth central moment, so it stays
    honest for skewed outputs.  Needs at least 2 samples; the samples are
    evaluated in one `f.many` call.
    """
    if n_samples < 2:
        raise ValueError(f"mc_reference needs n_samples >= 2, got {n_samples}")
    rng = np.random.default_rng(seed)
    x = rng.random((n_samples, f.dimension))
    values = f.many(x)
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    centered = values - mean
    m4 = float(np.mean(centered ** 4))
    var_of_var = max(m4 - (n_samples - 3) / (n_samples - 1) * var * var, 0.0)
    return MonteCarloEstimate(
        mean=mean,
        mean_square=float(np.mean(values ** 2)),
        variance=var,
        mean_stderr=float(np.sqrt(var / n_samples)),
        variance_stderr=float(np.sqrt(var_of_var / n_samples)),
        n_samples=n_samples,
        seed=seed,
    )


@dataclass
class StudyRow:
    level: int
    full_evals: int
    spline_evals: int
    max_abs_error: float
    rmse: float
    mean: float
    variance: float
    mean_delta: float
    variance_delta: float
    wall_time: float


CSV_COLUMNS = tuple(column.name for column in fields(StudyRow))


@dataclass
class StudyReport:
    """Per-level study rows plus the metadata needed to reproduce them."""

    method: str
    benchmark: str
    rows: list[StudyRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        """A header of CSV_COLUMNS, then each row's fields: ints as such, reals to 17 digits."""
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(str(v) if isinstance(v, int) else format(float(v), ".17g")
                           for v in astuple(row)) for row in self.rows]
        return "\n".join(lines) + "\n"

    def write(self, output_dir, stem: str | None = None) -> tuple[Path, Path]:
        """Write the CSV and its JSON sidecar; returns both paths."""
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        stem = stem or f"{self.benchmark}_{self.method.lower()}"
        csv_path = output_dir / f"{stem}.csv"
        meta_path = output_dir / f"{stem}.json"
        csv_path.write_text(self.to_csv())
        meta_path.write_text(json.dumps(self.metadata, indent=2, sort_keys=True,
                                        allow_nan=False) + "\n")
        return csv_path, meta_path


def _study_test_points(benchmark: str, dimension: int, n_test_points: int, seed: int) -> np.ndarray:
    """Seeded random points; the cheap 2-D truss uses a tensor grid instead."""
    if benchmark == "truss2":
        side = max(2, int(round(math.sqrt(n_test_points))))
        g = (np.arange(side) + 0.5) / side
        gx, gy = np.meshgrid(g, g)
        return np.column_stack([gx.ravel(), gy.ravel()])
    return draw_test_points(dimension, n_test_points, seed)


def run_study(method: str, benchmark: str, cfg: AdaptiveConfig | None = None, *,
              benchmark_params: dict | None = None, seed: int = 0,
              n_test_points: int = 10_000, output_dir=None, stem: str | None = None,
              persist_surrogate: bool = False) -> StudyReport:
    """Build a surrogate with one method, recording one report row per level.

    The error columns come from running sums at the test points: each level
    adds only the terms of the level-vector groups it appended, and the sums
    equal, bit for bit, `interpolate_many` on that level's model (see core),
    bar the sign of a zero sum, which `interpolate_many` returns as +0 and
    which no error column can show.
    The JSON sidecar's `level_build_s` lists each level's build seconds, the
    sum of its `phase_s`, without the study's own error and moment work.

    Deterministic for a fixed seed and configuration (the wall_time column
    and `level_build_s` aside).  When `output_dir` is given, writes
    `<stem>.csv`, `<stem>.json` and optionally `<stem>.surrogate`.
    `n_test_points` must be an integer >= 1 (ValueError before any model
    call otherwise).
    """
    method = method.upper()
    if method not in METHODS:
        raise SparseGridError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_integer("n_test_points", n_test_points, 1)
    f, echo = get_benchmark(benchmark, benchmark_params)
    if cfg is None:
        cfg = AdaptiveConfig(dimension=f.dimension)
    if cfg.dimension != f.dimension:
        raise SparseGridError(
            f"config dimension {cfg.dimension} != benchmark dimension {f.dimension}"
        )
    points = _study_test_points(benchmark, f.dimension, n_test_points, seed)
    true_values = f.many(points)
    f.evaluations = 0

    report = StudyReport(method=method, benchmark=benchmark)
    start = time.perf_counter()
    # the surrogate at the test points as running sums over the groups folded
    # so far: a level appends its groups, so only those are added
    running = {"sums": None, "groups": 0}
    build_s = []

    def on_level(model, record):
        build_s.append(sum(record.phase_s.values()))
        est = moments(model)
        running["sums"] = model._evaluate_sum(points, (0,), running["groups"], running["sums"])
        running["groups"] = model._group_count
        dev = running["sums"][:, 0] - true_values  # once for both errors
        last = report.rows[-1] if report.rows else None
        report.rows.append(StudyRow(
            level=record.level,
            full_evals=record.full_evaluations,
            spline_evals=record.spline_interpolations,
            max_abs_error=_max_abs(dev),
            rmse=_rms(dev),
            mean=est.mean,
            variance=est.variance,
            mean_delta=math.nan if last is None else abs(est.mean - last.mean),
            variance_delta=math.nan if last is None else abs(est.variance - last.variance),
            wall_time=time.perf_counter() - start,
        ))

    result = build(f, cfg, method, on_level)

    report.metadata = {
        "method": method,
        "benchmark": benchmark,
        "benchmark_params": echo,
        "dimension": f.dimension,
        "seed": seed,
        "n_test_points": int(points.shape[0]),
        "config": {name: "inf" if math.isinf(value) else value
                   for name, value in asdict(cfg).items() if name != "dimension"},
        "stopped_by": result.stopped_by,
        "full_evaluations": result.model.full_evaluations,
        "spline_interpolations": result.model.spline_interpolations,
        "nodes": len(result.model),
        "version": _version,
        "level_build_s": build_s,
    }
    if output_dir is not None:
        csv_path, _ = report.write(output_dir, stem)
        if persist_surrogate:
            save_surrogate(csv_path.with_suffix(".surrogate"), result.model, result.region_db)
    return report


def build(f: ModelFunction, cfg: AdaptiveConfig, method: str, on_level=None) -> BuildResult:
    """Build a surrogate of `f` with one of METHODS, the only method switch.

    CSC sweeps every level up to `cfg.max_level`; ASGC and EASGC run the
    adaptive drivers with `cfg`.  `on_level(model, record)` observes each
    level as it is inserted.
    """
    if method == "CSC":
        return run_csc(f, cfg.dimension, cfg.max_level, on_level=on_level)
    if method == "ASGC":
        return run_asgc(f, cfg, on_level=on_level)
    if method == "EASGC":
        return run_easgc(f, cfg, on_level=on_level)
    raise SparseGridError(f"unknown method {method!r}; expected one of {METHODS}")


# ---------------------------------------------------------------------------
# flat key=value configuration files
# ---------------------------------------------------------------------------

def _parse_value(raw: str):
    raw = raw.strip()
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("inf", "+inf"):
        return math.inf
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    return raw


def parse_config(path) -> dict:
    """Read a flat `key = value` file; dotted keys nest one level deep.

    Blank lines and `#` comments are ignored.  Only the syntax is checked
    here, and a key set twice, flat or dotted, is refused; the CLI refuses
    every key but dimension, epsilon, i_max, i1, m_min, phi, seed,
    n_test_points and the chosen benchmark's parameters, such as
    `poisson.n_cells = 256`.
    """
    out: dict = {}
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SparseGridError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in seen:
            raise SparseGridError(f"{path}:{lineno}: key {key!r} repeated, "
                                  f"first set on line {seen[key]}")
        seen[key] = lineno
        value = _parse_value(raw)
        if "." in key:
            group, sub = key.split(".", 1)
            out.setdefault(group, {})
            if not isinstance(out[group], dict):
                raise SparseGridError(f"{path}:{lineno}: key {group!r} used both flat and dotted")
            out[group][sub] = value
        elif key in out:  # not set before, so the name of a dotted group
            raise SparseGridError(f"{path}:{lineno}: key {key!r} used both flat and dotted")
        else:
            out[key] = value
    return out


_CONFIG_KEYS = {
    "epsilon": "epsilon",
    "i_max": "max_level",
    "i1": "init_level",
    "m_min": "min_line_points",
    "phi": "slope_tol",
}


def config_from_mapping(mapping: dict, dimension: int) -> AdaptiveConfig:
    """Build an AdaptiveConfig from parsed file keys for a given dimension."""
    kwargs = {"dimension": dimension}
    for file_key, field_name in _CONFIG_KEYS.items():
        if file_key in mapping:
            kwargs[field_name] = mapping[file_key]
    return AdaptiveConfig(**kwargs)
