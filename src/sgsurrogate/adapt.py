"""Conventional and adaptive sparse grid construction drivers.

Both drivers share one level-synchronous loop.  Conventional construction
(run_csc) populates every point of every level up to the requested depth.
Adaptive construction (run_asgc) populates the first `init_level + 1` levels
conventionally, then generates a point at the next level only if it is a son
of a current-level node whose surplus magnitude reaches the tolerance.
Construction stops when no surplus passes the threshold or when the level cap
is hit; the result records which criterion fired.

Within a level all candidate evaluations are independent (the model is
read-only until the batch is inserted); insertion happens once per level, so
the level-ordered surplus contract of the core module holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GridPoint,
    HierarchicalNode,
    Provenance,
    SurrogateModel,
    make_sons,
    root_point,
)
from .errors import EvaluationError

__all__ = [
    "AdaptiveConfig",
    "ModelFunction",
    "LevelRecord",
    "BuildResult",
    "run_csc",
    "run_asgc",
    "refine_candidates",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Every knob the adaptive construction algorithms expose.

    Levels are counted from 0 at the root point.  `init_level` is the last
    conventionally swept level; `max_level` caps refinement.  The method is
    chosen by the driver, not by the config: the line-scan parameters
    (`min_line_points`, `slope_tol`) are read only by run_easgc, and
    `min_line_points` may be math.inf to disable certification entirely.
    """

    dimension: int
    epsilon: float = 1e-3
    max_level: int = 10
    init_level: int = 2
    min_line_points: float = 9
    slope_tol: float = 0.25

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0 <= self.init_level < self.max_level:
            raise ValueError(
                f"need 0 <= init_level < max_level, got {self.init_level}, {self.max_level}"
            )
        if self.min_line_points < 5:
            raise ValueError(
                f"min_line_points must be >= 5, got {self.min_line_points}"
            )
        if self.slope_tol <= 0:
            raise ValueError(f"slope_tol must be > 0, got {self.slope_tol}")


class ModelFunction:
    """Deterministic model over the unit cube with an evaluation counter.

    The counter increments exactly once per full evaluation; failures and
    non-finite outputs raise EvaluationError with the offending coordinate.
    """

    def __init__(self, func, dimension: int, name: str = "model"):
        self.func = func
        self.dimension = dimension
        self.name = name
        self.evaluations = 0

    def __call__(self, x) -> float:
        self.evaluations += 1
        try:
            value = float(self.func(x))
        except Exception as exc:
            raise EvaluationError(
                f"model '{self.name}' failed at {np.asarray(x)}: {exc}",
                coordinate=np.asarray(x, dtype=float),
            ) from exc
        if not math.isfinite(value):
            raise EvaluationError(
                f"model '{self.name}' returned {value} at {np.asarray(x)}",
                coordinate=np.asarray(x, dtype=float),
            )
        return value


@dataclass
class LevelRecord:
    """Per-level progress emitted to the harness."""

    level: int
    candidates: int
    full_evaluations: int
    spline_interpolations: int
    max_abs_surplus: float
    active: int


@dataclass
class BuildResult:
    """A finished surrogate plus the build trace."""

    model: SurrogateModel
    records: list[LevelRecord] = field(default_factory=list)
    stopped_by: str = "level_cap"  # "tolerance", "level_cap" or "evaluation_error"
    region_db: object | None = None  # populated by the spline-backed driver


def refine_candidates(active, model: SurrogateModel | None = None) -> list[GridPoint]:
    """Deduplicated sons of the active points, minus points already stored.

    Candidates are returned sorted by their (level, index) tuples so the
    construction order, and hence the persisted file, is deterministic.
    """
    seen = set()
    out = []
    for point in active:
        for son in make_sons(point):
            key = son.key
            if key in seen:
                continue
            if model is not None and key in model:
                continue
            seen.add(key)
            out.append(son)
    out.sort(key=lambda p: p.dims)
    return out


def _evaluate_candidates(model, f, candidates, value_source):
    """Evaluate a level's candidates, via region lookup when available.

    Returns (values, provenance list); bumps the model's counters once the
    whole level is evaluated, so after a failure they still match its nodes.
    """
    values = np.empty(len(candidates))
    provenance = []
    for i, point in enumerate(candidates):
        cheap = None if value_source is None else value_source(point)
        if cheap is None:
            values[i] = f(point.coordinate())
            provenance.append(Provenance.FULL_MODEL)
        else:
            values[i] = cheap
            provenance.append(Provenance.SPLINE_INTERPOLATED)
    spline = provenance.count(Provenance.SPLINE_INTERPOLATED)
    model.full_evaluations += len(provenance) - spline
    model.spline_interpolations += spline
    return values, provenance


def _drive(f, dimension, epsilon, init_level, max_level,
           value_source=None, after_level=None, on_level=None,
           region_db=None) -> BuildResult:
    """Shared level loop for conventional, adaptive and spline-backed builds.

    Levels 0..init_level are swept conventionally; from init_level on, only
    sons of nodes with |w| >= epsilon are generated.  `value_source(point)`
    may return a cheap value (None means do a full evaluation);
    `after_level(model, level)` runs after each adaptive level is inserted,
    before the next level's candidates are evaluated; `on_level(model,
    record)` observes every level for reporting.

    When a full evaluation fails, the EvaluationError carries the completed
    levels as `.partial`: a BuildResult with stopped_by="evaluation_error"
    whose frozen model holds every level inserted before the failing one.
    """
    model = SurrogateModel(dimension)
    result = BuildResult(model=model, region_db=region_db)
    candidates = [root_point(dimension)]
    level = 0
    while candidates:
        try:
            values, provenance = _evaluate_candidates(model, f, candidates, value_source)
        except EvaluationError as exc:
            model.freeze()
            result.stopped_by = "evaluation_error"
            exc.partial = result
            raise
        coords = np.array([p.coordinate() for p in candidates])
        w, v = model.surpluses_against_prefix(coords, values)
        for i, point in enumerate(candidates):
            model.add_node(
                HierarchicalNode(
                    point=point,
                    output=float(values[i]),
                    w=float(w[i]),
                    v=float(v[i]),
                    provenance=provenance[i],
                )
            )
        abs_w = np.abs(w)
        if level < init_level:
            active = list(candidates)
        else:
            active = [p for i, p in enumerate(candidates) if abs_w[i] >= epsilon]
        record = LevelRecord(
            level=level,
            candidates=len(candidates),
            full_evaluations=model.full_evaluations,
            spline_interpolations=model.spline_interpolations,
            max_abs_surplus=float(abs_w.max()),
            active=len(active),
        )
        result.records.append(record)
        if on_level is not None:
            on_level(model, record)
        if level >= max_level:
            result.stopped_by = "level_cap"
            candidates = []
        elif level >= init_level and not active:
            result.stopped_by = "tolerance"
            candidates = []
        else:
            if after_level is not None and level > init_level:
                after_level(model, level)
            candidates = refine_candidates(active, model)
            level += 1
    model.freeze()
    return result


def run_csc(f: ModelFunction, d: int, q_max: int, on_level=None) -> BuildResult:
    """Conventional sparse grid build: every point up to level `q_max`.

    Levels count from 0 at the root, so a 1-D build to level 5 evaluates all
    33 nodes of the nested hierarchy.
    """
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    return _drive(f, d, epsilon=math.inf, init_level=q_max, max_level=q_max,
                  on_level=on_level)


def run_asgc(f: ModelFunction, cfg: AdaptiveConfig, on_level=None) -> BuildResult:
    """Adaptive build: conventional sweeps, then surplus-thresholded sons."""
    return _drive(f, cfg.dimension, cfg.epsilon, cfg.init_level, cfg.max_level,
                  on_level=on_level)
