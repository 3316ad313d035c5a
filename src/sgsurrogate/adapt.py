"""Conventional and adaptive sparse grid construction drivers.

Both drivers share one level-synchronous loop.  Conventional construction
(run_csc) populates every point of every level up to the requested depth.
Adaptive construction (run_asgc) populates the first `init_level + 1` levels
conventionally, then generates a point at the next level only if it is a son
of a current-level node whose surplus magnitude reaches the tolerance.
Construction stops when no surplus passes the threshold or when the level cap
is hit; the result records which criterion fired.  Sons of level-k nodes
lie on level k + 1 and the model holds levels <= k, so no son is stored
(add_level raises ContractViolationError for a level that is not deeper).

Within a level all candidate evaluations are independent (the model is
read-only until the batch is inserted), so each level looks up its whole code
array in the region database at once and then evaluates every miss in one
`ModelFunction.many` call: one call of the model's batch form when it has
one, else one scalar call per point.  Insertion happens once per level, so
the level-ordered surplus contract of the core module holds by construction.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_LEVEL, SurrogateModel, _code_array, _is_integer, coordinates, split_codes
from .errors import DimensionMismatchError, EvaluationError, InvalidNodeError

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
    conventionally swept level; `max_level` caps refinement, at most at
    MAX_LEVEL - 1, the deepest level node codes hold (a 1-D node of level L
    has a code of level L + 1).  The method is chosen by the driver, not by
    the config: the line-scan parameters (`min_line_points`, `slope_tol`)
    are read only by run_easgc, and `min_line_points` may be math.inf to
    disable certification entirely.
    The levels, the dimension and a finite `min_line_points` must be
    integers, `epsilon` and `slope_tol` real numbers > 0 (inf allowed), and
    no field may be NaN (ValueError naming the field otherwise).
    """

    dimension: int
    epsilon: float = 1e-3
    max_level: int = 10
    init_level: int = 2
    min_line_points: float = 9
    slope_tol: float = 0.25

    def __post_init__(self):
        # the comparisons are written so that NaN fails every one of them
        _check_integer("dimension", self.dimension, 1)
        _check_level("max_level", self.max_level, 1)
        _check_integer("init_level", self.init_level, 0)
        for name in ("epsilon", "slope_tol"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                raise ValueError(f"{name} must be a real number > 0, got {value!r}")
        if not self.init_level < self.max_level:
            raise ValueError(f"need init_level < max_level, got {self.init_level}, "
                             f"{self.max_level}")
        if self.min_line_points != math.inf:
            _check_integer("min_line_points", self.min_line_points, 5)


def _is_real(value) -> bool:
    """Whether `value` is a real number; bools are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_integer(name: str, value, low: int) -> None:
    """ValueError unless `value` is an integer (bools and 2.0 are not) >= `low`."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_level(name: str, value, low: int) -> None:
    """_check_integer, and ValueError unless `value` <= MAX_LEVEL - 1: the
    deepest build level node codes hold (a 1-D node of level L has a code of
    level L + 1)."""
    _check_integer(name, value, low)
    if value > MAX_LEVEL - 1:
        raise ValueError(f"{name} must be <= MAX_LEVEL - 1 = {MAX_LEVEL - 1}, the "
                         f"deepest level node codes hold, got {value}")


class ModelFunction:
    """Deterministic model over the unit cube with an evaluation counter.

    `func` maps one point to a float.  The optional `batch` maps an (n, d)
    array to n floats and must equal `func` row by row, bit for bit; `many`
    calls it, and without it loops over `func`.  The counter rises exactly
    once per full evaluation, by n for a batch.  Failures and non-finite
    outputs raise EvaluationError with the offending coordinate: the point
    for a scalar call or a non-finite batch row, the whole (n, d) batch for
    an exception raised inside `batch`, which cannot name its row.
    """

    def __init__(self, func, dimension: int, name: str = "model", batch=None):
        self.func = func
        self.dimension = dimension
        self.name = name
        self.batch = batch
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

    def many(self, points) -> np.ndarray:
        """Values at each row of an (n, d) array, through `batch` if there is one."""
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"model '{self.name}' takes (n, {self.dimension}) points, got {points.shape}"
            )
        if self.batch is None:
            return np.array([self(x) for x in points], dtype=float)
        if not len(points):
            return np.empty(0)
        self.evaluations += len(points)
        try:
            values = np.asarray(self.batch(points), dtype=float)
        except Exception as exc:
            raise EvaluationError(
                f"model '{self.name}' failed on a batch of {len(points)} points: {exc}",
                coordinate=points,
            ) from exc
        if values.shape != (len(points),):
            raise EvaluationError(
                f"model '{self.name}' returned shape {values.shape} for {len(points)} points",
                coordinate=points,
            )
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            row = points[bad[0]]
            raise EvaluationError(
                f"model '{self.name}' returned {values[bad[0]]} at {row}", coordinate=row,
            )
        return values


@dataclass
class LevelRecord:
    """Per-level progress emitted to the harness.

    `phase_s` holds the seconds the level cost, by phase: "evaluate" (the
    candidates' coordinates, and EASGC's region lookups and spline values),
    "model" (the model's `many` call on the rows without a spline value),
    "surplus", "insert", and the "refine" and "after_level" work (EASGC's
    line scan) that produced its candidates from the level before; those
    two are 0 on level 0.

    The smooth-layer counts are 0 outside EASGC.  `region_lookups` and
    `spline_hits` count the level's candidates looked up in the region
    database and the ones that took a spline value (the per-level increment
    of `spline_interpolations`).  The others count the line scan that ran
    before the level, like its "after_level" time: lines scanned, and
    regions created, superseded (removed as covered by a new region),
    displaced (removed by a longer partial overlap) and rejected (dropped
    for a partial overlap with a region at least as long).
    """

    level: int
    candidates: int
    full_evaluations: int
    spline_interpolations: int
    max_abs_surplus: float
    active: int
    phase_s: dict = field(default_factory=dict)
    region_lookups: int = 0
    spline_hits: int = 0
    lines_scanned: int = 0
    regions_created: int = 0
    regions_superseded: int = 0
    regions_displaced: int = 0
    regions_rejected: int = 0


@dataclass
class BuildResult:
    """A finished surrogate plus the build trace."""

    model: SurrogateModel
    records: list[LevelRecord] = field(default_factory=list)
    stopped_by: str = "level_cap"  # "tolerance", "level_cap" or "evaluation_error"
    region_db: object | None = None  # populated by the spline-backed driver


def refine_candidates(active) -> np.ndarray:
    """Deduplicated sons of the active nodes; in a build none is stored yet.

    `active` and the result are (n, d) arrays of per-dimension codes (see
    core).  Candidates are sorted lexicographically by code, which sorts
    them by their (level, index) tuples, so the construction order, and
    hence the persisted file, is deterministic.  A build refines its deepest
    level k, and the sons of level-k nodes lie on level k + 1.
    """
    active = _code_array(active, (None, None))
    split_codes(active)  # refuses codes of no node
    parts = [active[:0]]
    for s in range(active.shape[1]):
        code = active[:, s]
        first = np.where(code == 1, 2, np.where(code < 4, code + 2, 2 * code))
        second = (code == 1) | (code >= 4)  # level 2 has one son: 2 -> 4, 3 -> 5
        for son, rows in ((first, slice(None)), (first + 1, second)):
            sons = active[rows].copy()
            sons[:, s] = son[rows]
            parts.append(sons)
    sons = np.concatenate(parts)
    if (sons >> MAX_LEVEL).any():
        raise InvalidNodeError(f"refinement past level {MAX_LEVEL}")
    sons = sons[np.lexsort(sons.T[::-1])]
    fresh = np.ones(len(sons), dtype=bool)
    fresh[1:] = (sons[1:] != sons[:-1]).any(axis=1)
    return sons[fresh]


def _check_finite(coords, w, v) -> None:
    """EvaluationError at the first row whose w or v surplus is not finite."""
    bad = np.flatnonzero(~(np.isfinite(w) & np.isfinite(v)))
    if len(bad):
        row = bad[0]
        raise EvaluationError(
            f"surpluses at {coords[row]} are not finite: w={w[row]}, v={v[row]} "
            f"(an output or its square overflows)", coordinate=coords[row],
        )


def _drive(f, dimension, epsilon, init_level, max_level,
           value_source=None, after_level=None, on_level=None,
           region_db=None) -> BuildResult:
    """Shared level loop for conventional, adaptive and spline-backed builds.

    Levels 0..init_level are swept conventionally; from init_level on, only
    sons of nodes with |w| >= epsilon are generated.  Each level is one code
    array: evaluated, given its surpluses, inserted and refined as a whole.
    `value_source(codes)` takes the level's (n, d) code array and returns
    (values, hit mask): cheap values for the rows it can serve, which skip
    the full evaluation, and a mask of those rows (the other values are
    ignored and overwritten).  `after_level(model)` runs after each
    adaptive level is inserted, before the next level's candidates are
    evaluated, and returns counts for the next level's record (a dict of
    LevelRecord fields); `on_level(model, record)` observes every level for
    reporting.

    When a full evaluation fails, or a level's w or v surplus is not finite
    (an output, or its square, overflows), the EvaluationError carries the
    completed levels as `.partial`: a BuildResult with
    stopped_by="evaluation_error" whose frozen model holds every level
    inserted before the failing one.
    """
    clock = time.perf_counter
    model = SurrogateModel(dimension)
    result = BuildResult(model=model, region_db=region_db)
    candidates = np.ones((1, dimension), dtype=np.int64)  # the root
    prepared = {"refine": 0.0, "after_level": 0.0}
    scan_counts = {}
    level = 0
    while len(candidates):
        start = clock()
        coords = coordinates(candidates)
        try:
            if value_source is None:
                values, spline = np.empty(len(coords)), np.zeros(len(coords), dtype=bool)
            else:
                values, spline = value_source(candidates)
            called = clock()
            values[~spline] = f.many(coords[~spline])
            evaluated = clock()
            w, v = model.surpluses_against_prefix(coords, values)
            _check_finite(coords, w, v)
        except EvaluationError as exc:
            model.freeze()
            result.stopped_by = "evaluation_error"
            exc.partial = result
            raise
        surplused = clock()
        model.add_level(candidates, values, w, v, spline)
        inserted = clock()
        abs_w = np.abs(w)
        active = candidates if level < init_level else candidates[abs_w >= epsilon]
        record = LevelRecord(
            level=level,
            candidates=len(candidates),
            full_evaluations=model.full_evaluations,
            spline_interpolations=model.spline_interpolations,
            max_abs_surplus=float(abs_w.max()),
            active=len(active),
            phase_s={"evaluate": called - start, "model": evaluated - called,
                     "surplus": surplused - evaluated,
                     "insert": inserted - surplused, **prepared},
            region_lookups=len(candidates) if value_source is not None else 0,
            spline_hits=int(spline.sum()),
            **scan_counts,
        )
        result.records.append(record)
        if on_level is not None:
            on_level(model, record)
        if level >= max_level:
            result.stopped_by = "level_cap"
            break
        if level >= init_level and not len(active):
            result.stopped_by = "tolerance"
            break
        start = clock()
        scan_counts = {}
        if after_level is not None and level > init_level:
            scan_counts = after_level(model)
        scanned = clock()
        candidates = refine_candidates(active)
        prepared = {"refine": clock() - scanned, "after_level": scanned - start}
        level += 1
    model.freeze()
    return result


def run_csc(f: ModelFunction, d: int, q_max: int, on_level=None) -> BuildResult:
    """Conventional sparse grid build: every point up to level `q_max`.

    Levels count from 0 at the root, so a 1-D build to level 5 evaluates all
    33 nodes of the nested hierarchy.  ValueError, before any model call,
    unless `d` >= 1 and 0 <= `q_max` <= MAX_LEVEL - 1 are integers, the
    cap AdaptiveConfig puts on `max_level`.
    """
    _check_integer("d", d, 1)
    _check_level("q_max", q_max, 0)
    return _drive(f, d, epsilon=math.inf, init_level=q_max, max_level=q_max,
                  on_level=on_level)


def run_asgc(f: ModelFunction, cfg: AdaptiveConfig, on_level=None) -> BuildResult:
    """Adaptive build: conventional sweeps, then surplus-thresholded sons."""
    return _drive(f, cfg.dimension, cfg.epsilon, cfg.init_level, cfg.max_level,
                  on_level=on_level)
