"""Smooth-line detection and cubic-spline substitution for adaptive builds.

After each adaptive level, the model's points are projected along every
dimension; points sharing all other coordinates form a 1-D line.  Lines with
enough samples get a finite-difference slope scan over their (generally
non-uniform) spacing.  Wherever successive slopes change by less than a
tolerance, scaled by the line's output magnitude, the knot run is certified
smooth and stored as a region carrying an interpolating cubic spline.  Candidates
of later levels that fall inside a stored region take their value from the
spline instead of a full model evaluation; they enter the surplus hierarchy
exactly like evaluated nodes, and their squared spline value feeds the
variance surpluses.

Regions on the same line never overlap: a newly certified superset replaces
its subsets, and on a genuine partial overlap the longer interval wins (with
a diagnostic logged).  Lookups that match several dimensions resolve to the
earliest-created region.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .adapt import AdaptiveConfig, BuildResult, ModelFunction, _drive
from .core import GridPoint, SurrogateModel, coordinates, dyadic_codes
from .errors import SparseGridError

__all__ = [
    "CubicLineSpline",
    "LineGroup",
    "SmoothRegion",
    "RegionDatabase",
    "group_lines",
    "derivative_scan",
    "spline_value",
    "run_easgc",
]

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# cubic spline over a certified line
# ---------------------------------------------------------------------------

def _endpoint_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Derivative at x[0] of the Newton polynomial through the given knots.

    Divided differences keep this stable for the tiny knot spacings deep
    refinement produces.
    """
    n = x.size
    dd = y.astype(float).copy()
    coeffs = [dd[0]]
    for order in range(1, n):
        dd = (dd[1:] - dd[:-1]) / (x[order:] - x[:-order])
        coeffs.append(dd[0])
    slope = 0.0
    prod = 1.0
    for j in range(1, n):
        slope += coeffs[j] * prod
        prod *= x[0] - x[j]
    return slope


class CubicLineSpline:
    """Cubic interpolating spline with end slopes estimated from the data.

    End derivatives come from one-sided polynomial fits through the nearest
    min(5, n) knots, and the spline is clamped to them.  This keeps the
    construction derivative-free while matching the sharp h^4 error constant
    of complete splines, which the plain not-a-knot condition misses in its
    end intervals; cubic polynomials are still reproduced exactly.  Needs at
    least 4 strictly increasing knots.
    """

    def __init__(self, knots, values):
        x = np.asarray(knots, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("knots and values must be 1-D arrays of equal length")
        if x.size < 4:
            raise ValueError(f"need at least 4 knots, got {x.size}")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knots must be strictly increasing")
        self.knots = x
        self.values = y
        k = min(5, x.size)
        slope_lo = _endpoint_slope(x[:k], y[:k])
        slope_hi = _endpoint_slope(x[-k:][::-1], y[-k:][::-1])
        self.second_derivs = _clamped_second_derivatives(x, y, slope_lo, slope_hi)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        x, y, m = self.knots, self.values, self.second_derivs
        i = np.clip(np.searchsorted(x, tt) - 1, 0, x.size - 2)
        h = x[i + 1] - x[i]
        a = (x[i + 1] - tt) / h
        b = (tt - x[i]) / h
        out = (
            a * y[i] + b * y[i + 1]
            + ((a ** 3 - a) * m[i] + (b ** 3 - b) * m[i + 1]) * h * h / 6.0
        )
        return float(out[0]) if scalar else out


def _clamped_second_derivatives(x, y, slope_lo, slope_hi) -> np.ndarray:
    """Knot second derivatives of the clamped cubic spline (tridiagonal solve)."""
    n = x.size
    h = np.diff(x)
    slope = np.diff(y) / h
    ab = np.zeros((3, n))
    rhs = np.zeros(n)
    ab[1, 0] = h[0] / 3.0
    ab[0, 1] = h[0] / 6.0
    rhs[0] = slope[0] - slope_lo
    ab[1, 1:-1] = (h[:-1] + h[1:]) / 3.0
    ab[0, 2:] = h[1:] / 6.0
    ab[2, :-2] = h[:-1] / 6.0
    rhs[1:-1] = slope[1:] - slope[:-1]
    ab[1, n - 1] = h[-1] / 3.0
    ab[2, n - 2] = h[-1] / 6.0
    rhs[n - 1] = slope_hi - slope[-1]
    return solve_banded((1, 1), ab, rhs)


# ---------------------------------------------------------------------------
# line grouping and the derivative scan
# ---------------------------------------------------------------------------

@dataclass
class LineGroup:
    """All stored nodes sharing every coordinate except the one along `dim`."""

    dim: int
    anchor: tuple[tuple[int, int], ...]  # exact dyadic coords of the other dims
    positions: np.ndarray  # sorted strictly ascending along `dim`
    outputs: np.ndarray

    @property
    def multiplicity(self) -> int:
        return len(self.positions)


def group_lines(m: SurrogateModel, dim: int) -> list[LineGroup]:
    """Partition the model's nodes into lines along dimension `dim`.

    Every node lands in exactly one group; the multiplicities sum to the node
    count.  Groups are sorted by anchor for deterministic scan order.
    """
    if not 0 <= dim < m.dimension:
        raise ValueError(f"dim {dim} out of range for dimension {m.dimension}")
    if len(m) == 0:
        return []
    num, exp = dyadic_codes(m.codes)
    others = [k for k in range(m.dimension) if k != dim]
    positions = coordinates(m.codes[:, dim])
    # anchors compare as tuples of (num, exp) pairs; the position sorts last
    order = np.lexsort([positions] + [a[:, k] for k in reversed(others) for a in (exp, num)])
    anchors = np.stack([num[:, others], exp[:, others]], axis=2)[order]
    starts = np.flatnonzero(np.append(True, (anchors[1:] != anchors[:-1]).any(axis=(1, 2))))
    stops = np.append(starts[1:], len(order))
    positions = positions[order]
    outputs = m.outputs[order]
    return [
        LineGroup(dim=dim, anchor=tuple(map(tuple, anchor)),
                  positions=positions[lo:hi], outputs=outputs[lo:hi])
        for anchor, lo, hi in zip(anchors[starts].tolist(), starts.tolist(), stops.tolist())
    ]


def derivative_scan(g: LineGroup, slope_tol: float, min_points: float) -> list[tuple[int, int]]:
    """Find smooth knot runs of a line by successive finite-difference slopes.

    Slopes use the true (non-uniform) spacing.  A junction between two
    consecutive segments breaks the line when the slope change exceeds
    slope_tol * max(1, max |output| on the line).  Returns maximal unbroken
    runs as (start, stop) index pairs (stop exclusive), keeping only runs of
    at least 4 knots; a break knot terminates one run and starts the next.
    Lines with fewer than `min_points` samples yield no runs.
    """
    n = g.multiplicity
    if n < min_points or n < 4:
        return []
    slopes = np.diff(g.outputs) / np.diff(g.positions)
    scale = max(1.0, float(np.max(np.abs(g.outputs))))
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


# ---------------------------------------------------------------------------
# the region database
# ---------------------------------------------------------------------------

@dataclass
class SmoothRegion:
    """A certified smooth 1-D interval along `dim` at fixed other coordinates.

    Carries the knot inputs, knot outputs, interval midpoint and half-length,
    plus the fitted spline (built on first use, since superseded candidate
    regions are never evaluated).  `created_at` orders regions for lookup
    tie-breaking across dimensions.
    """

    dim: int
    anchor: tuple[tuple[int, int], ...]
    knots: np.ndarray
    outputs: np.ndarray
    created_at: int = 0
    _spline: CubicLineSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.knots) < 4:
            raise SparseGridError(f"region needs >= 4 knots, got {len(self.knots)}")
        if np.any(np.diff(self.knots) <= 0):
            raise SparseGridError("region knots must be strictly increasing")

    @property
    def spline(self) -> CubicLineSpline:
        if self._spline is None:
            self._spline = CubicLineSpline(self.knots, self.outputs)
        return self._spline

    @property
    def midpoint(self) -> float:
        return float((self.knots[0] + self.knots[-1]) / 2.0)

    @property
    def half_length(self) -> float:
        return float((self.knots[-1] - self.knots[0]) / 2.0)

    @property
    def lo(self) -> float:
        return float(self.knots[0])

    @property
    def hi(self) -> float:
        return float(self.knots[-1])


def spline_value(r: SmoothRegion, t: float) -> float:
    """Spline value of a region at position t along its dimension.

    Exact at every knot; refuses to extrapolate outside the interval.
    """
    if t < r.lo or t > r.hi:
        raise SparseGridError(
            f"position {t} outside region [{r.lo}, {r.hi}]; no extrapolation"
        )
    return float(r.spline(t))


class RegionDatabase:
    """Smooth regions keyed by (dim, anchor), non-overlapping per line."""

    def __init__(self):
        self._lines: dict[tuple, list[SmoothRegion]] = {}
        self._counter = 0

    def __len__(self) -> int:
        return sum(len(v) for v in self._lines.values())

    def regions(self):
        """All regions, grouped by line in insertion order."""
        for regions in self._lines.values():
            yield from regions

    def store(self, region: SmoothRegion) -> None:
        """Insert a region, enforcing the non-overlap rules of its line.

        An existing superset makes the store a no-op; the new region replaces
        any intervals it covers; a partial overlap keeps the longer interval
        and logs a diagnostic.
        """
        key = (region.dim, region.anchor)
        kept = []
        for old in self._lines.get(key, []):
            if old.lo <= region.lo and old.hi >= region.hi:
                return  # covered by an existing region (idempotent re-store)
            if region.lo <= old.lo and region.hi >= old.hi:
                continue  # superseded by the new interval
            overlaps = region.lo < old.hi and old.lo < region.hi
            if overlaps:
                if region.half_length > old.half_length:
                    log.debug(
                        "partial overlap on dim %d: replacing [%g, %g] with [%g, %g]",
                        region.dim, old.lo, old.hi, region.lo, region.hi,
                    )
                    continue
                log.debug(
                    "partial overlap on dim %d: keeping [%g, %g], dropping [%g, %g]",
                    region.dim, old.lo, old.hi, region.lo, region.hi,
                )
                return
            kept.append(old)
        region.created_at = self._counter
        self._counter += 1
        kept.append(region)
        kept.sort(key=lambda r: r.lo)
        self._lines[key] = kept

    def lookup(self, p):
        """Region containing node `p` along some dimension, or None.

        `p` is a GridPoint or its exact dyadic key (GridPoint.key).  Matches
        require exact dyadic equality of all other coordinates and interval
        containment along the region's dimension.  Among several matches the
        earliest-created region wins.
        """
        key = p.key if isinstance(p, GridPoint) else p
        best = None
        best_t = None
        for dim in range(len(key)):
            anchor = key[:dim] + key[dim + 1:]
            regions = self._lines.get((dim, anchor))
            if not regions:
                continue
            num, exp = key[dim]
            t = num / (1 << exp)
            for region in regions:
                if region.lo <= t <= region.hi:
                    if best is None or region.created_at < best.created_at:
                        best, best_t = region, t
        if best is None:
            return None
        return best, best_t


# ---------------------------------------------------------------------------
# the spline-accelerated adaptive driver
# ---------------------------------------------------------------------------

def _scan_and_store(db: RegionDatabase, model: SurrogateModel,
                    slope_tol: float, min_points: float) -> None:
    """One full pass: scan every line of every dimension, update the database."""
    if math.isinf(min_points):
        return
    for dim in range(model.dimension):
        for g in group_lines(model, dim):
            for start, stop in derivative_scan(g, slope_tol, min_points):
                db.store(SmoothRegion(
                    dim=dim,
                    anchor=g.anchor,
                    knots=g.positions[start:stop].copy(),
                    outputs=g.outputs[start:stop].copy(),
                ))


def run_easgc(f: ModelFunction, cfg: AdaptiveConfig, on_level=None) -> BuildResult:
    """Adaptive build with cubic-spline substitution in certified regions.

    Takes the same config as run_asgc; calling this driver is what selects
    the spline-backed method, and only it reads the line-scan settings
    `min_line_points` and `slope_tol`.  Control flow is identical to
    run_asgc except that every candidate is first checked against the region
    database: hits take the spline value (without touching the evaluation
    counter), misses get full evaluations, and both feed the same surplus
    threshold.  After each adaptive level the line scan refreshes the
    database for the next level's candidates.
    """
    db = RegionDatabase()

    def value_source(key):
        hit = db.lookup(key)
        if hit is None:
            return None
        region, t = hit
        return spline_value(region, t)

    def after_level(model: SurrogateModel, level: int) -> None:
        _scan_and_store(db, model, cfg.slope_tol, cfg.min_line_points)

    return _drive(
        f, cfg.dimension, cfg.epsilon, cfg.init_level, cfg.max_level,
        value_source=value_source, after_level=after_level, on_level=on_level,
        region_db=db,
    )
