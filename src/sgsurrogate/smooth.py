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

The work is done on arrays, so it scales with the dimension d and the node
count N, not with the number of lines:

- the scan counts each line's nodes by an integer anchor key per node (one
  wrapping int64 weighted sum of its codes per dimension, O(d * N)) and
  groups exactly, and builds LineGroups, only for the lines long enough to
  certify (`min_line_points`);
- the driver hands `value_source(codes)` a level's whole (n, d) code array,
  and it answers with (values, hit mask) from one `RegionDatabase.lookup_many`
  against a per-dimension index of the regions by the same anchor key,
  skipping dimensions without regions, then evaluates each hit region's
  spline once over all of its hits.  `RegionDatabase.lookup` and
  `spline_value` are one-row calls of the same code.

Spline fits are lazy (superseded regions are never fitted) and call LAPACK's
tridiagonal `dgtsv` directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from .adapt import AdaptiveConfig, BuildResult, ModelFunction, _drive
from .core import MAX_LEVEL, GridPoint, SurrogateModel, _row_weights, coordinates, dyadic_codes
from .errors import DimensionMismatchError, InvalidNodeError, SparseGridError

__all__ = [
    "CubicLineSpline",
    "LineGroup",
    "SmoothRegion",
    "RegionDatabase",
    "StoreOutcome",
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
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("knots and values must be finite")
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
    """Knot second derivatives of the clamped cubic spline.

    Solves the tridiagonal system with LAPACK `dgtsv`, the routine
    `solve_banded((1, 1), ...)` calls for it, on the same diagonals.
    """
    h = np.diff(x)
    slope = np.diff(y) / h
    off = h / 6.0
    diag = np.concatenate([[h[0] / 3.0], (h[:-1] + h[1:]) / 3.0, [h[-1] / 3.0]])
    rhs = np.concatenate([[slope[0] - slope_lo], slope[1:] - slope[:-1],
                          [slope_hi - slope[-1]]])
    *_, second, info = dgtsv(off, diag, off, rhs)
    if info:
        raise SparseGridError(f"spline fit failed: singular system (dgtsv info {info})")
    return second


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


def group_lines(m: SurrogateModel, dim: int, min_points: float = 1) -> list[LineGroup]:
    """The lines along dimension `dim` that hold at least `min_points` nodes.

    A line is the set of nodes sharing every coordinate except the one along
    `dim`.  Line sizes are first counted by anchor key, in O(d * N): the
    hash of the node's code row without its own `dim` term (see
    core._row_weights).  Only the nodes whose key has `min_points` members
    are then grouped exactly, by their dyadic anchors, and only the exact
    groups that are long enough are returned.  Equal anchors give equal keys,
    so no long line is missed, and a key collision only sends more nodes to
    the exact grouping.  With the default `min_points` every node lands in
    exactly one group and the multiplicities sum to the node count.  Groups
    are sorted by anchor for deterministic scan order.
    """
    if not 0 <= dim < m.dimension:
        raise ValueError(f"dim {dim} out of range for dimension {m.dimension}")
    codes = m.codes
    weights = _row_weights(m.dimension)
    keys = codes @ weights - codes[:, dim] * weights[dim]
    _, member, size = np.unique(keys, return_inverse=True, return_counts=True)
    rows = np.flatnonzero(size[member] >= min_points)
    if not len(rows):
        return []
    codes = codes[rows]
    num, exp = dyadic_codes(codes)
    others = [k for k in range(m.dimension) if k != dim]
    positions = coordinates(codes[:, dim])
    # anchors compare as tuples of (num, exp) pairs; the position sorts last
    order = np.lexsort([positions] + [a[:, k] for k in reversed(others) for a in (exp, num)])
    anchors = np.stack([num[:, others], exp[:, others]], axis=2)[order]
    starts = np.flatnonzero(np.append(True, (anchors[1:] != anchors[:-1]).any(axis=(1, 2))))
    stops = np.append(starts[1:], len(order))
    long = stops - starts >= min_points
    starts, stops = starts[long], stops[long]
    positions = positions[order]
    outputs = m.outputs[rows][order]
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


def _spline_values(regions, which, t) -> np.ndarray:
    """Spline value of regions[which[i]] at position t[i]; NaN where which[i] < 0.

    Each region's spline is fitted at most once and evaluated once, over all
    of its rows.  Refuses positions outside their region: no extrapolation.
    """
    out = np.full(len(which), np.nan)
    hit = np.flatnonzero(which >= 0)
    hit = hit[np.argsort(which[hit], kind="stable")]
    for rows in np.split(hit, np.flatnonzero(np.diff(which[hit])) + 1):
        if not len(rows):
            continue
        r = regions[which[rows[0]]]
        at = t[rows]
        outside = (at < r.lo) | (at > r.hi)
        if outside.any():
            raise SparseGridError(
                f"position {at[outside][0]} outside region [{r.lo}, {r.hi}]; no extrapolation"
            )
        out[rows] = r.spline(at)
    return out


def spline_value(r: SmoothRegion, t: float) -> float:
    """Spline value of a region at position t along its dimension.

    Exact at every knot; refuses to extrapolate outside the interval.  A
    one-row call of the level-wide evaluation.
    """
    return float(_spline_values([r], np.zeros(1, dtype=np.intp), np.array([t], dtype=float))[0])


def _code_of_dyadic(num, exp):
    """Code of the node at num / 2**exp, the inverse of dyadic_codes; None if none."""
    if (num, exp) == (1, 1):
        return 1
    if exp == 0 and num in (0, 1):
        return 2 + num
    if 2 <= exp < MAX_LEVEL and num % 2 == 1 and 0 < num < 1 << exp:
        return (1 << exp) + num // 2
    return None


def _anchor_row(dim: int, anchor) -> np.ndarray | None:
    """A line's anchor as a code row with 0 at `dim`; None when no node has it."""
    row = [_code_of_dyadic(num, exp) for num, exp in anchor]
    if None in row or not 0 <= dim <= len(row):
        return None
    return np.array(row[:dim] + [0] + row[dim:], dtype=np.int64)


class StoreOutcome(NamedTuple):
    """What RegionDatabase.store did with a region.

    `status` is "created", "covered" (an existing region holds it; nothing
    changed) or "rejected" (a partial overlap with a region at least as long).
    A created region removed `superseded` regions it covers and `displaced`
    shorter ones it partially overlaps.
    """

    status: str
    superseded: int = 0
    displaced: int = 0


class _DimIndex(NamedTuple):
    """The regions along one dimension of d-dimensional nodes, by anchor key.

    Row r is regions[r], whose anchor is the code row anchors[r] (0 at the
    region's dimension) with anchor key keys[r]; rows are sorted by key.
    """

    keys: np.ndarray
    anchors: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    created: np.ndarray
    regions: list


class RegionDatabase:
    """Smooth regions keyed by (dim, anchor), non-overlapping per line.

    Lookups go through a per-dimension index: for each (dim, d) that has
    regions, the regions' anchors as code rows (0 at `dim`) sorted by their
    hash, which is group_lines' anchor key, with their intervals and creation
    order.  `store` drops the index of the dimension it changes and
    `lookup_many` rebuilds it on its next use, so every lookup sees the
    current regions.
    """

    def __init__(self):
        self._lines: dict[tuple, list[SmoothRegion]] = {}
        self._counter = 0
        # (dim, d) -> anchor -> code row of the anchor (None when no node has it)
        self._anchors: dict[tuple[int, int], dict[tuple, np.ndarray | None]] = {}
        self._index: dict[tuple[int, int], _DimIndex] = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self._lines.values())

    def regions(self):
        """All regions, grouped by line in insertion order."""
        for regions in self._lines.values():
            yield from regions

    def store(self, region: SmoothRegion) -> StoreOutcome:
        """Insert a region, enforcing the non-overlap rules of its line.

        An existing superset makes the store a no-op; the new region replaces
        any intervals it covers; a partial overlap keeps the longer interval
        and logs a diagnostic.  Returns what happened.
        """
        key = (region.dim, region.anchor)
        kept = []
        superseded = displaced = 0
        for old in self._lines.get(key, []):
            if old.lo <= region.lo and old.hi >= region.hi:
                return StoreOutcome("covered")  # e.g. an idempotent re-store
            if region.lo <= old.lo and region.hi >= old.hi:
                superseded += 1
                continue
            overlaps = region.lo < old.hi and old.lo < region.hi
            if overlaps:
                if region.half_length > old.half_length:
                    log.debug(
                        "partial overlap on dim %d: replacing [%g, %g] with [%g, %g]",
                        region.dim, old.lo, old.hi, region.lo, region.hi,
                    )
                    displaced += 1
                    continue
                log.debug(
                    "partial overlap on dim %d: keeping [%g, %g], dropping [%g, %g]",
                    region.dim, old.lo, old.hi, region.lo, region.hi,
                )
                return StoreOutcome("rejected")
            kept.append(old)
        region.created_at = self._counter
        self._counter += 1
        kept.append(region)
        kept.sort(key=lambda r: r.lo)
        self._lines[key] = kept
        slot = (region.dim, len(region.anchor) + 1)
        anchors = self._anchors.setdefault(slot, {})
        if region.anchor not in anchors:
            anchors[region.anchor] = _anchor_row(region.dim, region.anchor)
        self._index.pop(slot, None)
        return StoreOutcome("created", superseded, displaced)

    def _dim_index(self, slot: tuple[int, int]) -> _DimIndex:
        index = self._index.get(slot)
        if index is None:
            dim, d = slot
            rows, regions = [], []
            for anchor, row in self._anchors[slot].items():
                if row is not None:
                    for r in self._lines[(dim, anchor)]:
                        rows.append(row)
                        regions.append(r)
            anchors = np.array(rows, dtype=np.int64).reshape(len(rows), d)
            keys = anchors @ _row_weights(d)
            order = np.argsort(keys, kind="stable")
            regions = [regions[k] for k in order.tolist()]
            index = _DimIndex(
                keys[order], anchors[order],
                np.array([r.lo for r in regions]), np.array([r.hi for r in regions]),
                np.array([r.created_at for r in regions], dtype=np.int64), regions,
            )
            self._index[slot] = index
        return index

    def lookup_many(self, codes) -> tuple[list[SmoothRegion], np.ndarray, np.ndarray]:
        """The region holding each row of an (n, d) array of node codes.

        Returns (regions, which, t): row i lies in regions[which[i]] at
        position t[i] along that region's dimension, or in no region when
        which[i] is -1 (t[i] is then 0).  A row matches a region when its
        other coordinates equal the region's anchor exactly and its position
        lies in the region's closed interval; among several matches, along
        one dimension or several, the earliest-created region wins.
        Dimensions without regions are skipped.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise DimensionMismatchError(
                f"expected an (n, d) code array, got shape {codes.shape}")
        n, d = codes.shape
        which = np.full(n, -1, dtype=np.intp)
        t = np.zeros(n)
        slots = [(dim, d) for dim in range(d) if (dim, d) in self._anchors]
        if not (slots and n):
            return [], which, t
        weights = _row_weights(d)
        sums = codes @ weights
        pool, found = [], []
        for dim, _ in slots:
            index = self._dim_index((dim, d))
            keys = sums - codes[:, dim] * weights[dim]
            first = np.searchsorted(index.keys, keys, "left")
            count = np.searchsorted(index.keys, keys, "right") - first
            if not count.any():
                continue
            rows = np.repeat(np.arange(n), count)
            cand = np.arange(len(rows)) + np.repeat(first - (np.cumsum(count) - count), count)
            anchors = codes[rows]
            anchors[:, dim] = 0
            at = coordinates(codes[rows, dim])
            hit = ((anchors == index.anchors[cand]).all(axis=1)
                   & (index.lo[cand] <= at) & (at <= index.hi[cand]))
            cand = cand[hit]
            found.append((rows[hit], index.created[cand], cand + len(pool), at[hit]))
            pool.extend(index.regions)
        if not found:
            return [], which, t
        rows, created, gid, at = (np.concatenate(a) for a in zip(*found))
        order = np.lexsort((created, rows))  # per row, earliest-created first
        rows, gid, at = rows[order], gid[order], at[order]
        best = np.ones(len(rows), dtype=bool)
        best[1:] = rows[1:] != rows[:-1]
        used, pick = np.unique(gid[best], return_inverse=True)
        which[rows[best]] = pick
        t[rows[best]] = at[best]
        return [pool[g] for g in used.tolist()], which, t

    def lookup(self, p):
        """Region containing node `p` along some dimension, or None.

        `p` is a GridPoint or its exact dyadic key (GridPoint.key); returns
        (region, position).  A one-row call of `lookup_many`, with its
        matching and tie rules.
        """
        key = p.key if isinstance(p, GridPoint) else p
        row = [_code_of_dyadic(num, exp) for num, exp in key]
        if None in row:
            raise InvalidNodeError(f"{key} is not the dyadic key of a node")
        regions, which, t = self.lookup_many(np.array([row], dtype=np.int64))
        if which[0] < 0:
            return None
        return regions[which[0]], float(t[0])


# ---------------------------------------------------------------------------
# the spline-accelerated adaptive driver
# ---------------------------------------------------------------------------

_SCAN_COUNTS = ("lines_scanned", "regions_created", "regions_superseded",
                "regions_displaced", "regions_rejected")


def _scan_and_store(db: RegionDatabase, model: SurrogateModel,
                    slope_tol: float, min_points: float) -> dict:
    """One full pass: scan the long lines of every dimension, update the database.

    Returns the pass's counts under the LevelRecord field names: lines
    scanned, and regions created, superseded, displaced and rejected.
    """
    counts = dict.fromkeys(_SCAN_COUNTS, 0)
    if math.isinf(min_points):
        return counts
    for dim in range(model.dimension):
        lines = group_lines(model, dim, min_points)
        counts["lines_scanned"] += len(lines)
        for g in lines:
            for start, stop in derivative_scan(g, slope_tol, min_points):
                outcome = db.store(SmoothRegion(
                    dim=dim,
                    anchor=g.anchor,
                    knots=g.positions[start:stop].copy(),
                    outputs=g.outputs[start:stop].copy(),
                ))
                counts["regions_created"] += outcome.status == "created"
                counts["regions_rejected"] += outcome.status == "rejected"
                counts["regions_superseded"] += outcome.superseded
                counts["regions_displaced"] += outcome.displaced
    return counts


def run_easgc(f: ModelFunction, cfg: AdaptiveConfig, on_level=None) -> BuildResult:
    """Adaptive build with cubic-spline substitution in certified regions.

    Takes the same config as run_asgc; calling this driver is what selects
    the spline-backed method, and only it reads the line-scan settings
    `min_line_points` and `slope_tol`.  Control flow is identical to
    run_asgc except that each level's candidates are first looked up in the
    region database, all at once: hits take the spline value (without
    touching the evaluation counter), misses get full evaluations, and both
    feed the same surplus threshold.  After each adaptive level the line scan
    refreshes the database for the next level's candidates.
    """
    db = RegionDatabase()

    def value_source(codes):
        regions, which, t = db.lookup_many(codes)
        return _spline_values(regions, which, t), which >= 0

    def after_level(model: SurrogateModel, level: int) -> dict:
        return _scan_and_store(db, model, cfg.slope_tol, cfg.min_line_points)

    return _drive(
        f, cfg.dimension, cfg.epsilon, cfg.init_level, cfg.max_level,
        value_source=value_source, after_level=after_level, on_level=on_level,
        region_db=db,
    )
