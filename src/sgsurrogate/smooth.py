"""Smooth-line detection and cubic-spline substitution for adaptive builds.

After each adaptive level, the model's points are projected along every
dimension; points sharing all other coordinates form a 1-D line.  Lines with
enough samples get a finite-difference slope scan over their (generally
non-uniform) spacing.  Wherever successive slopes change by less than a
tolerance times the line's largest |output|, a limit in the outputs' own
unit, the knot run is certified smooth and stored as a region carrying an
interpolating cubic spline.  Candidates of later levels that fall inside a
stored region take their value from the spline instead of a full model
evaluation; they enter the surplus hierarchy exactly like evaluated nodes,
and their squared spline value feeds the variance surpluses.

Regions on the same line never overlap: a newly certified superset replaces
its subsets, and on a genuine partial overlap the longer interval wins (with
a diagnostic logged).  A RegionDatabase(d) holds the regions of one model of
node dimension d, and keeps them in creation order: lookups that match
several dimensions resolve to the earliest-created region, and files list
the regions in that order.  A region is only its data; its place in that
order belongs to the database that stored it.

A line is named by its anchor: the codes of its nodes in the other d - 1
dimensions, as the model's code rows hold them.  The scan carries anchors
inside code rows, regions as tuples of codes, and the database indexes them
as code rows; only the text files (io) write them as dyadic coordinates.

The work is done on arrays, in one pass per dimension or per level, so it
scales with the dimension d and the node count N, not with the number of
lines, runs or regions.  Every step gives bitwise the values, regions and
files of the same step taken one line or one region at a time:

- The scan hashes every node's code row once per pass (a wrapping int64
  weighted sum, see core._row_weights).  A node's anchor key along a
  dimension is that hash minus its own term, so the keys of all d
  dimensions cost O(d * N).  Nodes are counted per key, and only the lines
  long enough to certify (`min_line_points`) are grouped exactly; a key
  collision sends more nodes to the exact grouping and never loses a line.
  `group_lines` wraps the lines of one dimension in LineGroups on request.
- The derivative scan of one dimension runs over all its long lines laid
  end to end: slopes and slope changes are formed only between knots of one
  line, with each line's own scale from `np.maximum.reduceat`, by the same
  operations as the one-line scan, so the breaks and runs are the same.
  `derivative_scan` is a one-line call of it.
- A run is stored in its turn, and skipped before a SmoothRegion is built
  when a region of its line covers it then: `store`, which starts with the
  same cover test, would find it covered and change nothing.
- The driver hands `value_source(codes, coords)` a level's whole (n, d)
  code array and its coordinates, and it answers with (values, hit mask)
  from one `RegionDatabase.lookup_many`.  The driver's one `split_codes`
  of the level has checked the codes already, so that call splits nothing:
  it reads the matched rows' positions from the coordinates (a caller's own
  codes are checked by taking their coordinates).  It lays the regions
  out in creation order, and sorts each dimension's by the
  same anchor key, inline and afresh on every call.  The hit regions not
  yet fitted (fits are lazy: superseded regions are never fitted) are
  fitted together: their end slopes come from divided differences over
  (R, k) knot arrays, and one NumPy solve takes all their tridiagonal
  systems at once, bitwise as LAPACK `dgtsv` solving each alone
  (`_solve_tridiagonal` says why), so the smooth layer needs no SciPy.
  Every hit row is then evaluated at once, its knot interval found by a
  vectorised bisection.  `RegionDatabase.lookup` and `spline_value` are
  one-row calls of the same code, with the same refusals.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .adapt import AdaptiveConfig, BuildResult, ModelFunction, _drive
from .core import (
    SurrogateModel, _check_dimension, _code_array, _is_code, _is_integer, _row_weights,
    coordinates, dyadic_codes,
)
from .errors import InvalidNodeError, SparseGridError

__all__ = [
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
# cubic splines over certified lines, fitted and evaluated in batches
# ---------------------------------------------------------------------------

def _endpoint_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative at x[:, 0] of the Newton polynomial through each row's knots.

    `x` and `y` are (R, k) arrays, one polynomial per row.  Divided
    differences keep this stable for the tiny knot spacings deep refinement
    produces.
    """
    dd = y.astype(float)
    coeffs = [dd[:, 0]]
    for order in range(1, x.shape[1]):
        dd = (dd[:, 1:] - dd[:, :-1]) / (x[:, order:] - x[:, :-order])
        coeffs.append(dd[:, 0])
    slope = 0.0
    prod = 1.0
    for j in range(1, x.shape[1]):
        slope = slope + coeffs[j] * prod
        prod = prod * (x[:, 0] - x[:, j])
    return slope


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal systems held in the columns of (L, R) arrays.

    Column r is one system: diag[:, r] its diagonal, off[i, r] the coupling
    of rows i and i + 1 (off[L - 1] is not read) and rhs[:, r] its
    right-hand side.  `diag` and `rhs` are overwritten; `rhs`, returned,
    holds the solutions.  The steps are those of LAPACK's `dgtsv` on one
    system when it swaps no rows (the routine `solve_banded((1, 1), ...)`
    calls), in its order, row by row over all columns at once, so each
    column is bitwise the solution `dgtsv` gives:

        forward, i = 0 .. L-2:  f = off[i] / diag[i]
                                diag[i+1] -= f * off[i];  rhs[i+1] -= f * rhs[i]
        back:  rhs[L-1] /= diag[L-1]
               rhs[L-2] = (rhs[L-2] - off[L-2] * rhs[L-1]) / diag[L-2]
               rhs[i] = (rhs[i] - off[i] * rhs[i+1] - 0.0 * rhs[i+2]) / diag[i],  i = L-3 .. 0

    The last term is `dgtsv`'s zeroed fill-in times rhs[i+2]: it turns a -0
    into +0 where `dgtsv` does.  A zero pivot, or a row where `dgtsv` would
    swap rows (|diag[i]| < |off[i]|), raises SparseGridError: such a system
    is refused rather than solved another way.

    Systems shorter than L are padded below with identity rows of zero
    coupling and zero right-hand side.  Every product that reaches into the
    padding multiplies a zero coupling or the zero fill-in by a +0 padding
    value, so it subtracts +0 and leaves each system's solution, the sign
    of a zero included, bitwise as `dgtsv` solving that system alone.
    """
    size = len(diag)
    d, e, b = list(diag), list(off), list(rhs)  # row views, made once
    f, t = np.empty(diag.shape[1]), np.empty(diag.shape[1])
    # about 10 ufunc calls per row: local names and positional `out` keep
    # each call's overhead down
    div, mul, sub = np.divide, np.multiply, np.subtract
    with np.errstate(all="ignore"):  # a refused system may divide by zero
        for i in range(size - 1):
            div(e[i], d[i], f)
            sub(d[i + 1], mul(f, e[i], t), d[i + 1])
            sub(b[i + 1], mul(f, b[i], t), b[i + 1])
        # diag[i] is the pivot `dgtsv` checks at step i: later steps leave it
        swap = ~(np.abs(diag[:-1]) >= np.abs(off[:-1]))
        if swap.any():
            i, r = np.argwhere(swap)[0]
            raise SparseGridError(f"tridiagonal solve refused: row {i} of system {r} "
                                  f"would need a row interchange")
        if not diag.all():
            i, r = np.argwhere(diag == 0.0)[0]
            raise SparseGridError(f"tridiagonal solve refused: zero pivot in row {i} "
                                  f"of system {r}")
        div(b[-1], d[-1], b[-1])
        if size > 1:
            sub(b[-2], mul(e[-2], b[-1], t), b[-2])
            div(b[-2], d[-2], b[-2])
        for i in range(size - 3, -1, -1):
            sub(b[i], mul(e[i], b[i + 1], t), b[i])
            sub(b[i], mul(b[i + 2], 0.0, t), b[i])
            div(b[i], d[i], b[i])
    return rhs


def _second_derivatives(knots: list, values: list) -> list[np.ndarray]:
    """Knot second derivatives of the clamped cubic spline of each knot set.

    End slopes come from `_endpoint_slopes` over the nearest min(5, n) knots
    of each end: one-sided polynomial fits, which keep the construction
    derivative-free while matching the sharp h^4 error constant of complete
    splines (the plain not-a-knot condition misses it in the end intervals),
    and still reproduce cubics exactly.  The tridiagonal systems are solved
    together by `_solve_tridiagonal`, as the padded columns of (longest knot
    set, knot sets) arrays, bitwise as `dgtsv` solving each knot set alone.
    """
    n = np.array([len(x) for x in knots])
    x, y = np.concatenate(knots), np.concatenate(values)
    first = np.cumsum(n) - n
    last = first + n - 1
    slope_lo, slope_hi = np.empty(len(n)), np.empty(len(n))
    for k in (4, 5):
        sel = np.flatnonzero(np.minimum(5, n) == k)
        lo = first[sel, None] + np.arange(k)
        hi = last[sel, None] - np.arange(k)
        slope_lo[sel] = _endpoint_slopes(x[lo], y[lo])
        slope_hi[sel] = _endpoint_slopes(x[hi], y[hi])
    inner = np.ones(len(x) - 1, dtype=bool)  # knot gaps inside one knot set
    inner[last[:-1]] = False
    gap = np.flatnonzero(inner)
    h = x[gap + 1] - x[gap]
    slope = (y[gap + 1] - y[gap]) / h
    h_left, h_right = np.zeros(len(x)), np.zeros(len(x))
    h_left[gap + 1] = h_right[gap] = h
    s_left, s_right = np.empty(len(x)), np.empty(len(x))
    s_left[first], s_right[last] = slope_lo, slope_hi
    s_left[gap + 1] = s_right[gap] = slope
    # knot i of set r sits in row i of column r: flat index i * R + r
    column = np.repeat(np.arange(len(n)), n)
    at = (np.arange(len(x)) - first[column]) * len(n) + column
    shape = (n.max(), len(n))
    diag, rhs, off = np.ones(shape), np.zeros(shape), np.zeros(shape)
    diag.ravel()[at] = (h_left + h_right) / 3.0
    rhs.ravel()[at] = s_right - s_left
    off.ravel()[at[gap]] = h / 6.0
    second = _solve_tridiagonal(diag, off, rhs).ravel()[at]
    return np.split(second, np.cumsum(n)[:-1])


def _spline_at(x, y, m, first, count, t) -> np.ndarray:
    """Value at t[i] of the spline with knots x[first[i]:first[i] + count[i]].

    `y` holds the knot values and `m` the knot second derivatives.  Each
    row's knot interval is found by a vectorised bisection that counts the
    knots below t[i], as `searchsorted` does; positions outside the knots
    use the end intervals.
    """
    lo, size = first.copy(), count.copy()
    while size.any():
        half = size // 2
        below = (size > 0) & (x[np.minimum(lo + half, len(x) - 1)] < t)
        lo = np.where(below, lo + half + 1, lo)
        size = np.where(below, size - half - 1, half)
    i = np.clip(lo - 1, first, first + count - 2)
    h = x[i + 1] - x[i]
    a = (x[i + 1] - t) / h
    b = (t - x[i]) / h
    return (
        a * y[i] + b * y[i + 1]
        + ((a ** 3 - a) * m[i] + (b ** 3 - b) * m[i + 1]) * h * h / 6.0
    )


# ---------------------------------------------------------------------------
# line grouping and the derivative scan
# ---------------------------------------------------------------------------

@dataclass
class LineGroup:
    """All stored nodes sharing every coordinate except the one along `dim`."""

    dim: int
    anchor: tuple[int, ...]  # the codes of the other d - 1 dimensions
    positions: np.ndarray  # sorted strictly ascending along `dim`
    outputs: np.ndarray

    @property
    def multiplicity(self) -> int:
        return len(self.positions)


class _Lines(NamedTuple):
    """The long lines along one dimension, laid end to end in scan order.

    Line i holds positions[bounds[i]:bounds[i + 1]] (ascending) and the
    matching outputs; anchors[i] is its anchor, the codes of its nodes in
    every dimension but the line's.
    """

    positions: np.ndarray
    outputs: np.ndarray
    bounds: np.ndarray
    anchors: np.ndarray


def _long_lines(m: SurrogateModel, dim: int, min_points: float,
                sums: np.ndarray, weights: np.ndarray) -> _Lines:
    """The lines along `dim` with at least `min_points` nodes; see group_lines.

    `sums` is the hash of every code row, `m.codes @ weights`: a node's
    anchor key is its row's hash minus the row's own `dim` term, so one hash
    serves every dimension.
    """
    codes = m.codes
    keys = sums - codes[:, dim] * weights[dim]
    _, member, size = np.unique(keys, return_inverse=True, return_counts=True)
    rows = np.flatnonzero(size[member] >= min_points)
    if not len(rows):
        empty = np.zeros(0)
        return _Lines(empty, empty, np.zeros(1, dtype=np.intp), codes[:0, 1:])
    codes = codes[rows]
    num, exp = dyadic_codes(codes)
    others = [k for k in range(m.dimension) if k != dim]
    positions = np.ldexp(num[:, dim], -exp[:, dim])  # coordinates(), without a second split
    # lines sort by their anchors' exact coordinates, as tuples of (num, exp)
    # pairs, which fixes the order of region creation; the position sorts last
    order = np.lexsort([positions] + [a[:, k] for k in reversed(others) for a in (exp, num)])
    anchors = codes[order][:, others]
    starts = np.flatnonzero(np.append(True, (anchors[1:] != anchors[:-1]).any(axis=1)))
    stops = np.append(starts[1:], len(order))
    long = stops - starts >= min_points
    starts, stops = starts[long], stops[long]
    bounds = np.append(0, np.cumsum(stops - starts))
    take = order[np.repeat(starts - bounds[:-1], stops - starts) + np.arange(bounds[-1])]
    return _Lines(positions[take], m.outputs[rows[take]], bounds, anchors[starts])


def group_lines(m: SurrogateModel, dim: int, min_points: float = 1) -> list[LineGroup]:
    """The lines along dimension `dim` that hold at least `min_points` nodes.

    A line is the set of nodes sharing every coordinate except the one along
    `dim`.  Line sizes are first counted by anchor key, in O(d * N): the
    hash of the node's code row without its own `dim` term (see
    core._row_weights).  Only the nodes whose key has `min_points` members
    are then grouped exactly, by their anchors' codes, and only the exact
    groups that are long enough are returned.  Equal anchors give equal keys,
    so no long line is missed, and a key collision only sends more nodes to
    the exact grouping.  With the default `min_points` every node lands in
    exactly one group and the multiplicities sum to the node count.  Groups
    are sorted by their anchors' coordinates for deterministic scan order.
    """
    if not 0 <= dim < m.dimension:
        raise ValueError(f"dim {dim} out of range for dimension {m.dimension}")
    weights = _row_weights(m.dimension)
    lines = _long_lines(m, dim, min_points, m.codes @ weights, weights)
    bounds = lines.bounds.tolist()
    return [
        LineGroup(dim=dim, anchor=tuple(anchor), positions=lines.positions[lo:hi],
                  outputs=lines.outputs[lo:hi])
        for anchor, lo, hi in zip(lines.anchors.tolist(), bounds[:-1], bounds[1:])
    ]


def _smooth_runs(positions: np.ndarray, outputs: np.ndarray, bounds: np.ndarray,
                 slope_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The derivative scan of many lines laid end to end, in one pass.

    Line i holds positions[bounds[i]:bounds[i + 1]], strictly ascending.
    Returns the (start, stop) index arrays of every line's runs into the
    concatenation, in line order, exactly as `derivative_scan` finds them
    line by line.  Slopes and slope changes are only formed between knots
    of one line.
    """
    n = len(positions)
    lines = len(bounds) - 1
    if not lines:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    inner = np.ones(n, dtype=bool)  # knots that are neither first nor last of a line
    inner[bounds[:-1]] = inner[bounds[1:] - 1] = False
    within = np.ones(max(n - 1, 0), dtype=bool)  # knot gaps inside one line
    within[bounds[1:-1] - 1] = False
    gap = np.flatnonzero(within)
    slopes = np.zeros(len(within))
    slopes[gap] = (outputs[gap + 1] - outputs[gap]) / (positions[gap + 1] - positions[gap])
    scale = np.maximum.reduceat(np.abs(outputs), bounds[:-1])
    limit = np.repeat(slope_tol * scale, np.diff(bounds))
    knot = np.flatnonzero(inner)
    breaks = knot[np.abs(slopes[knot] - slopes[knot - 1]) > limit[knot]]
    # a run goes from a line start or break to the next break (inclusive) or line end
    start = np.sort(np.concatenate([bounds[:-1], breaks]))
    stop = np.sort(np.concatenate([breaks + 1, bounds[1:]]))
    long = stop - start >= 4
    return start[long], stop[long]


def derivative_scan(g: LineGroup, slope_tol: float, min_points: float) -> list[tuple[int, int]]:
    """Find smooth knot runs of a line by successive finite-difference slopes.

    Slopes use the true (non-uniform) spacing.  A junction between two
    consecutive segments breaks the line when the slope change exceeds
    slope_tol * max |output| on the line.  The limit has the outputs' unit,
    as the slopes do, so scaling the outputs by a power of 2 scales both
    alike and finds the same runs.  Returns maximal unbroken
    runs as (start, stop) index pairs (stop exclusive), keeping only runs of
    at least 4 knots; a break knot terminates one run and starts the next.
    Lines with fewer than `min_points` samples yield no runs.  A one-line
    call of the batched scan.
    """
    bounds = np.array([0, g.multiplicity] if g.multiplicity >= min_points else [0])
    start, stop = _smooth_runs(np.asarray(g.positions, dtype=float),
                               np.asarray(g.outputs, dtype=float), bounds, slope_tol)
    return list(zip(start.tolist(), stop.tolist()))


# ---------------------------------------------------------------------------
# the region database
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SmoothRegion:
    """A certified smooth 1-D interval along `dim` at fixed other coordinates.

    Carries the knot inputs and knot outputs, plus the spline's knot second
    derivatives (fitted on first use, since superseded candidate regions are
    never evaluated); the fit sets them, so they are no constructor
    argument.  Regions compare and hash by identity, as the database holds
    them.  The anchor holds the codes of the other d - 1 dimensions, stored
    as a tuple of ints; knots and outputs are stored as float arrays, and
    the interval's ends as the floats `lo` and `hi`.
    Anchors that are not node codes, a `dim` that is not an integer in
    [0, len(anchor)], and malformed knots or outputs are refused at
    construction; the line scan, whose fields come from checked model
    arrays, builds its regions with _scanned_region instead, and
    load_surrogate, whose anchors are codes of nodes already, with
    _loaded_region.
    """

    dim: int
    anchor: tuple[int, ...]
    knots: np.ndarray
    outputs: np.ndarray
    _second_derivs: np.ndarray | None = field(default=None, init=False, repr=False)
    lo: float = field(init=False, repr=False)
    hi: float = field(init=False, repr=False)

    def __post_init__(self):
        try:
            self.anchor = tuple(map(operator.index, self.anchor))
        except TypeError as exc:
            raise InvalidNodeError(f"region anchor {self.anchor!r} holds a non-integer") from exc
        if not all(map(_is_code, self.anchor)):
            raise InvalidNodeError(f"region anchor {self.anchor} holds a code of no node")
        self._check_fields()

    def _check_fields(self) -> None:
        """The checks of everything but the anchor's codes: the dim, knots and
        outputs; sets the knots and outputs as float arrays, and lo and hi."""
        if not _is_integer(self.dim):
            raise InvalidNodeError(f"region dim {self.dim!r} is not an integer")
        if not 0 <= self.dim <= len(self.anchor):
            raise InvalidNodeError(f"region dim {self.dim} outside [0, {len(self.anchor)}] "
                                   f"for an anchor of {len(self.anchor)} codes")
        self.knots = np.asarray(self.knots, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
        if self.knots.ndim != 1 or len(self.knots) < 4:
            raise SparseGridError(f"region needs >= 4 knots in a 1-D array, "
                                  f"got shape {self.knots.shape}")
        if self.outputs.shape != self.knots.shape:
            raise SparseGridError(f"region has {len(self.knots)} knots but "
                                  f"{self.outputs.size} outputs")
        if not np.isfinite(self.knots).all():
            raise SparseGridError("region has non-finite knots")
        if not np.isfinite(self.outputs).all():
            raise SparseGridError("region has non-finite outputs")
        if (self.knots[1:] <= self.knots[:-1]).any():
            raise SparseGridError("region knots must be strictly increasing")
        self.lo, self.hi = float(self.knots[0]), float(self.knots[-1])


def _scanned_region(dim: int, anchor: tuple, knots: np.ndarray,
                    outputs: np.ndarray) -> SmoothRegion:
    """The SmoothRegion of a run the scan found, built without the checks of
    SmoothRegion.__post_init__, which it otherwise matches field for field.

    The scan takes every field from the model's own checked arrays: `dim`
    is an int below d, the anchor a tuple of the ints of a code row, and
    knots and outputs float arrays of at least 4 node coordinates and
    outputs along one line, outputs the drivers refuse unless finite.  Only
    rising knots are not implied; _scan_and_store checks them in one pass.
    """
    region = SmoothRegion.__new__(SmoothRegion)
    region.dim, region.anchor, region.knots, region.outputs = dim, anchor, knots, outputs
    region.lo, region.hi = float(knots[0]), float(knots[-1])
    return region


def _loaded_region(dim, anchor: tuple, knots, outputs) -> SmoothRegion:
    """The SmoothRegion of a file's region line, whose anchor is a tuple of
    ints that core._codes_of_dyadic has just made codes of nodes: built with
    every check of SmoothRegion.__post_init__ but the anchor's, which would
    only find them codes again."""
    region = SmoothRegion.__new__(SmoothRegion)
    region.dim, region.anchor, region.knots, region.outputs = dim, anchor, knots, outputs
    region._check_fields()
    return region


def _spline_values(regions, which, t) -> np.ndarray:
    """Spline value of regions[which[i]] at position t[i]; NaN where which[i] < 0.

    The regions' splines not yet fitted are fitted together, in one solve,
    and every row is evaluated in one pass over the regions' knots laid end
    to end.  Refuses positions outside their region: no extrapolation.
    """
    out = np.full(len(which), np.nan)
    hit = np.flatnonzero(which >= 0)
    if not len(hit):
        return out
    count = np.array([len(r.knots) for r in regions])
    first = np.cumsum(count) - count
    x = np.concatenate([r.knots for r in regions])
    own, at = which[hit], t[hit]
    lo, hi = x[first[own]], x[first[own] + count[own] - 1]
    outside = np.flatnonzero(~((lo <= at) & (at <= hi)))
    if len(outside):
        k = outside[0]
        raise SparseGridError(
            f"position {at[k]} outside region [{lo[k]}, {hi[k]}]; no extrapolation")
    todo = [r for r in regions if r._second_derivs is None]
    if todo:
        fits = _second_derivatives([r.knots for r in todo], [r.outputs for r in todo])
        for r, m in zip(todo, fits):
            r._second_derivs = m
    out[hit] = _spline_at(x, np.concatenate([r.outputs for r in regions]),
                          np.concatenate([r._second_derivs for r in regions]),
                          first[own], count[own], at)
    return out


def spline_value(r: SmoothRegion, t: float) -> float:
    """Spline value of a region at position t along its dimension.

    Exact at every knot; refuses to extrapolate outside the interval.  A
    one-row call of the level-wide evaluation.
    """
    return float(_spline_values([r], np.zeros(1, dtype=np.intp), np.array([t], dtype=float))[0])


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


class RegionDatabase:
    """Smooth regions by line, non-overlapping per line, in creation order.

    `RegionDatabase(d)` holds the regions of one model of node dimension d,
    as `SurrogateModel(d)` holds its nodes: each region's anchor holds d - 1
    codes, and lookups take rows of d codes.  A line is named by the
    dimension it runs along and by its anchor.  The live regions are kept
    in the order they were created, which `regions()` yields and by which
    lookup ties are broken; a region another replaces leaves that order.
    Every lookup lays out the regions afresh, in one pass: their anchors as
    code rows (0 at `dim`) sorted by their hash, which is group_lines'
    anchor key, with their intervals.
    """

    def __init__(self, dimension: int):
        _check_dimension(dimension)
        self.dimension = dimension
        self._lines: dict[tuple[int, tuple], list[SmoothRegion]] = {}  # by (dim, anchor)
        self._order: dict[SmoothRegion, None] = {}  # the live regions, in creation order

    def __len__(self) -> int:
        return len(self._order)

    def regions(self):
        """All regions, in creation order."""
        return iter(self._order)

    def _covers(self, dim: int, anchor: tuple, lo: float, hi: float) -> bool:
        """Whether a region of the line along `dim` at `anchor` holds [lo, hi]."""
        for r in self._lines.get((dim, anchor), ()):
            if r.lo <= lo and hi <= r.hi:
                return True
        return False

    def store(self, region: SmoothRegion) -> StoreOutcome:
        """Insert a region, enforcing the non-overlap rules of its line.

        An old region that holds the new one makes the store a no-op (so a
        re-store is "covered"); else the new region replaces the old ones it
        holds, and a partial overlap keeps the longer interval and logs a
        diagnostic.  A created region goes last in creation order.  Returns
        what happened.  A region whose anchor does not hold d - 1 codes lies
        on no line of the database's nodes and raises InvalidNodeError.
        """
        if len(region.anchor) != self.dimension - 1:
            raise InvalidNodeError(f"region anchor of {len(region.anchor)} codes, not "
                                   f"d - 1 = {self.dimension - 1}")
        if self._covers(region.dim, region.anchor, region.lo, region.hi):
            return StoreOutcome("covered")
        kept, gone = [], []
        displaced = 0
        length = region.hi - region.lo
        for old in self._lines.get((region.dim, region.anchor), ()):
            if region.lo <= old.lo and region.hi >= old.hi:
                gone.append(old)
            elif region.lo < old.hi and old.lo < region.hi:
                if length <= old.hi - old.lo:
                    log.debug(
                        "partial overlap on dim %d: keeping [%g, %g], dropping [%g, %g]",
                        region.dim, old.lo, old.hi, region.lo, region.hi,
                    )
                    return StoreOutcome("rejected")
                log.debug(
                    "partial overlap on dim %d: replacing [%g, %g] with [%g, %g]",
                    region.dim, old.lo, old.hi, region.lo, region.hi,
                )
                gone.append(old)
                displaced += 1
            else:
                kept.append(old)
        for old in gone:
            del self._order[old]
        self._order[region] = None
        kept.append(region)
        self._lines[region.dim, region.anchor] = kept
        return StoreOutcome("created", len(gone) - displaced, displaced)

    def lookup_many(self, codes, *,
                    _coords=None) -> tuple[list[SmoothRegion], np.ndarray, np.ndarray]:
        """The region holding each row of an (n, d) array of node codes.

        Returns (regions, which, t): row i lies in regions[which[i]] at
        position t[i] along that region's dimension, or in no region when
        which[i] is -1 (t[i] is then 0).  A row matches a region when its
        other coordinates equal the region's anchor exactly and its position
        lies in the region's closed interval; among several matches, along
        one dimension or several, the earliest-created region wins.  Codes
        of no node raise InvalidNodeError, and rows of other than d codes
        DimensionMismatchError.

        `_coords` is for the level driver, whose rows are split and checked
        already: their coordinates(codes), which the call otherwise takes
        itself, and with them the refusal of codes of no node.
        """
        d = self.dimension
        codes = _code_array(codes, (None, d))
        if _coords is None:
            _coords = coordinates(codes)  # refuses codes of no node
        n = len(codes)
        which = np.full(n, -1, dtype=np.intp)
        t = np.zeros(n)
        regions = list(self._order)  # a region's index is its rank in creation order
        if not (regions and n):
            return [], which, t
        weights = _row_weights(d)
        sums = codes @ weights
        along = np.array([r.dim for r in regions])
        anchors = np.array([r.anchor for r in regions], dtype=np.int64)  # (R, d - 1)
        lo, hi = np.array([(r.lo, r.hi) for r in regions]).T
        found = []
        for dim in np.unique(along).tolist():
            # the dimension's regions, their anchors as code rows (0 at dim)
            # sorted by anchor key
            ids = np.flatnonzero(along == dim)
            rows_of = np.insert(anchors[ids], dim, 0, axis=1)
            keys = rows_of @ weights
            order = np.argsort(keys, kind="stable")
            keys, rows_of, ids = keys[order], rows_of[order], ids[order]
            # (row, candidate) pairs of equal keys, then of equal anchors
            query = sums - codes[:, dim] * weights[dim]
            first = np.searchsorted(keys, query, "left")
            count = np.searchsorted(keys, query, "right") - first
            rows = np.repeat(np.arange(n), count)
            cand = np.arange(len(rows)) + np.repeat(first - (np.cumsum(count) - count), count)
            mine = codes[rows]
            mine[:, dim] = 0
            same = (mine == rows_of[cand]).all(axis=1)
            rows, cand = rows[same], ids[cand[same]]
            if not len(rows):
                continue
            at = _coords[rows, dim]
            hit = (lo[cand] <= at) & (at <= hi[cand])
            found.append((rows[hit], cand[hit], at[hit]))
        if not found:
            return [], which, t
        rows, rank, at = (np.concatenate(a) for a in zip(*found))
        order = np.lexsort((rank, rows))  # per row, earliest-created first
        rows, rank, at = rows[order], rank[order], at[order]
        best = np.ones(len(rows), dtype=bool)
        best[1:] = rows[1:] != rows[:-1]
        used, pick = np.unique(rank[best], return_inverse=True)
        which[rows[best]] = pick
        t[rows[best]] = at[best]
        return [regions[k] for k in used.tolist()], which, t

    def lookup(self, codes):
        """Region containing the node of a row of d codes, or None.

        Returns (region, position).  A one-row call of `lookup_many`, with
        its refusals and its matching and tie rules.
        """
        regions, which, t = self.lookup_many(_code_array(codes, (None,))[None, :])
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

    Hashes the node codes once, scans each dimension's long lines in one
    batch, and stores the runs in order.  A run that a region of its line
    covers at its turn is skipped before a SmoothRegion is built: `store`
    would find it covered and change nothing.  Regions are built by
    _scanned_region, whose one check, rising knots, runs once per dimension
    over all of the dimension's long lines.  Returns the pass's counts
    under the LevelRecord field names: lines scanned, and regions created,
    superseded, displaced and rejected.
    """
    counts = dict.fromkeys(_SCAN_COUNTS, 0)
    if math.isinf(min_points):
        return counts
    weights = _row_weights(model.dimension)
    sums = model.codes @ weights
    for dim in range(model.dimension):
        lines = _long_lines(model, dim, min_points, sums, weights)
        counts["lines_scanned"] += len(lines.bounds) - 1
        # knots are node coordinates, ascending along a line, so they rise
        # strictly but where two nodes deeper than level 54 round to one double
        falls = lines.positions[1:] <= lines.positions[:-1]
        falls[lines.bounds[1:-1] - 1] = False  # from one line to the next
        if falls.any():
            raise SparseGridError(f"two nodes along dim {dim} share the coordinate "
                                  f"{float(lines.positions[falls.argmax()])!r}: region knots "
                                  f"must be strictly increasing")
        start, stop = _smooth_runs(lines.positions, lines.outputs, lines.bounds, slope_tol)
        line = np.searchsorted(lines.bounds, start, "right") - 1
        anchors = lines.anchors[line].tolist()
        ends = zip(lines.positions[start].tolist(), lines.positions[stop - 1].tolist())
        for anchor, lo, hi, (first, last) in zip(anchors, start.tolist(), stop.tolist(), ends):
            anchor = tuple(anchor)
            if db._covers(dim, anchor, first, last):
                continue
            outcome = db.store(_scanned_region(dim, anchor, lines.positions[lo:hi].copy(),
                                               lines.outputs[lo:hi].copy()))
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
    db = RegionDatabase(cfg.dimension)

    def value_source(codes, coords):
        regions, which, t = db.lookup_many(codes, _coords=coords)
        return _spline_values(regions, which, t), which >= 0

    def after_level(model: SurrogateModel) -> dict:
        return _scan_and_store(db, model, cfg.slope_tol, cfg.min_line_points)

    return _drive(
        f, cfg.dimension, cfg.epsilon, cfg.init_level, cfg.max_level,
        value_source=value_source, after_level=after_level, on_level=on_level,
        region_db=db,
    )
