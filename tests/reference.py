"""Independent oracles of the node hierarchy, written one node at a time.

The library holds nodes only as integer code rows and works on whole arrays.
These are the scalar definitions the arrays must agree with: (level, index)
nodes with their exact dyadic coordinates, hat functions, refinement sons and
basis integrals, built from the definitions in plain Python, and the clamped
cubic spline of one line, solved one knot set at a time.  Tests compare
the library's array results with them.  `second_derivatives` is the spline
fit by one LAPACK `dgtsv` call on a block-diagonal system, the oracle of the
library's NumPy solve.  `surrogate_text` is the saved file of a model, built
as one string, line by line, the oracle of the library's chunked writer.
`key_positions` finds kernel keys by binary search, the oracle of the
kernel's hashed slot index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv


def new_nodes_on_level(level: int) -> int:
    """Size of the level's newly-added node set (1, 2, then 2**(i-2))."""
    if level == 1:
        return 1
    if level == 2:
        return 2
    return 2 ** (level - 2)


def cumulative_nodes(level: int) -> int:
    """Total 1-D nodes up to and including `level` (1, then 2**(i-1) + 1)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level == 1:
        return 1
    return 2 ** (level - 1) + 1


@dataclass(frozen=True, order=True)
class NodeIndex1D:
    """One node of the nested 1-D hierarchy, identified by (level, index).

    level 1 has the single node 0.5 (index 0); level 2 has the boundary
    nodes 0 and 1 (indices 0 and 1); level i >= 3 has indices
    0 .. 2**(i-2) - 1 over the new coordinates (2*index + 1) * 2**(1-i).
    """

    level: int
    index: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.index < 0 or self.index >= new_nodes_on_level(self.level):
            raise ValueError(f"index {self.index} out of range for level {self.level}")

    @property
    def code(self) -> int:
        return (1 << (self.level - 1)) + self.index


def node_of_code(code: int) -> NodeIndex1D:
    """The node of an integer code 2**(level-1) + index."""
    level = int(code).bit_length()
    return NodeIndex1D(level, int(code) - (1 << (level - 1)))


def dyadic_1d(n: NodeIndex1D) -> tuple[int, int]:
    """Exact coordinate of a node as (numerator, exponent): value = num / 2**exp.

    The pair is canonical (odd numerator unless the value is 0 or 1).
    """
    if n.level == 1:
        return (1, 1)
    if n.level == 2:
        return (n.index, 0)
    return (2 * n.index + 1, n.level - 1)


def coord_1d(n: NodeIndex1D) -> float:
    """Coordinate of a node in [0, 1]; exact, since dyadics are representable."""
    num, exp = dyadic_1d(n)
    return num / (1 << exp)


def node_from_dyadic(num: int, exp: int) -> NodeIndex1D:
    """The unique node at a dyadic coordinate, reducing the fraction first."""
    if num < 0 or exp < 0 or num > (1 << exp):
        raise ValueError(f"dyadic {num}/2^{exp} outside [0, 1]")
    while num % 2 == 0 and exp > 0:
        num //= 2
        exp -= 1
    if exp == 0:
        return NodeIndex1D(2, num)
    if exp == 1:
        return NodeIndex1D(1, 0)
    return NodeIndex1D(exp + 1, (num - 1) // 2)


def basis_1d(n: NodeIndex1D, x: float) -> float:
    """Hierarchical hat function of node `n` evaluated at x.

    Level 1 is constant 1.  Level i >= 2 is max(0, 1 - |x - c| * 2**(i-1)),
    a hat of half-width 2**(1-i) centred at the node.
    """
    if n.level == 1:
        return 1.0
    return max(0.0, 1.0 - abs(x - coord_1d(n)) * float(1 << (n.level - 1)))


def children_1d(n: NodeIndex1D) -> list[NodeIndex1D]:
    """Sons in the refinement tree: the root spawns both boundary nodes, each
    boundary node one quarter point, every deeper node the two nodes at
    c +/- 2**(-level)."""
    if n.level == 1:
        return [NodeIndex1D(2, 0), NodeIndex1D(2, 1)]
    if n.level == 2:
        return [NodeIndex1D(3, n.index)]
    return [NodeIndex1D(n.level + 1, 2 * n.index), NodeIndex1D(n.level + 1, 2 * n.index + 1)]


def weight_1d(level: int) -> float:
    """Integral over [0, 1] of a 1-D basis function of the level."""
    return 1.0 if level == 1 else 0.25 if level == 2 else 2.0 ** (1 - level)


@dataclass(frozen=True, order=True)
class Point:
    """A d-dimensional node: one NodeIndex1D per dimension."""

    dims: tuple[NodeIndex1D, ...]

    @property
    def dimension(self) -> int:
        return len(self.dims)

    @property
    def depth(self) -> int:
        """Sum of per-dimension levels (root has depth d)."""
        return sum(n.level for n in self.dims)

    @property
    def level(self) -> int:
        """Reported interpolation level, counted from 0 at the root."""
        return self.depth - len(self.dims)

    @property
    def key(self) -> tuple[tuple[int, int], ...]:
        """The exact dyadic coordinates, one (num, exp) pair per dimension."""
        return tuple(dyadic_1d(n) for n in self.dims)

    @property
    def codes(self) -> list[int]:
        return [n.code for n in self.dims]

    def coordinate(self) -> np.ndarray:
        return np.array([coord_1d(n) for n in self.dims])


def point(*pairs) -> Point:
    """Point((level, index), ...)."""
    return Point(tuple(NodeIndex1D(level, index) for level, index in pairs))


def point_of_codes(row) -> Point:
    return Point(tuple(node_of_code(c) for c in row))


def root_point(dimension: int) -> Point:
    """The all-levels-one point at the centre of the cube."""
    return Point(tuple(NodeIndex1D(1, 0) for _ in range(dimension)))


def codes(*points: Point) -> np.ndarray:
    """The (n, d) code array of points; (0, 0) for none."""
    if not points:
        return np.zeros((0, 0), dtype=np.int64)
    return np.array([p.codes for p in points], dtype=np.int64)


def basis_nd(p: Point, x) -> float:
    """Product over dimensions of the 1-D basis functions of `p` at x."""
    out = 1.0
    for n, xs in zip(p.dims, np.asarray(x, dtype=float)):
        out *= basis_1d(n, float(xs))
        if out == 0.0:
            break
    return out


def make_sons(p: Point) -> list[Point]:
    """All refinement sons of `p`: each dimension's children in turn."""
    sons = []
    for s, n in enumerate(p.dims):
        for child in children_1d(n):
            sons.append(Point(p.dims[:s] + (child,) + p.dims[s + 1:]))
    return sons


def weight_nd(p: Point) -> float:
    """Integral of the d-dimensional basis of `p` over the unit cube."""
    out = 1.0
    for n in p.dims:
        out *= weight_1d(n.level)
    return out


def model_points(m) -> list[Point]:
    """The points of a model's code rows, in insertion order."""
    return [point_of_codes(row) for row in m.codes.tolist()]


def stored(m, rows) -> np.ndarray:
    """Boolean mask of the code rows that a model holds: a set of its rows."""
    held = {tuple(row) for row in m.codes.tolist()}
    return np.array([tuple(row) in held for row in np.asarray(rows).tolist()], dtype=bool)


def surrogate_text(model, region_db=None) -> str:
    """The text save_surrogate writes for a model and its regions, one line
    per node and per region: reals in 17 significant digits, region anchors
    as the exact dyadic coordinates num:exp of their codes."""
    lines = [f"surrogate d={model.dimension} depth={model.depth} "
             f"full={model.full_evaluations} spline={model.spline_interpolations}"]
    for row, output, w, v, spline in zip(model.codes.tolist(), model.outputs.tolist(),
                                         model.w.tolist(), model.v.tolist(),
                                         model.spline.tolist()):
        pairs = ",".join(f"{n.level}:{n.index}" for n in map(node_of_code, row))
        reals = " ".join(format(x, ".17g") for x in (output, w, v))
        lines.append(f"{pairs} {reals} {'S' if spline else 'F'}")
    if region_db is not None and len(region_db) > 0:
        lines.append(f"regions {len(region_db)}")
        for r in region_db.regions():  # in creation order
            anchor = ",".join("%d:%d" % dyadic_1d(node_of_code(c)) for c in r.anchor) or "-"
            lines.append(" ".join([
                str(r.dim), anchor, ",".join(format(x, ".17g") for x in r.knots.tolist()),
                ",".join(format(x, ".17g") for x in r.outputs.tolist()),
                format((r.lo + r.hi) / 2, ".17g"), format((r.hi - r.lo) / 2, ".17g"),
            ]))
    return "\n".join(lines) + "\n"


def key_positions(keys, queries) -> np.ndarray:
    """Positions of `queries` in the sorted key array `keys`, found by binary
    search; -1 for a query that is not among the keys."""
    keys, queries = np.asarray(keys), np.asarray(queries)
    pos = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[pos] == queries, pos, -1)


def brute_force(m, x, coeff):
    """Sum of coeff * basis_nd over every stored node, and the sum of the
    terms' magnitudes, which bounds any summation-order difference."""
    surpluses = m.w if coeff == "w" else m.v
    terms = np.array([c * basis_nd(p, x) for p, c in zip(model_points(m), surpluses.tolist())])
    return terms.sum(), np.abs(terms).sum()


def endpoint_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Derivative at x[0] of the Newton polynomial through the knots (x, y),
    by scalar divided differences."""
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
    """The clamped cubic spline of one knot set, as the smooth layer fits it.

    End slopes come from `endpoint_slope` over the nearest min(5, n) knots of
    each end; the clamped tridiagonal system is solved by solve_banded, and
    a value at t is read from the knot interval searchsorted finds.  Needs at
    least 4 strictly increasing finite knots and finite values.
    """

    def __init__(self, knots, values):
        x = np.asarray(knots, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 4:
            raise ValueError("need at least 4 knots and as many values, in 1-D arrays")
        if not (np.isfinite(x).all() and np.isfinite(y).all()) or np.any(np.diff(x) <= 0):
            raise ValueError("knots must be finite and strictly increasing, values finite")
        self.knots, self.values = x, y
        k = min(5, x.size)
        slope_lo = endpoint_slope(x[:k], y[:k])
        slope_hi = endpoint_slope(x[-k:][::-1], y[-k:][::-1])
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
        self.second_derivs = solve_banded((1, 1), ab, rhs)

    def __call__(self, t):
        """Values at t, computed on arrays (numpy's scalar ** may round
        differently); a scalar t gives a float."""
        x, y, m = self.knots, self.values, self.second_derivs
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        i = np.clip(np.searchsorted(x, tt) - 1, 0, x.size - 2)
        h = x[i + 1] - x[i]
        a = (x[i + 1] - tt) / h
        b = (tt - x[i]) / h
        out = (a * y[i] + b * y[i + 1]
               + ((a ** 3 - a) * m[i] + (b ** 3 - b) * m[i + 1]) * h * h / 6.0)
        return float(out[0]) if np.ndim(t) == 0 else out


def block_tridiagonal_solve(blocks) -> list[np.ndarray]:
    """Solutions of symmetric tridiagonal systems from one `dgtsv` call.

    `blocks` holds (diag, off, rhs) per system, `off` one shorter than
    `diag`.  The systems are laid end to end, each followed by two identity
    rows with a zero right-hand side and zero coupling, and solved as one
    block-diagonal system.  For systems that `dgtsv` solves without row
    interchanges, every product across a block edge multiplies a zero by a
    +0 separator value, so each solution is bitwise that of its block alone.
    """
    n = np.array([len(d) for d, _, _ in blocks])
    last = np.cumsum(n) - 1
    row = np.arange(n.sum()) + 2 * np.repeat(np.arange(len(n)), n)
    inner = np.ones(n.sum(), dtype=bool)  # rows coupled to the next row of their block
    inner[last] = False
    size = n.sum() + 2 * len(n)
    diag, rhs, off = np.ones(size), np.zeros(size), np.zeros(size - 1)
    diag[row] = np.concatenate([d for d, _, _ in blocks])
    rhs[row] = np.concatenate([b for _, _, b in blocks])
    off[row[inner]] = np.concatenate([e for _, e, _ in blocks])
    *_, solution, info = dgtsv(off, diag, off, rhs)
    if info:
        raise ValueError(f"singular system (dgtsv info {info})")
    return np.split(solution[row], last[:-1] + 1)


def second_derivatives(knots, values) -> list[np.ndarray]:
    """Knot second derivatives of the clamped cubic splines of several knot
    sets, by `block_tridiagonal_solve`: the systems of CubicLineSpline, with
    end slopes from `endpoint_slope` over the nearest min(5, n) knots."""
    blocks = []
    for x, y in zip(knots, values):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        k = min(5, x.size)
        h = np.diff(x)
        slope = np.diff(y) / h
        h_left, h_right = np.append(0.0, h), np.append(h, 0.0)
        s_left = np.append(endpoint_slope(x[:k], y[:k]), slope)
        s_right = np.append(slope, endpoint_slope(x[-k:][::-1], y[-k:][::-1]))
        blocks.append(((h_left + h_right) / 3.0, h / 6.0, s_right - s_left))
    return block_tridiagonal_solve(blocks)


class RegionStore:
    """The non-overlap rule of the smooth layer's region store, on intervals.

    Written as the rule reads: first the full check for a region of the line
    that holds the new interval, and only then a walk over the line, where
    the new interval replaces the regions it holds and a partial overlap
    keeps the longer interval.  Regions are (lo, hi, created) triples, where
    `created` counts the regions created before; lines are grouped by
    dimension, both in order of first store.
    """

    def __init__(self):
        self.lines: dict[int, dict[tuple, list]] = {}
        self.created = 0

    def store(self, dim: int, anchor: tuple, lo: float, hi: float) -> tuple[str, int, int]:
        """(status, superseded, displaced) of storing [lo, hi] on a line."""
        line = self.lines.get(dim, {}).get(anchor, [])
        if any(a <= lo and hi <= b for a, b, _ in line):
            return ("covered", 0, 0)
        kept, superseded, displaced = [], 0, 0
        for a, b, created in line:
            if lo <= a and b <= hi:
                superseded += 1
            elif lo < b and a < hi:
                if (hi - lo) / 2.0 <= (b - a) / 2.0:
                    return ("rejected", 0, 0)
                displaced += 1
            else:
                kept.append((a, b, created))
        kept.append((lo, hi, self.created))
        self.created += 1
        self.lines.setdefault(dim, {})[anchor] = sorted(kept)
        return ("created", superseded, displaced)

    def table(self) -> list[tuple]:
        """(dim, anchor, lo, hi) of every region, in creation order."""
        regions = sorted((created, dim, anchor, lo, hi)
                         for dim, lines in self.lines.items()
                         for anchor, line in lines.items()
                         for lo, hi, created in line)
        return [region[1:] for region in regions]
