"""Independent oracles of the node hierarchy, written one node at a time.

The library holds nodes only as integer code rows and works on whole arrays.
These are the scalar definitions the arrays must agree with: (level, index)
nodes with their exact dyadic coordinates, hat functions, refinement sons and
basis integrals, built from the definitions in plain Python, and the clamped
cubic spline of one line, solved one knot set at a time.  Tests compare
the library's array results with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded


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
