"""Nested equidistant node hierarchy and piecewise-linear hierarchical interpolation.

The 1-D hierarchy places a single node at 0.5 on level 1, the two boundary
nodes on level 2, and 2**(i-2) new nodes at the odd multiples of 2**(1-i) on
every level i >= 3.  Levels nest: the cumulative grid at level i contains the
grid at level i-1, and every dyadic coordinate has exactly one birth level.

Multi-dimensional points carry one (level, index) pair per dimension.  Their
basis functions are tensor products of 1-D hats (constant on level 1, half-hat
on level 2, full hat of half-width 2**(1-i) above).  A surrogate is a sum of
basis functions weighted by hierarchical surpluses: the surplus of a node is
the model output there minus the interpolant built from all strictly coarser
levels, so the interpolant reproduces every stored output exactly.

Evaluation costs one basis lookup per level vector, not one per node.  The
nodes that share a level vector have disjoint supports, so at any x at most
one of them has a non-zero basis: per dimension, the node of index
min(floor(x * n_l), n_l - 1) among the level's n_l nodes.  The model groups its
nodes by level vector under integer keys and finds each group's candidate
by offset in a full group and in a hashed slot index in a sparse one, so a
batch of queries costs O(queries * level vectors * d) instead of
O(queries * nodes * d)
(Bungartz & Griebel, "Sparse grids", Acta Numerica 13, 2004; Pflueger,
"Spatially Adaptive Sparse Grids for High-Dimensional Problems", 2010).

A query that is itself a grid point visits only the level vectors it
dominates.  Each coordinate of a double in [0, 1] is a grid node of one
level, read exactly from the float; at a node of level L, every hat of a
finer level has x on its support edge, where the kernel computes
1 - |x - c| * 2**(l-1) = 1 - 1 = +0 exactly (for levels up to 54, whose node
centres are exact doubles).  So a level vector l' that exceeds the query's
level vector l in some dimension contributes an exact +-0 term, and leaving
such terms out changes no sum but the sign of a zero one: -0 + +0 is +0, so a
block that merges rows may add a +0 term that a lone row skips.  Queries
(interpolate, interpolate_many) therefore return a zero sum as +0, and a
query's bits never depend on the rows batched with it.  Surpluses keep their
sign, since files store it, and builds never meet the case: a -0 sum needs
every kept term to be -0, the root's among them; but then the root's level-1
sons, which a build stores before any finer candidate, have surpluses
f - (-0), never -0, and the son that holds the candidate keeps a term that is
not -0 either.  So the drivers' surpluses, and every saved file, stay bit for
bit.  A refinement candidate of level vector l thus needs only the
groups l' <= l (componentwise), and the surpluses of a deep adaptive level
cost O(candidates * dominated groups).  A uniformly drawn query reads as
level 50 or so in every dimension and visits every group.

The group table is kept coarse to fine (total level, then level vector,
ascending) and grows by appending each inserted level, which is deeper than
every stored one.  Every field only grows: a group's hat columns are
numbered level-major, (level - 1) * d + dimension, so a deeper level adds
columns after every stored one, and no stored group's row is laid out
again.  One kernel folds the groups' terms in either direction:

- queries (interpolate, interpolate_many) add them coarse to fine.  A new,
  deeper level appends its groups at the table's end, so the fold's partial
  sum over a model's first groups is, bit for bit, a fresh evaluation of the
  model as it stood when those were its groups: one pass over the finished
  model gives every level's values (run_study's error columns do this);
- surpluses (surpluses_against_prefix) add them fine to coarse.  The small
  fine-level terms meet each other before the large coarse ones, which keeps
  piecewise-linear data's surpluses exactly 0 more often than coarse to fine
  or pairwise summation does.  Every w and v, and so every saved file,
  depends on this order to the last bit.

The kernel works in blocks laid out group by group: a block's hat tables
are (hat columns, rows) and its products, node keys and table positions are
(groups, rows).  A group that holds every node of its level vector, as all
of a CSC build's do, is full: its nodes are one run of the sorted keys, so
a candidate's position is the group's first position plus its code, one
add with no lookup and no miss.  The keys of the other, sparse groups are
looked up in an open-addressing slot index with linear probing that holds
only their nodes: a power-of-two array, at most 1/8 full, of key positions,
where a key's home slot is the top bits of the key times an odd 64-bit
constant, and an empty slot holds -1, the sentinel's position.  Most
lookups in a sparse group are misses (a uniform query visits every group,
and an adaptive grid holds few of its candidates), and at that load most
misses end at an empty home slot.  So a lookup costs a probe or two
whatever the model's size, and a key of no node reads the sentinel's key
and zero coefficients.  The fold adds whole
contiguous group rows, one group after the other in table order, in one of
two forms chosen by the block's shape that add the same pairs in the same
order (Murarasu et al., PPoPP 2011, on hashed sparse grid indices).

A model stores its nodes as a struct of arrays, in insertion order: one
(N, d) int64 array of per-dimension codes; float arrays of outputs, w and v
surpluses; and a boolean provenance array, True where the output came from a
spline, from which the evaluation counts are read.  The kernel's sorted key
table (below), with its slot index, is the one index of the nodes and of
their level vectors: it rejects a node repeated within a level and gives
each level vector its first key, and codes of no node are refused.  The
code of the 1-D node of level l and index i is c = 2**(l-1) + i:

- level 1 is code 1, level 2 codes 2 and 3, and level l >= 3 the codes
  2**(l-1) .. 2**(l-1) + 2**(l-2) - 1, so a code's bit length is its level;
- the sons of c are 2c and 2c + 1, except on level 2, whose nodes have one
  son each: 2 -> 4 and 3 -> 5;
- sorting rows lexicographically by code sorts them by (level, index) in
  each dimension;
- the coordinate is 0.5 on level 1, i on level 2 and (2i + 1) / 2**(l-1)
  above;
- levels stop at MAX_LEVEL = 62, so every code and every son fits in an
  int64; split_codes reads levels exactly in one pass, from the exponent of
  the codes' float cast.

The evaluation kernel numbers every possible node of every stored level
vector with one int64 key, so a model holds only level vectors whose node
counts (the products over dimensions of the per-level counts 1, 2, then
2**(l-2)) sum to less than KEY_LIMIT = 2**63 - 1; add_level refuses the rest.

Code rows are the library's only node representation: the drivers evaluate,
insert and refine whole levels as code arrays, and the smooth layer anchors
its lines by them (Murarasu et al., "Compact data structure and scalable
algorithms for the sparse grid technique", PPoPP 2011).  nodes() wraps each
row in a HierarchicalNode on request, for callers that want one record per
node.

Node identity is exact: codes are integers, so deduplication never depends
on floating-point tolerances.  Coordinates are dyadic rationals; dyadic_codes
gives them as exact (numerator, power-of-two exponent) pairs, the form the
text files write.

A finished model is immutable and safe for concurrent evaluation; construction
is single-writer and proceeds level by level.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    EmptyModelError,
    InvalidNodeError,
    OutOfDomainError,
)

__all__ = [
    "GridPoint",
    "HierarchicalNode",
    "SurrogateModel",
    "MAX_LEVEL",
    "KEY_LIMIT",
    "join_codes",
    "split_codes",
    "coordinates",
    "dyadic_codes",
]

# deepest 1-D level a model stores: the sons of level 63 would pass 2**63,
# beyond int64, while those of level 62 still fit and read as level 63
MAX_LEVEL = 62

# the kernel's key sentinel: the node counts of a model's level vectors must
# sum to less than this, so every key is below it (see _Table)
KEY_LIMIT = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# integer node codes: c = 2**(level-1) + index (see the module docstring)
# ---------------------------------------------------------------------------

def _bit_length(codes: np.ndarray) -> np.ndarray:
    """Elementwise bit length of int64 codes (0 for c <= 0), exact, in one pass.

    The float cast's exponent is the bit length k, or k + 1 where the cast
    rounds c up to 2**k, which happens above 2**53 (to 2**k - 1, say): so
    one right shift by the exponent less one leaves 1 or 0, and adds it.
    """
    positive = np.maximum(codes, 0)
    n = (np.frexp(positive | 1)[1] - 1).astype(np.int64)
    return n + (positive >> n)


def _refuse(bad: np.ndarray, levels: np.ndarray, indices: np.ndarray) -> None:
    """Raise InvalidNodeError naming the first (level, index) pair marked bad."""
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise InvalidNodeError(
            f"invalid node (level {levels[at]}, index {indices[at]}); levels run "
            f"1 .. {MAX_LEVEL} with 1, 2, then 2**(level-2) indices"
        )


def join_codes(levels, indices) -> np.ndarray:
    """Codes 2**(level-1) + index of (level, index) arrays of equal shape.

    Raises InvalidNodeError for any pair of no node, levels above MAX_LEVEL
    included.
    """
    levels = _code_array(levels, np.shape(levels))
    indices = _code_array(indices, np.shape(indices))
    capped = np.clip(levels, 1, MAX_LEVEL)
    _refuse((levels != capped) | (indices < 0) | (indices >= _nodes_per_level(capped)),
            levels, indices)
    return np.left_shift(np.int64(1), levels - 1) + indices


def split_codes(codes) -> tuple[np.ndarray, np.ndarray]:
    """(levels, indices) of an array of codes: the inverse of join_codes.

    Raises InvalidNodeError if any code belongs to no node of levels
    1 .. MAX_LEVEL: by _is_code's rule, a level l >= 3 code has top two
    bits 10.
    """
    codes = _code_array(codes, np.shape(codes))  # any shape
    flat = codes.ravel()
    levels, indices = np.empty((2, flat.size), dtype=np.int64)
    for lo in range(0, flat.size, _SPLIT):
        c = flat[lo:lo + _SPLIT]
        level = _bit_length(c)
        index = c - np.left_shift(np.int64(1), np.maximum(level - 1, 0))
        top = c >> np.maximum(level - 2, 0)
        _refuse((level < 1) | (level > MAX_LEVEL) | ((level >= 3) & (top != 2)), level, index)
        levels[lo:lo + _SPLIT], indices[lo:lo + _SPLIT] = level, index
    return levels.reshape(codes.shape), indices.reshape(codes.shape)


# codes per split_codes piece: small enough that its dozen array passes run
# in cache, which makes them about three times faster on large code arrays
_SPLIT = 1 << 14


def _is_code(c: int) -> bool:
    """Whether the int c is the code of a node: split_codes' check for one code.

    Level l >= 3 codes are 2**(l-1) .. 2**(l-1) + 2**(l-2) - 1, the l-bit
    numbers whose top two bits are 10.
    """
    level = c.bit_length()
    return c > 0 and level <= MAX_LEVEL and (level < 3 or c >> (level - 2) == 2)


def _is_integer(value) -> bool:
    """Whether `value` is an integer; bools and 2.0 are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_dimension(dimension) -> None:
    """InvalidNodeError unless `dimension`, a node dimension, is an integer >= 1."""
    if not _is_integer(dimension):
        raise InvalidNodeError(f"dimension must be an integer, got {dimension!r}")
    if dimension < 1:
        raise InvalidNodeError(f"dimension must be >= 1, got {dimension}")


def dyadic_codes(codes) -> tuple[np.ndarray, np.ndarray]:
    """Exact coordinates of codes as (numerator, exponent) arrays: num / 2**exp.

    The pairs are canonical, an odd numerator unless the coordinate is 0 or
    1: (1, 1) on level 1, (index, 0) on level 2 and (2 * index + 1, level - 1)
    above, so equal coordinates give equal pairs.
    """
    levels, indices = split_codes(codes)
    num = np.where(levels == 2, indices, 2 * indices + 1)
    exp = np.where(levels <= 2, 2 - levels, levels - 1)
    return num, exp


def _codes_of_dyadic(num: np.ndarray, exp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the nodes at num / 2**exp, elementwise: the inverse of dyadic_codes.

    Returns (codes, valid).  Only dyadic_codes' canonical pairs are valid:
    (1, 1), (0, 0) and (1, 0), and (odd num < 2**exp, exp) for exponents 2 ..
    MAX_LEVEL - 1, whose codes are 2**exp + num // 2.  Any other pair, one
    that reduces to a node's coordinate included, names no node: its code is 0.
    """
    shift = np.left_shift(np.int64(1), np.clip(exp, 0, MAX_LEVEL))
    root = (num == 1) & (exp == 1)
    boundary = ((num == 0) | (num == 1)) & (exp == 0)
    deep = (exp >= 2) & (exp < MAX_LEVEL) & (num % 2 == 1) & (num > 0) & (num < shift)
    codes = np.where(root, 1, np.where(boundary, 2 + num, np.where(deep, shift + num // 2, 0)))
    return codes, root | boundary | deep


def coordinates(codes) -> np.ndarray:
    """Coordinates of codes, elementwise: num / 2**exp of dyadic_codes, which
    is exact for levels up to 54 and correctly rounded above."""
    num, exp = dyadic_codes(codes)
    return np.ldexp(num, -exp)


def _code_array(codes, shape: tuple) -> np.ndarray:
    """`codes` as an int64 array of `shape`, where None matches any length.

    The checks of every entry point that takes node codes: a wrong shape
    raises DimensionMismatchError, and codes that are not integers, which
    the cast would truncate, raise InvalidNodeError.
    """
    codes = np.asarray(codes)
    if codes.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, codes.shape)):
        want = ", ".join("n" if n is None else str(n) for n in shape)
        raise DimensionMismatchError(f"expected node codes of shape ({want}), got {codes.shape}")
    if codes.size and codes.dtype.kind not in "iu":
        raise InvalidNodeError(f"node codes must be integers, got {codes.dtype}")
    return codes.astype(np.int64, copy=False)


@functools.lru_cache(maxsize=None)
def _row_weights(d: int) -> np.ndarray:
    """Fixed odd int64 weights W_0 .. W_{d-1} for hashing integer rows.

    A row's hash is the sum of row_k * W_k, wrapping in int64: equal rows
    hash equal, and different rows collide only by chance, so users check
    equality or tolerate a collision.  W_k is the splitmix64 finaliser of
    k + 1, made odd: independent, well mixed constants, the same in every
    process.
    """
    z = np.arange(1, d + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return _readonly(((z ^ (z >> np.uint64(31))) | np.uint64(1)).view(np.int64))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridPoint:
    """A d-dimensional collocation node: its code in each dimension."""

    codes: tuple[int, ...]

    def coordinate(self) -> np.ndarray:
        return coordinates(np.array(self.codes, dtype=np.int64))


@dataclass
class HierarchicalNode:
    """A stored collocation node with its output and hierarchical surpluses.

    `w` is output minus the coarser-level interpolant at the point; `v` bears
    the same relation for the squared output (needed for analytic variance).
    `spline` is True where the output came from a spline.
    """

    point: GridPoint
    output: float
    w: float
    v: float
    spline: bool = False


class _Table(NamedTuple):
    """The evaluation kernel's node table, grouped by level vector.

    Within one level vector the nodes' supports are disjoint (up to their
    zero-valued edges), so a query needs one candidate per group.  Groups
    are ordered coarse to fine: by total level, then by level vector, both
    ascending.

    - keys (N + 1,): sorted node keys, group offset + code, where a node's
      code reads its per-dimension indices as a mixed-radix number; a
      sentinel KEY_LIMIT above every key ends the array;
    - coeffs (N + 1, 2): w and v in key order; the sentinel's are 0;
    - cols, strides (G, K): per group, its dimensions above level 1 in
      ascending order as columns ((level - 1) * d + dimension) of the hat
      tables of `_hat_tables`, with their radix strides; short rows are
      padded with column 0 (level 1: hat 1, index 0) and stride 0.  A
      group's level vector is in its row: level col // d + 1 in dimension
      col % d where the stride is > 0, and level 1 elsewhere;
    - full (G,): whether the group holds every one of its level vector's
      nodes, the product of the per-level counts; a level vector's nodes
      all arrive in one add_level, so this never changes;
    - bases (G,): per group, where its node of code 0 lies: for a full
      group its position in `keys`, so base + code is a node's position,
      and for a sparse one its key, the group's offset, so base + code is
      a node's key, found through `slots`.  A group's keys, and so its
      positions, never change once inserted;
    - n_levels: the deepest level of any group in any dimension, so the
      hat columns in use lie below n_levels * d;
    - slots: the open-addressing index of the sparse groups' keys
      (`_indexed`), at least _ROOM times their nodes in size, holding key
      positions and -1, the sentinel's, in empty slots; no slot at all
      while every group is full.
    """

    keys: np.ndarray
    coeffs: np.ndarray
    cols: np.ndarray
    strides: np.ndarray
    full: np.ndarray
    bases: np.ndarray
    n_levels: int
    slots: np.ndarray


def _empty_table() -> _Table:
    cols = np.empty((0, 1), dtype=np.int64)
    return _Table(np.array([KEY_LIMIT]), np.zeros((1, 2)), cols, cols,
                  np.empty(0, dtype=bool), np.empty(0, dtype=np.int64), 1,
                  np.empty(0, dtype=np.int32))


class SurrogateModel:
    """A hierarchical sparse grid interpolant under construction or finished.

    Nodes are stored as arrays (see the module docstring) in insertion order,
    which is always non-decreasing in level: surpluses at a level are
    computed against the prefix of strictly coarser nodes.  Code rows must
    be unique.  Once frozen the model is immutable; evaluation is read-only
    throughout.
    """

    def __init__(self, dimension: int):
        _check_dimension(dimension)
        self.dimension = dimension
        self._codes = _readonly(np.empty((0, dimension), dtype=np.int64))
        self._outputs = self._w = self._v = _readonly(np.empty(0))
        self._spline = _readonly(np.empty(0, dtype=bool))
        self._depth: int | None = None  # level of the last insert
        self._key_span = 0  # node counts of the stored level vectors: the kernel keys in use
        self._frozen = False
        self._table = _empty_table()  # grown by add_level

    # -- container basics ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._outputs)

    @property
    def codes(self) -> np.ndarray:
        """(N, d) per-dimension codes in insertion order (read-only)."""
        return self._codes

    @property
    def outputs(self) -> np.ndarray:
        """Model outputs (or spline values), in insertion order (read-only)."""
        return self._outputs

    @property
    def w(self) -> np.ndarray:
        """Surpluses of the outputs, in insertion order (read-only)."""
        return self._w

    @property
    def v(self) -> np.ndarray:
        """Surpluses of the squared outputs, in insertion order (read-only)."""
        return self._v

    @property
    def spline(self) -> np.ndarray:
        """True where the output came from a spline (read-only)."""
        return self._spline

    @property
    def full_evaluations(self) -> int:
        """Nodes whose output came from a full model evaluation."""
        return len(self._spline) - self.spline_interpolations

    @property
    def spline_interpolations(self) -> int:
        """Nodes whose output came from a spline."""
        return int(np.count_nonzero(self._spline))

    def nodes(self) -> list[HierarchicalNode]:
        """The rows as HierarchicalNodes, in insertion (level-major) order."""
        return [
            HierarchicalNode(GridPoint(tuple(codes)), out, w, v, spline)
            for codes, out, w, v, spline in zip(
                self._codes.tolist(), self._outputs.tolist(), self._w.tolist(),
                self._v.tolist(), self._spline.tolist(),
            )
        ]

    @property
    def depth(self) -> int:
        """Highest reported level present (root counts as level 0)."""
        if self._depth is None:
            raise EmptyModelError("model has no nodes")
        return self._depth

    # -- construction ---------------------------------------------------------

    def add_level(self, codes, outputs, w, v, spline=None) -> None:
        """Insert one level's nodes; row k of `codes` holds node k's codes.

        Every row must lie on one level, deeper than every stored one, and
        no row may repeat another.  The node counts of the model's level
        vectors must stay below KEY_LIMIT (InvalidNodeError otherwise).
        Outputs, w and v must be finite, which a file needs to load
        (ContractViolationError naming the first row otherwise).  `spline`
        marks the rows whose output came from a spline (default: none).
        When a check fails nothing is inserted.
        """
        if self._frozen:
            raise ContractViolationError("model is frozen")
        codes = _code_array(codes, (None, self.dimension))
        n = codes.shape[0]
        spline = np.zeros(n, dtype=bool) if spline is None else spline
        columns = [np.array(a, dtype=t) for a, t in
                   ((outputs, float), (w, float), (v, float), (spline, bool))]
        if any(a.shape != (n,) for a in columns):
            raise DimensionMismatchError(
                f"{n} nodes need outputs, w, v and spline of length {n}"
            )
        bad = np.flatnonzero(~np.isfinite(columns[:3]).all(axis=0))
        if len(bad):
            raise ContractViolationError(f"row {bad[0]} has a non-finite output, w or v: "
                                         f"{[float(a[bad[0]]) for a in columns[:3]]}")
        if n == 0:
            return
        levels, indices = split_codes(codes)
        level = levels.sum(axis=1) - self.dimension
        if level.min() != level.max():
            raise ContractViolationError(
                f"one level per call, got levels {level.min()} .. {level.max()}"
            )
        level = int(level[0])
        if self._depth is not None and level <= self._depth:
            raise ContractViolationError(f"level {level} inserted after level {self._depth}")
        # the level's vectors, found by hash, and after a collision by exact rows
        _, first, member = np.unique(levels @ _row_weights(self.dimension),
                                     return_index=True, return_inverse=True)
        if not (levels[first[member]] == levels).all():
            _, first, member = np.unique(levels, axis=0, return_index=True,
                                         return_inverse=True)
        distinct, member = levels[first], member.ravel()
        # the vectors take the next keys in hash order; node counts are
        # powers of two: 2**(l-1) on levels 1 and 2, 2**(l-2) above
        exponents = np.where(distinct <= 2, distinct - 1, distinct - 2).sum(axis=1)
        ends = list(itertools.accumulate((1 << e for e in exponents.tolist()),
                                         initial=self._key_span))
        if ends[-1] >= KEY_LIMIT:
            raise InvalidNodeError(
                f"the level vectors would hold {ends[-1]} nodes in all, reaching the "
                f"kernel's key limit KEY_LIMIT = 2**63 - 1"
            )
        offsets = np.array(ends[:-1], dtype=np.int64)
        _, w, v, _ = columns
        self._table = _grown(self._table, codes, indices, w, v, distinct, member, offsets)
        self._key_span = ends[-1]
        self._depth = level
        self._codes = _readonly(np.concatenate([self._codes, codes]))
        self._outputs, self._w, self._v, self._spline = (
            _readonly(np.concatenate([old, new])) for old, new in
            zip((self._outputs, self._w, self._v, self._spline), columns)
        )

    def add_node(self, node: HierarchicalNode) -> None:
        """Insert one node as a level of its own: a one-row add_level."""
        self.add_level([node.point.codes], [node.output], [node.w], [node.v], [node.spline])

    def freeze(self) -> None:
        self._frozen = True

    # -- level-vector-indexed evaluation kernel ---------------------------------

    @property
    def _group_count(self) -> int:
        """Level-vector groups in the kernel's table."""
        return len(self._table.full)

    def _evaluate_sum(self, x_many: np.ndarray, columns, stops=None,
                      fine_first: bool = False) -> np.ndarray:
        """Sums of coeff * basis over the nodes, shape (len(columns), len(stops), n).

        `columns` picks coefficients: 0 for w, 1 for v.  Per query and group
        the one candidate node's hat product is formed dimension by dimension
        in ascending order, then the groups' terms are added one by one as a
        left fold (_left_folds): coarse to fine by default, fine to coarse
        with `fine_first` (for surpluses).  Entry [j, s] holds the fold's
        partial sums over the first stops[s] groups of the table, the model
        as it stood with that many groups (module docstring); `stops`
        defaults to every group, the only stop of a fine-to-coarse fold.
        A stop below every group a row visits reads +0.

        A row forms terms only for groups that its block dominates; each
        term left out is +-0 and changes no sum but the sign of a zero one
        (module docstring).  Rows are sorted by the level vectors of their
        coordinates (_grid_levels, capped at the deepest stored level, so a
        coordinate that is no node of a stored level dominates every
        group), and cut into blocks by _blocks; a block forms, for each of
        its rows, the terms of every group that one of its vectors dominates
        (_dominated), in table order, from hat tables of just the columns
        those groups use.  So every scratch array stays near _BLOCK floats.
        Blocks are group-major (see the module docstring): hat tables are
        (columns, rows), taken from the block's coordinates as (d, rows), and
        products, keys and positions are (groups, rows), so each fold step
        adds one contiguous group row.  Each block's sums are written
        straight to its rows' places in the result.
        """
        table = self._table
        stops = np.array([len(table.full)] if stops is None else stops)
        out = np.zeros((len(columns), len(stops), x_many.shape[0]))
        if not len(table.full) or not out.size:
            return out
        n_levels = table.n_levels
        row_levels = _grid_levels(x_many, n_levels)
        order = np.lexsort(row_levels.T[::-1])
        row_levels = row_levels[order]
        # run u of equal level vectors holds the sorted rows bounds[u]:bounds[u + 1]
        bounds = np.flatnonzero((row_levels[1:] != row_levels[:-1]).any(axis=1)) + 1
        bounds = np.concatenate(([0], bounds, [len(order)]))
        run_group, run_pairs = _dominated(row_levels[bounds[:-1]], n_levels, table.cols)
        width = self.dimension * n_levels  # hat columns per row
        picked = np.zeros(len(table.full), dtype=bool)
        for lo, hi, a, b in _blocks(bounds, run_pairs, width):
            picked[:] = False
            picked[run_group[a:b]] = True
            group = np.flatnonzero(picked)
            if not len(group):  # a model without its root, queried on the grid
                continue
            rows = order[lo:hi]
            out[:, :, rows] = _block_sums(table, x_many[rows], group, columns, stops,
                                          fine_first)
        return out

    def interpolate_many(self, x_many) -> np.ndarray:
        """Evaluate the surrogate at a batch of points in [0, 1]^d, shape (n, d).

        A zero sum is +0, so a row's value does not depend on the rows
        batched with it.
        """
        if not len(self):
            raise EmptyModelError("cannot interpolate an empty model")
        x_many = _queries(x_many, self.dimension)
        return self._evaluate_sum(x_many, (0,))[0, 0] + 0.0

    def interpolate(self, x) -> float:
        """Evaluate the surrogate at a single point in [0, 1]^d: a one-row interpolate_many."""
        return float(self.interpolate_many(np.asarray(x, dtype=float)[None])[0])

    def surpluses_against_prefix(self, points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w and v surpluses of new values against the current model state.

        Caller guarantees the model holds only strictly coarser levels (the
        level-ordered drivers do this by construction).  An empty model sums
        to +0, so the surpluses are the values (a -0 stays -0) and their squares.
        `points` are refused as `interpolate_many` refuses them, and `values`
        unless of shape (n,), one per point (DimensionMismatchError).
        """
        points = _queries(points, self.dimension)
        if np.shape(values) != (len(points),):
            raise DimensionMismatchError(
                f"expected {len(points)} values, got shape {np.shape(values)}"
            )
        sums = self._evaluate_sum(points, (0, 1), fine_first=True)
        return values - sums[0, 0], values ** 2 - sums[1, 0]


# queries x groups per kernel block: bounds the kernel's scratch arrays
_BLOCK = 1 << 16

# queries x groups up to which whole runs of level vectors share a block: a
# shared block saves per-block work, but each of its rows forms terms for the
# union of the runs' groups
_MERGE = _BLOCK // 4

# the smallest positive double, 2**-1074: a grid node of level 1075
_TINY = np.nextafter(0.0, 1.0)


def _nodes_per_level(levels):
    """New nodes on each level: 1, 2, then 2**(i-2)."""
    return np.where(levels <= 2, levels, np.left_shift(1, np.maximum(levels - 2, 0)))


def _grown(table: _Table, codes, indices, w, v, vectors, member, offsets) -> _Table:
    """`table` with one level appended, deeper than every level in it.

    `codes` are the level's rows and `indices` their per-dimension indices,
    `vectors` its level vectors, `member` each row's vector and `offsets`
    the vectors' first keys, ascending.  A node's key is its vector's
    offset plus its indices read as a mixed-radix number, whose radices are
    the vector's per-level node counts.  The keys lie above the table's and
    the vectors' total level above every group's, so keys and coefficients
    go in key order before the sentinel, and new groups after the old ones
    in level-vector order.  A vector's keys lie below the next one's
    offset, so its nodes are one run of the sorted keys; it is full when
    the run holds all of its nodes, and only the sparse vectors' keys enter
    the slot index.  Only the new groups' columns are laid out: stored rows
    keep theirs, padded with column 0 and stride 0 when a new group refines
    more dimensions.  A node twice among the new ones raises
    ContractViolationError.
    """
    radix = _nodes_per_level(vectors)
    strides = np.cumprod(radix, axis=1) // radix
    node_keys = offsets[member] + (indices * strides[member]).sum(axis=1)
    order = np.argsort(node_keys)
    node_keys = node_keys[order]
    repeat = node_keys[1:] == node_keys[:-1]
    if repeat.any():
        row = codes[order[repeat.argmax() + 1]]
        raise ContractViolationError(f"duplicate node {row.tolist()}")
    known = len(table.keys) - 1  # the new keys' first position
    first = np.searchsorted(node_keys, offsets)
    count = np.diff(first, append=len(node_keys))
    full = count == radix.prod(axis=1)
    bases = np.where(full, known + first, offsets)
    keys = np.concatenate([table.keys[:-1], node_keys, table.keys[-1:]])
    coeffs = np.concatenate([table.coeffs[:-1], np.stack([w[order], v[order]], axis=1),
                             table.coeffs[-1:]])
    slots = _indexed(table.slots, keys, known + np.flatnonzero(np.repeat(~full, count)))
    rank = np.lexsort(vectors.T[::-1])
    vectors, strides = vectors[rank], strides[rank]
    refined = vectors > 1
    width = max(table.cols.shape[1], int(refined.sum(axis=1).max()))
    dims = np.argsort(~refined, axis=1, kind="stable")[:, :width]
    used = np.take_along_axis(refined, dims, axis=1)
    lv = np.take_along_axis(vectors, dims, axis=1)
    cols = np.where(used, (lv - 1) * vectors.shape[1] + dims, 0)
    strides = np.where(used, np.take_along_axis(strides, dims, axis=1), 0)
    pad = ((0, 0), (0, width - table.cols.shape[1]))
    return _Table(keys, coeffs, np.concatenate([np.pad(table.cols, pad), cols]),
                  np.concatenate([np.pad(table.strides, pad), strides]),
                  np.concatenate([table.full, full[rank]]),
                  np.concatenate([table.bases, bases[rank]]),
                  max(table.n_levels, int(vectors.max())), slots)


# the slot index's hash multiplier: 2**64 over the golden ratio, made odd,
# whose top product bits spread runs of consecutive keys evenly (Knuth's
# multiplicative hashing)
_HASH = np.uint64(0x9E3779B97F4A7C15)

# slots per indexed key, at least: most kernel lookups in a sparse group are
# misses, which walk to an empty slot, so the index is kept at most 1/_ROOM
# full (see _indexed)
_ROOM = 8


def _homes(keys: np.ndarray, size: int) -> np.ndarray:
    """Home slots of int64 keys (any shape) in an index of `size` slots, a
    power of two >= 2: the top log2(size) bits of key * _HASH mod 2**64."""
    homes = keys.view(np.uint64) * _HASH
    homes >>= np.uint64(65 - size.bit_length())
    return homes.view(np.int64)


def _indexed(slots: np.ndarray, keys: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The slot index `slots` with the positions `new` of `keys` (sorted,
    sentinel last) added.

    The positions go into a copy of `slots` by linear probing; the index is
    rebuilt, with the positions it held, at the least power of two at least
    _ROOM times its keys once they would fill more than 1/_ROOM of it, in
    int32 while every position fits.  Keys are placed in rounds: each
    writes itself to its current slot if that is free, and those that did
    not stay there (the slot was full, or another key of the round wrote it
    last) move one slot on, so every key lies on an unbroken run of full
    slots from its home, which a lookup's probe walks.
    """
    if not len(new):
        return slots
    held = slots[slots >= 0]
    n = len(held) + len(new)
    if _ROOM * n > len(slots):
        size = 1 << (_ROOM * n - 1).bit_length()
        slots = np.full(size, -1, dtype=np.int32 if size <= 1 << 31 else np.int64)
        new = np.concatenate([held, new])
    else:
        slots = slots.copy()
    pending = new.astype(slots.dtype)
    slot = _homes(keys[new], len(slots))
    while len(pending):
        free = slots[slot] < 0
        slots[slot[free]] = pending[free]
        left = slots[slot] != pending
        pending, slot = pending[left], (slot[left] + 1) & (len(slots) - 1)
    return slots


def _positions(slots: np.ndarray, keys: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Positions in `keys` of the int64 keys `code`, any shape, that `slots`
    indexes; -1, the sentinel's position, for a key it does not hold.

    One gather reads every key's home slot.  An empty home ends a key's
    lookup as a miss without reading `keys`, as most misses do at the
    index's load (_ROOM); the keys that find another key there walk on, a
    slot per round, until they meet their own key or an empty slot.
    """
    pos = slots[_homes(code, len(slots))]
    flat, wanted = pos.reshape(-1), code.reshape(-1)
    probe = np.flatnonzero(flat >= 0)
    probe = probe[keys[flat[probe]] != wanted[probe]]  # occupied by another key
    slot = _homes(wanted[probe], len(slots))
    while len(probe):
        slot = (slot + 1) & (len(slots) - 1)
        found = flat[probe] = slots[slot]
        on = (keys[found] != wanted[probe]) & (found >= 0)
        probe, slot = probe[on], slot[on]
    return pos


def _left_folds(terms: np.ndarray) -> np.ndarray:
    """Row k: the left fold ((terms[0] + terms[1]) + ...) + terms[k] over the
    rows of a (G, n) array.

    Both forms add the same pairs in the same order, so they agree bit for
    bit: one in-place add per row (into `terms`) when the rows are long
    enough to carry the loop's per-row cost, else one accumulate (never
    pairwise summation) down the columns.
    """
    if terms.shape[1] < len(terms):
        return np.cumsum(terms, axis=0)
    for k in range(1, len(terms)):
        terms[k] += terms[k - 1]
    return terms


def _block_sums(table: _Table, x: np.ndarray, group: np.ndarray, columns, stops,
                fine_first: bool) -> np.ndarray:
    """One kernel block's sums, shape (len(columns), len(stops), rows): the
    folds of the terms of the table's groups `group` (ascending) at the
    block's rows `x`, as _evaluate_sum describes.  Every scratch array is
    freed on return, before the next block's are made."""
    keys, coeffs, cols, strides, full, bases, n_levels, slots = table
    # the hat columns the groups use, renumbered 0 .. used - 1
    needed = np.zeros(n_levels * x.shape[1], dtype=bool)  # per hat column
    needed[cols[group]] = True
    column = np.cumsum(needed) - 1
    level, dim = np.divmod(np.flatnonzero(needed), x.shape[1])
    hat, index = _hat_tables(x.T[dim], *_PER_LEVEL[:, level, None])
    c, s = column[cols[group]], strides[group, :, None]
    prod = hat[c[:, 0]]
    pos = index[c[:, 0]] * s[:, 0] + bases[group, None]
    for k in range(1, c.shape[1]):
        prod *= hat[c[:, k]]
        pos += index[c[:, k]] * s[:, k]
    # a full group's codes are positions; a sparse group's are keys, looked
    # up in the index, where -1 reads the sentinel's zero coeffs
    sparse = ~full[group]
    if sparse.any():
        pos[sparse] = _positions(slots, keys, pos[sparse])
    cut = (group[:, None] < stops).sum(axis=0)  # the groups below each stop
    sums = np.zeros((len(columns), len(stops), len(x)))
    for j, col in enumerate(columns):
        terms = coeffs[pos, col]
        terms *= prod
        folds = _left_folds(terms[::-1] if fine_first else terms)
        sums[j, cut > 0] = folds[cut[cut > 0] - 1]
    return sums


def _blocks(bounds: np.ndarray, pairs: np.ndarray, width: int):
    """The kernel's blocks of sorted rows, as (lo, hi, a, b): rows lo .. hi - 1
    form the terms of run_group[a:b], the groups their runs dominate.

    Run u holds rows bounds[u] .. bounds[u + 1] - 1 and dominates
    run_group[pairs[u]:pairs[u + 1]] (_dominated); `width` is the hat
    columns per row.  A block holds whole runs while rows x their groups
    stay within _MERGE (each run's count bounding its groups' union), or
    else an even share of one run, of at most _BLOCK // max(groups, width)
    rows.
    """
    u, lo = 0, 0
    while lo < bounds[-1]:
        rows = bounds[u + 1:] - lo
        selected = np.maximum(pairs[u + 1:] - pairs[u], width)
        # whole runs that fit in _MERGE (rows * selected only grows), or else
        # an even share of the one run
        m = np.count_nonzero(rows * selected <= _MERGE) if lo == bounds[u] else 0
        if m:
            hi, last = bounds[u + m], u + m
        else:
            shares = -(-rows[0] * selected[0] // _BLOCK)
            hi = lo + -(-rows[0] // shares)
            last = u + 1 if hi == bounds[u + 1] else u
        yield lo, hi, pairs[u], pairs[u + max(m, 1)]
        lo, u = hi, last


def _per_level(n_levels: int) -> np.ndarray:
    """Constants of levels 1 .. n_levels for _hat_tables, shape (4, n_levels).

    Rows (count, shift, scale, slope): the level's node count n_l; the centre of
    its node `index` as (index + shift) / scale, which is exact and equals
    `coordinates`; and the hat's slope 2**(l-1), 0 on level 1.
    """
    level = np.arange(1, n_levels + 1)
    count = _nodes_per_level(level).astype(float)
    shift = np.where(level == 2, 0.0, 0.5)
    scale = np.where(level == 2, 1.0, count)
    slope = np.where(level == 1, 0.0, np.ldexp(1.0, level - 1))
    return np.stack([count, shift, scale, slope])


# the _hat_tables constants of every level a model stores; column l - 1 is level l's
_PER_LEVEL = _readonly(_per_level(MAX_LEVEL))


def _hat_tables(x: np.ndarray, count, shift, scale, slope) -> tuple[np.ndarray, np.ndarray]:
    """Per hat column and query: the one node of the column's level whose support holds x.

    `x` holds, per column, the queries' coordinates in the column's
    dimension, shape (m, n); the other arguments are the `_per_level`
    constants of each column's level, shape (m, 1).  Returns (hat, index),
    both (m, n).  The index is min(floor(x * n_l), n_l - 1) for the level's
    n_l nodes, so x = 1 falls to the last node; level 2 picks node 0 on
    [0, 1/2) and node 1 on [1/2, 1].  The hat is 1 - |x - c| * 2**(l-1)
    (constant 1 on level 1), with no clamp at 0: x lies in the node's
    support, so the value is never negative.
    """
    index = np.minimum(np.floor(x * count), count - 1)
    hat = 1.0 - np.abs(x - (index + shift) / scale) * slope
    return hat, index.astype(np.int64)


def _grid_levels(xs: np.ndarray, cap: int) -> np.ndarray:
    """Per coordinate, the level of the 1-D grid node at it, at most `cap`.

    A coordinate odd / 2**p is the node of level p + 1 for p >= 2; 0.5 is
    level 1, and 0 and 1 are level 2.  Every double in [0, 1] is such a
    node, of level up to 1075; p is read exactly from the float's exponent
    and the trailing zeros of its 53-bit significand.  Coordinates outside
    [0, 1], and NaN, read as the smallest double, 2**-1074, does: level 1075.
    """
    levels = np.empty(xs.shape, dtype=np.int16)
    step = max(1, _BLOCK // xs.shape[1])  # rows per pass: scratch near _BLOCK words
    for lo in range(0, len(xs), step):
        x = xs[lo:lo + step]
        mantissa, exponent = np.frexp(np.where((x >= 0.0) & (x <= 1.0), x, _TINY))
        # x = digits * 2**(exponent - 53); bit 53 stands in for 0's missing digits
        digits = np.ldexp(mantissa, 53).astype(np.int64) | (1 << 53)
        p = 54 - exponent - np.frexp(digits & -digits)[1]  # x = odd / 2**p
        levels[lo:lo + step] = np.minimum(np.where(p >= 2, p + 1, 2 - p), cap)
    return levels


def _dominated(vectors: np.ndarray, n_levels: int, cols: np.ndarray):
    """The groups each of the (U, d) level `vectors` dominates componentwise.

    Returns (group, start): the dominated group rows of vector u, ascending,
    are group[start[u]:start[u + 1]].  A group's hat columns `cols` name its
    refined dimensions and levels (padding names level 1, which every vector
    reaches), so one (U, G, K) gather of "the vector reaches this level in
    this dimension" decides dominance; it runs in chunks of vectors to keep
    the gather near 8 * _BLOCK booleans.
    """
    # reach[u, (l - 1) * d + k]: vector u reaches level l in dimension k,
    # laid out as the hat columns are
    reach = (vectors[:, None] >= np.arange(1, n_levels + 1)[:, None]).reshape(len(vectors), -1)
    chunk = max(1, 8 * _BLOCK // cols.size)
    group, counts = [], []
    for a in range(0, len(vectors), chunk):
        mask = reach[a:a + chunk][:, cols].all(axis=2)
        group.append(np.nonzero(mask)[1])
        counts.append(mask.sum(axis=1))
    return np.concatenate(group), np.cumsum(np.concatenate([[0], *counts]))


def _queries(x_many, d: int) -> np.ndarray:
    """`x_many` as a float array of shape (n, d) of points in the closed unit cube.

    Another shape raises DimensionMismatchError, and a row outside the cube
    or holding NaN OutOfDomainError: the hat basis would otherwise extend
    the surrogate outside the cube with plausible-looking values.
    """
    x_many = np.asarray(x_many, dtype=float)
    if x_many.ndim != 2 or x_many.shape[1] != d:
        raise DimensionMismatchError(f"expected shape (n, {d}), got {x_many.shape}")
    inside = (x_many >= 0.0) & (x_many <= 1.0)  # False for NaN
    if not inside.all():
        row = int(np.flatnonzero(~inside.all(axis=1))[0])
        raise OutOfDomainError(f"query {x_many[row].tolist()} lies outside [0, 1]^d")
    return x_many
