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
nodes by level vector under integer codes and finds each group's candidate
with one binary search, so a batch of queries costs
O(queries * level vectors * (d + log nodes)) instead of O(queries * nodes * d)
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
ascending) and grows as levels are inserted; one kernel folds the groups'
terms in either direction:

- queries (interpolate, interpolate_many) add them coarse to fine.  A new,
  deeper level appends its groups at the table's end, so the sum after level
  k continues the sum after level k-1 exactly: a caller holding the sums of a
  model's earlier levels adds only the new groups and gets, bit for bit, a
  fresh evaluation of the grown model (run_study's error columns do this);
- surpluses (surpluses_against_prefix) add them fine to coarse.  The small
  fine-level terms meet each other before the large coarse ones, which keeps
  piecewise-linear data's surpluses exactly 0 more often than coarse to fine
  or pairwise summation does.  Every w and v, and so every saved file,
  depends on this order to the last bit.

The kernel works in blocks laid out group by group: a block's hat tables
are (hat columns, rows) and its products, node keys and table positions are
(groups, rows).  One binary search then walks one group's keys after
another, and each group's keys lie in that group's own key range; rows
sorted by code (as refinement candidates arrive, and the kernel's sort by
level vector is stable) ask for them mostly in ascending order, so
consecutive searches land close together.  The fold adds whole contiguous
group rows, one group after the other in table order, in one of two forms
chosen by the block's shape that add the same pairs in the same order.

A model stores its nodes as a struct of arrays, in insertion order: one
(N, d) int64 array of per-dimension codes; float arrays of outputs, w and v
surpluses; and a boolean provenance array, True where the output came from a
spline, from which the evaluation counts are read.  The kernel's sorted key
table (below) is the one index of the nodes and of their level vectors: it
answers membership, rejects duplicates and gives each stored level vector's
first key, and codes of no node are refused.  The code of the 1-D node of
level l and index i is c = 2**(l-1) + i:

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
    - levels (G, d): the groups' level vectors;
    - cols, strides (G, K): per group, its dimensions above level 1 in
      ascending order as columns (dimension * n_levels + level - 1) of the
      hat tables of `_hat_tables`, with their radix strides; short
      rows are padded with column 0 (level 1: hat 1, index 0) and stride 0;
    - offsets (G,): each group's first key, in the order the groups were
      inserted, so a group's keys never change;
    - per_level: the `_per_level` constants of levels 1 .. n_levels, the
      deepest level of any group.
    """

    keys: np.ndarray
    coeffs: np.ndarray
    levels: np.ndarray
    cols: np.ndarray
    strides: np.ndarray
    offsets: np.ndarray
    per_level: np.ndarray


def _empty_table(d: int) -> _Table:
    groups = np.empty((0, d), dtype=np.int64)
    return _Table(np.array([KEY_LIMIT]), np.zeros((1, 2)), groups,
                  groups[:, :1], groups[:, :1], np.empty(0, dtype=np.int64), _per_level(1))


class SurrogateModel:
    """A hierarchical sparse grid interpolant under construction or finished.

    Nodes are stored as arrays (see the module docstring) in insertion order,
    which is always non-decreasing in level: surpluses at a level are
    computed against the prefix of strictly coarser nodes.  Code rows must
    be unique.  Once frozen the model is immutable; evaluation is read-only
    throughout.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise InvalidNodeError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._codes = _readonly(np.empty((0, dimension), dtype=np.int64))
        self._outputs = self._w = self._v = _readonly(np.empty(0))
        self._spline = _readonly(np.empty(0, dtype=bool))
        self._depth: int | None = None  # level of the last insert
        self._key_span = 0  # node counts of the stored level vectors: the kernel keys in use
        self._frozen = False
        self._table = _empty_table(dimension)  # grown by add_level

    # -- container basics ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._outputs)

    def __contains__(self, codes) -> bool:
        """Whether a row of d codes is stored (InvalidNodeError for codes of no node)."""
        return bool(self.stored(_code_array(codes, (self.dimension,))[None, :])[0])

    def stored(self, codes) -> np.ndarray:
        """Boolean mask of the rows of an (n, d) code array already stored.

        The rows of level vectors the model holds are looked up by their
        kernel keys in the table; the others are not stored, and their keys,
        which may wrap int64, are never formed.  Raises InvalidNodeError for
        codes of no node.
        """
        codes = _code_array(codes, (None, self.dimension))
        _, indices, distinct, member, offsets = self._grouped(codes)
        known = np.flatnonzero(offsets[member] >= 0)
        keys = _node_keys(distinct, member[known], offsets, indices[known])
        table = self._table.keys
        found = np.zeros(len(codes), dtype=bool)
        found[known] = table[np.searchsorted(table, keys)] == keys
        return found

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

        Every row must lie on one level, not below the deepest stored one,
        and no row may be stored already or repeat another.  The node counts
        of the model's level vectors must stay below KEY_LIMIT (InvalidNodeError
        otherwise).  `spline` marks the rows whose output came from a spline
        (default: none).  When a check fails nothing is inserted.
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
        if n == 0:
            return
        levels, indices, distinct, member, offsets = self._grouped(codes)
        level = levels.sum(axis=1) - self.dimension
        if level.min() != level.max():
            raise ContractViolationError(
                f"one level per call, got levels {level.min()} .. {level.max()}"
            )
        level = int(level[0])
        if self._depth is not None and level < self._depth:
            raise ContractViolationError(f"level {level} inserted after level {self._depth}")
        # new level vectors take the next keys in turn; node counts are
        # powers of two: 2**(l-1) on levels 1 and 2, 2**(l-2) above
        fresh = offsets < 0
        exponents = np.where(distinct <= 2, distinct - 1, distinct - 2).sum(axis=1)
        ends = list(itertools.accumulate((1 << e for e in exponents[fresh].tolist()),
                                         initial=self._key_span))
        if ends[-1] >= KEY_LIMIT:
            raise InvalidNodeError(
                f"the level vectors would hold {ends[-1]} nodes in all, reaching the "
                f"kernel's key limit KEY_LIMIT = 2**63 - 1"
            )
        offsets[fresh] = ends[:-1]
        _, w, v, _ = columns
        self._table = _grown(self._table, _node_keys(distinct, member, offsets, indices),
                             codes, w, v, distinct[fresh], offsets[fresh])
        self._key_span = ends[-1]
        self._depth = level
        self._codes = _readonly(np.concatenate([self._codes, codes]))
        self._outputs, self._w, self._v, self._spline = (
            _readonly(np.concatenate([old, new])) for old, new in
            zip((self._outputs, self._w, self._v, self._spline), columns)
        )

    def _grouped(self, codes: np.ndarray):
        """(levels, indices, distinct, member, offsets) of an (n, d) code array.

        split_codes' levels and indices, the distinct level vectors of the
        rows, each row's one among them, and each vector's first kernel key,
        -1 where the model holds no node of it.  The rows' vectors are found
        among the kernel table's by hash, and after a collision by exact rows.
        """
        levels, indices = split_codes(codes)
        table = self._table
        vectors = np.concatenate([table.levels, levels])
        _, first, member = np.unique(vectors @ _row_weights(self.dimension),
                                     return_index=True, return_inverse=True)
        if not (vectors[first[member[len(table.levels):]]] == levels).all():
            _, first, member = np.unique(vectors, axis=0, return_index=True,
                                         return_inverse=True)
        used, member = np.unique(member.ravel()[len(table.levels):], return_inverse=True)
        first = first[used]  # the rows' vectors, in hash order
        offsets = np.append(table.offsets, -1)[np.minimum(first, len(table.levels))]
        return levels, indices, vectors[first], member, offsets

    def add_node(self, node: HierarchicalNode) -> None:
        """Insert one node: a one-row add_level."""
        self.add_level([node.point.codes], [node.output], [node.w], [node.v], [node.spline])

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- level-vector-indexed evaluation kernel ---------------------------------

    @property
    def _group_count(self) -> int:
        """Level-vector groups in the kernel's table."""
        return len(self._table.offsets)

    def _evaluate_sum(self, x_many: np.ndarray, columns, first: int = 0, start=None,
                      fine_first: bool = False) -> np.ndarray:
        """Sums of coeff * basis over the nodes, shape (n, len(columns)).

        `columns` picks coefficients: 0 for w, 1 for v.  Per query and group
        the one candidate node's hat product is formed dimension by dimension
        in ascending order, then the terms of the groups from table position
        `first` on are added one by one onto `start` (shape
        (n, len(columns))), if given, as a left fold (_left_fold): coarse to
        fine by default, fine to coarse with `fine_first` (for surpluses).
        The module docstring says why each order, and why the sums of groups
        0 .. first - 1 passed as `start` give, bit for bit, the fold over
        every group.

        A row forms terms only for groups that its block dominates; each
        term left out is +-0 and changes no sum but the sign of a zero one
        (module docstring).  Rows are sorted by the level vectors of their
        coordinates (_grid_levels, capped at the deepest stored level, so a
        coordinate that is no node of a stored level dominates every
        group).  A block holds whole runs of equal
        vectors while rows x their groups stay within _MERGE, or else an even
        share of one run, of at most _BLOCK // max(groups, hat columns) rows;
        it forms, for each of its rows, the terms of every group that one of
        its vectors dominates (_dominated), in table order, from hat tables of
        just the columns those groups use.  So every scratch array stays near
        _BLOCK floats.  Blocks are group-major (see the module docstring):
        hat tables are (columns, rows), taken from the block's coordinates
        as (d, rows), and products, keys and positions are (groups, rows),
        so one searchsorted call looks up each group's keys together and
        each fold step adds one contiguous group row.  The sums go back to
        the rows' own order.
        """
        keys, coeffs, levels, cols, strides, offsets, per_level = self._table
        cols, strides, offsets = cols[first:], strides[first:], offsets[first:]
        out = np.zeros((x_many.shape[0], len(columns))) if start is None else start.copy()
        if not len(offsets) or not len(out):
            return out
        n_levels = per_level.shape[1]
        row_levels = _grid_levels(x_many, n_levels)
        order = np.lexsort(row_levels.T[::-1])
        row_levels, sums = row_levels[order], out[order]
        # run u of equal level vectors holds the sorted rows bounds[u]:bounds[u + 1]
        bounds = np.flatnonzero((row_levels[1:] != row_levels[:-1]).any(axis=1)) + 1
        bounds = np.concatenate(([0], bounds, [len(sums)]))
        run_group, run_pairs = _dominated(row_levels[bounds[:-1]], n_levels, cols)
        width = levels.shape[1] * n_levels  # hat columns per row
        picked, needed = np.zeros(len(offsets), dtype=bool), np.zeros(width, dtype=bool)
        lo = 0
        while lo < len(sums):
            u = np.searchsorted(bounds, lo, side="right") - 1  # the run holding row lo
            rows = bounds[u + 1:] - lo
            selected = np.maximum(run_pairs[u + 1:] - run_pairs[u], width)
            # whole runs that fit in _MERGE, or else an even share of the one run
            m = np.searchsorted(rows * selected, _MERGE, side="right") if lo == bounds[u] else 0
            if m:
                hi = bounds[u + m]
            else:
                shares = -(-rows[0] * selected[0] // _BLOCK)
                hi = lo + -(-rows[0] // shares)
            picked[:] = False
            picked[run_group[run_pairs[u]:run_pairs[u + max(m, 1)]]] = True
            group = np.flatnonzero(picked)
            block, lo = slice(lo, hi), hi
            if not len(group):  # a model without its root, queried on the grid
                continue
            # the hat columns the groups use, renumbered 0 .. used - 1
            needed[:] = False
            needed[cols[group]] = True
            column = np.cumsum(needed) - 1
            used = np.flatnonzero(needed)
            dim, level = np.divmod(used, n_levels)
            hat, index = _hat_tables(x_many[order[block]].T[dim], *per_level[:, level, None])
            c, s = column[cols[group]], strides[group, :, None]
            prod = hat[c[:, 0]]
            code = index[c[:, 0]] * s[:, 0] + offsets[group, None]
            for k in range(1, c.shape[1]):
                prod *= hat[c[:, k]]
                code += index[c[:, k]] * s[:, k]
            pos = np.searchsorted(keys, code)  # group by group: keys close together
            prod *= keys[pos] == code  # 0 where no node of the group holds x
            for j, col in enumerate(columns):
                terms = coeffs[pos, col] * prod
                if fine_first:
                    terms = terms[::-1]
                if start is not None:
                    terms[0] += sums[block, j]
                sums[block, j] = _left_fold(terms)
        out[order] = sums
        return out

    def interpolate_many(self, x_many, coeff: str = "w") -> np.ndarray:
        """Evaluate the surrogate at a batch of points in [0, 1]^d, shape (n, d).

        `coeff` picks the surpluses summed: "w" for the surrogate of the
        output, "v" for that of the squared output.  A zero sum is +0, so a
        row's value does not depend on the rows batched with it.
        """
        if coeff not in ("w", "v"):
            raise ValueError(f"coeff must be 'w' or 'v', got {coeff!r}")
        if not len(self):
            raise EmptyModelError("cannot interpolate an empty model")
        x_many = np.asarray(x_many, dtype=float)
        if x_many.ndim != 2 or x_many.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"expected shape (n, {self.dimension}), got {x_many.shape}"
            )
        _check_domain(x_many)
        return self._evaluate_sum(x_many, (0,) if coeff == "w" else (1,))[:, 0] + 0.0

    def interpolate(self, x) -> float:
        """Evaluate the surrogate at a single point in [0, 1]^d: a one-row interpolate_many."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected shape ({self.dimension},), got {x.shape}"
            )
        return float(self.interpolate_many(x[None])[0])

    def surpluses_against_prefix(self, points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w and v surpluses of new values against the current model state.

        Caller guarantees the model holds only strictly coarser levels (the
        level-ordered drivers do this by construction).
        """
        if len(self) == 0:
            return values.copy(), values.copy() ** 2
        sums = self._evaluate_sum(points, (0, 1), fine_first=True)
        return values - sums[:, 0], values ** 2 - sums[:, 1]


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


def _node_keys(distinct, member, offsets, indices) -> np.ndarray:
    """Kernel keys of nodes: their level vector's first key plus their
    per-dimension indices read as a mixed-radix number.  `distinct` holds
    the level vectors, `member` each node's row of it, `offsets` their first
    keys."""
    radix = _nodes_per_level(distinct)
    strides = np.cumprod(radix, axis=1) // radix
    return offsets[member] + (indices * strides[member]).sum(axis=1)


def _grown(table: _Table, node_keys, codes, w, v, fresh, offsets) -> _Table:
    """`table` with one level's nodes merged in.

    `node_keys` are the nodes' keys and `codes` their rows, `fresh` the level
    vectors not yet in the table and `offsets` their first keys.  Keys and
    coefficients go to their sorted places and new groups to their
    coarse-to-fine places, so the table is the same whichever way the nodes
    were split into calls.  The per-group columns are laid out anew, since
    a deeper level moves every column of the hat tables.  A node already in
    the table, or twice among the new ones, raises ContractViolationError.
    """
    order = np.argsort(node_keys)
    node_keys = node_keys[order]
    at = np.searchsorted(table.keys, node_keys)
    repeat = table.keys[at] == node_keys
    repeat[1:] |= node_keys[1:] == node_keys[:-1]
    if repeat.any():
        raise ContractViolationError(f"duplicate node {codes[order[repeat.argmax()]].tolist()}")
    keys = np.insert(table.keys, at, node_keys)
    coeffs = np.insert(table.coeffs, at, np.stack([w[order], v[order]], axis=1), axis=0)
    if not len(fresh):
        return table._replace(keys=keys, coeffs=coeffs)
    groups = np.concatenate([table.levels, fresh])
    rank = np.lexsort(np.vstack([groups.T[::-1], groups.sum(axis=1)]))
    groups = groups[rank]
    offsets = np.concatenate([table.offsets, offsets])[rank]
    radix = _nodes_per_level(groups)
    strides = np.cumprod(radix, axis=1) // radix
    n_levels = int(groups.max())
    refined = groups > 1
    width = max(1, int(refined.sum(axis=1).max()))
    dims = np.argsort(~refined, axis=1, kind="stable")[:, :width]
    used = np.take_along_axis(refined, dims, axis=1)
    lv = np.take_along_axis(groups, dims, axis=1)
    cols = np.where(used, dims * n_levels + lv - 1, 0)
    strides = np.where(used, np.take_along_axis(strides, dims, axis=1), 0)
    return _Table(keys, coeffs, groups, cols, strides, offsets, _per_level(n_levels))


def _left_fold(terms: np.ndarray) -> np.ndarray:
    """((terms[0] + terms[1]) + terms[2]) + ... over the rows of a (G, n) array.

    Both forms add the same pairs in the same order, so they agree bit for
    bit: one in-place add per row (into terms[0]) when the rows are long
    enough to carry the loop's per-row cost, else one accumulate (never
    pairwise summation) down the columns, whose last row is the fold.
    """
    if terms.shape[1] < len(terms):
        return np.cumsum(terms, axis=0)[-1]
    acc = terms[0]
    for row in terms[1:]:
        acc += row
    return acc


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
    reach = (vectors[:, :, None] >= np.arange(1, n_levels + 1)).reshape(len(vectors), -1)
    chunk = max(1, 8 * _BLOCK // cols.size)
    group, counts = [], []
    for a in range(0, len(vectors), chunk):
        mask = reach[a:a + chunk][:, cols].all(axis=2)
        group.append(np.nonzero(mask)[1])
        counts.append(mask.sum(axis=1))
    return np.concatenate(group), np.cumsum(np.concatenate([[0], *counts]))


def _check_domain(x_many: np.ndarray) -> None:
    """Refuse query rows outside the closed unit cube or containing NaN.

    The hat basis would otherwise extend the surrogate outside the cube with
    plausible-looking values.
    """
    inside = (x_many >= 0.0) & (x_many <= 1.0)  # False for NaN
    if not inside.all():
        row = int(np.flatnonzero(~inside.all(axis=1))[0])
        raise OutOfDomainError(f"query {x_many[row].tolist()} lies outside [0, 1]^d")
