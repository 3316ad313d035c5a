"""Node hierarchy, basis functions, surpluses and the interpolation property.

The library holds nodes as integer code rows; tests/reference.py holds the
one-node-at-a-time definitions they are checked against.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from reference import NodeIndex1D, Point, point, root_point
from sgsurrogate import (
    METHODS,
    AdaptiveConfig,
    ContractViolationError,
    DimensionMismatchError,
    EmptyModelError,
    GridPoint,
    HierarchicalNode,
    InvalidNodeError,
    ModelFunction,
    RegionDatabase,
    SmoothRegion,
    SurrogateModel,
    OutOfDomainError,
    build,
    coordinates,
    get_benchmark,
    join_codes,
    load_surrogate,
    refine_candidates,
    run_csc,
    save_surrogate,
    split_codes,
)
from sgsurrogate import core
from sgsurrogate.core import MAX_LEVEL, _codes_of_dyadic, dyadic_codes
from sgsurrogate.io import _split_of


def level_coords(level):
    """Oracle: coordinates of the level's newly added nodes, by definition."""
    if level == 1:
        return [0.5]
    if level == 2:
        return [0.0, 1.0]
    return [(2 * j + 1) * 2.0 ** (1 - level) for j in range(2 ** (level - 2))]


def grid_coords(level):
    """Oracle: the full nested grid up to a level."""
    out = []
    for lv in range(1, level + 1):
        out.extend(level_coords(lv))
    return sorted(out)


def level_codes(level):
    """The codes of the level's new nodes, by join_codes."""
    count = len(level_coords(level))
    return join_codes([level] * count, list(range(count)))


def one_node(p: Point) -> SurrogateModel:
    """A model of the single node `p` with w = 1: it evaluates p's basis."""
    m = SurrogateModel(p.dimension)
    m.add_level(ref.codes(p), [1.0], [1.0], [1.0])
    return m


def basis(p: Point, x) -> float:
    """The library's basis of node `p` at x, through the evaluation kernel."""
    return one_node(p).interpolate(x)


def sons_of(*points: Point) -> np.ndarray:
    """The library's refinement sons of points, as a code array."""
    return refine_candidates(ref.codes(*points))


class TestNodeHierarchy:
    def test_coord_examples(self):
        np.testing.assert_array_equal(coordinates(join_codes([1, 2, 4], [0, 1, 2])),
                                      [0.5, 1.0, 0.625])
        assert ref.coord_1d(NodeIndex1D(1, 0)) == 0.5
        assert ref.coord_1d(NodeIndex1D(2, 1)) == 1.0
        # enumerate level-4 new nodes {1/8, 3/8, 5/8, 7/8}
        assert level_coords(4) == [0.125, 0.375, 0.625, 0.875]
        assert coordinates(level_codes(4)).tolist() == level_coords(4)
        assert ref.coord_1d(NodeIndex1D(4, 2)) == 0.625

    @pytest.mark.parametrize("level,index", [(0, 0), (1, 1), (2, 2), (3, 2), (5, 8), (4, -1)])
    def test_invalid_nodes(self, level, index):
        with pytest.raises(InvalidNodeError):
            join_codes([level], [index])
        with pytest.raises(ValueError):
            NodeIndex1D(level, index)

    def test_counts_match_oracle(self):
        for level in range(1, 12):
            grid = np.concatenate([level_codes(lv) for lv in range(1, level + 1)])
            assert len(grid) == len(grid_coords(level)) == ref.cumulative_nodes(level)
            assert sorted(coordinates(grid).tolist()) == grid_coords(level)
        assert ref.cumulative_nodes(1) == 1
        assert [ref.cumulative_nodes(i) for i in range(2, 7)] == [3, 5, 9, 17, 33]

    def test_nestedness_and_disjoint_deltas(self):
        for level in range(2, 10):
            coarse = set(grid_coords(level - 1))
            fine = set(grid_coords(level))
            assert coarse < fine
            assert coarse.isdisjoint(level_coords(level))

    def test_dyadic_round_trip(self):
        # codes -> canonical (num, exp) pairs -> the same codes, for the pairs
        # of every node of levels 1 .. 10 in one array
        for level in range(1, 11):
            codes = level_codes(level)
            num, exp = dyadic_codes(codes)
            back, valid = _codes_of_dyadic(num, exp)
            assert valid.all() and back.tolist() == codes.tolist()
            for j, coord in enumerate(level_coords(level)):
                n = NodeIndex1D(level, j)
                assert (num[j], exp[j]) == ref.dyadic_1d(n)
                assert num[j] / (1 << exp[j]) == coord
                assert ref.node_from_dyadic(num[j], exp[j]) == n

    def test_dyadic_canonical_reduction(self):
        # 4/8 and 2/4 reduce to the level-1 point 0.5, and 0/32 to the node
        # at 0: each is a coordinate of a node, but only the canonical pair
        # (1/2, 0/1) names it; the file reader refuses the others
        assert ref.node_from_dyadic(4, 3) == NodeIndex1D(1, 0)
        assert ref.node_from_dyadic(2, 2) == NodeIndex1D(1, 0)
        assert ref.node_from_dyadic(0, 5) == NodeIndex1D(2, 0)
        num, exp = dyadic_codes([1, 1, 2])
        assert list(zip(num.tolist(), exp.tolist())) == [(1, 1), (1, 1), (0, 0)]
        _, valid = _codes_of_dyadic(np.array([4, 2, 0, 2, 7, 1, -1, 3]),
                                    np.array([3, 2, 5, 1, 2, MAX_LEVEL, 2, 1]))
        assert not valid.any()
        codes, valid = _codes_of_dyadic(np.array([1, 0, 1, 1, 3, 1]),
                                        np.array([1, 0, 0, 2, 2, MAX_LEVEL - 1]))
        assert valid.all()
        assert codes.tolist() == [1, 2, 3, 4, 5, 1 << (MAX_LEVEL - 1)]


class TestBasis1D:
    def test_level1_constant(self):
        assert basis(point((1, 0)), [0.3]) == ref.basis_1d(NodeIndex1D(1, 0), 0.3) == 1.0
        assert basis(point((1, 0)), [0.0]) == ref.basis_1d(NodeIndex1D(1, 0), 0.0) == 1.0

    def test_kronecker_at_own_node(self):
        assert basis(point((3, 0)), [0.25]) == ref.basis_1d(NodeIndex1D(3, 0), 0.25) == 1.0

    def test_hat_halfway(self):
        # level-3 hat, half-width 1/4, halfway to the support edge
        assert basis(point((3, 0)), [0.375]) == ref.basis_1d(NodeIndex1D(3, 0), 0.375) == 0.5

    def test_level2_half_hats(self):
        n0, n1 = NodeIndex1D(2, 0), NodeIndex1D(2, 1)
        for n, x, want in ((n0, 0.0, 1.0), (n0, 0.5, 0.0), (n0, 0.25, 0.5),
                           (n1, 1.0, 1.0), (n1, 0.5, 0.0)):
            assert basis(Point((n,)), [x]) == ref.basis_1d(n, x) == want

    def test_support_boundary_is_zero(self):
        n = NodeIndex1D(4, 1)  # node at 3/8, half-width 1/8
        for x in (0.25, 0.5, 0.2):
            assert basis(Point((n,)), [x]) == ref.basis_1d(n, x) == 0.0

    def test_range_and_kronecker_lower_levels(self):
        rng = np.random.default_rng(42)
        nodes = [NodeIndex1D(lv, j) for lv in range(1, 7) for j in range(len(level_coords(lv)))]
        for n in nodes:
            m = one_node(Point((n,)))
            xs = rng.random(20)
            got = m.interpolate_many(xs[:, None])
            assert ((0.0 <= got) & (got <= 1.0)).all()
            assert got.tolist() == [ref.basis_1d(n, float(x)) for x in xs]
            if n.level >= 2:
                others = [o for o in nodes if o.level <= n.level and o != n]
                at = np.array([[ref.coord_1d(o)] for o in others])
                assert (m.interpolate_many(at) == 0.0).all()
                assert all(ref.basis_1d(n, ref.coord_1d(o)) == 0.0 for o in others)


class TestBasisND:
    def test_root_is_one_everywhere(self):
        p = root_point(3)
        assert basis(p, [0.1, 0.99, 0.5]) == ref.basis_nd(p, [0.1, 0.99, 0.5]) == 1.0

    def test_kronecker_times_constant(self):
        p = point((3, 0), (1, 0))
        assert basis(p, [0.25, 0.9]) == ref.basis_nd(p, [0.25, 0.9]) == 1.0

    def test_product_of_hats(self):
        p = point((3, 0), (3, 0))
        assert basis(p, [0.375, 0.375]) == ref.basis_nd(p, [0.375, 0.375]) == 0.25

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            basis(root_point(2), [0.5])

    def test_kronecker_nd_on_grid(self):
        # every pair of stored points with per-dim levels <= p's levels
        points = []
        for l1 in range(1, 4):
            for l2 in range(1, 4):
                for j1 in range(len(level_coords(l1))):
                    for j2 in range(len(level_coords(l2))):
                        points.append(point((l1, j1), (l2, j2)))
        for p in points:
            below = [q for q in points
                     if all(qn.level <= pn.level for qn, pn in zip(q.dims, p.dims))]
            got = one_node(p).interpolate_many(coordinates(ref.codes(*below)))
            for q, value in zip(below, got):
                expected = 1.0 if p == q else 0.0
                assert value == ref.basis_nd(p, q.coordinate()) == expected


class TestTree:
    """Refinement sons, from refine_candidates' code arrays."""

    def test_children_of_root(self):
        assert sorted(coordinates(sons_of(point((1, 0))))[:, 0]) == [0.0, 1.0]
        assert sorted(ref.coord_1d(k) for k in ref.children_1d(NodeIndex1D(1, 0))) == [0.0, 1.0]

    def test_children_of_boundary(self):
        assert coordinates(sons_of(point((2, 0)))).tolist() == [[0.25]]
        assert coordinates(sons_of(point((2, 1)))).tolist() == [[0.75]]
        assert [ref.coord_1d(k) for k in ref.children_1d(NodeIndex1D(2, 0))] == [0.25]
        assert [ref.coord_1d(k) for k in ref.children_1d(NodeIndex1D(2, 1))] == [0.75]

    def test_children_deep(self):
        # node at 0.75, sons at 0.75 +- 1/8
        assert sorted(coordinates(sons_of(point((3, 1))))[:, 0]) == [0.625, 0.875]
        n = NodeIndex1D(3, 1)
        assert sorted(ref.coord_1d(k) for k in ref.children_1d(n)) == [0.625, 0.875]

    def test_children_levels_rise_by_one(self):
        for lv in range(1, 8):
            for j in range(len(level_coords(lv))):
                got = sons_of(point((lv, j)))
                assert (split_codes(got)[0] == lv + 1).all()
                kids = ref.children_1d(NodeIndex1D(lv, j))
                assert got[:, 0].tolist() == [k.code for k in kids]
                assert all(k.level == lv + 1 for k in kids)

    def test_make_sons_of_2d_root(self):
        got = sorted(tuple(row) for row in coordinates(sons_of(root_point(2))).tolist())
        assert got == [(0.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 0.5)]
        assert sorted(tuple(s.coordinate()) for s in ref.make_sons(root_point(2))) == got

    def test_make_sons_single_son_rule(self):
        got = sons_of(point((2, 0)))
        assert len(got) == 1 and coordinates(got)[0, 0] == 0.25
        assert ref.codes(*ref.make_sons(point((2, 0)))).tolist() == got.tolist()

    def test_make_sons_count_mixed_levels(self):
        p = point((2, 0), (3, 1))
        got = sons_of(p)
        assert len(got) == 3
        assert (split_codes(got)[0].sum(axis=1) == p.depth + 1).all()
        assert sorted(ref.codes(*ref.make_sons(p)).tolist()) == got.tolist()


class TestSurrogateModel:
    def test_root_only_model_is_constant(self):
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [3.7], [3.7], [3.7 ** 2])
        assert m.interpolate([0.123, 0.9]) == 3.7
        assert m.interpolate([0.5, 0.5]) == 3.7

    def test_linear_exact_in_1d(self):
        m = SurrogateModel(1)
        # nodes 0.5, 0, 1 of f(x) = x with hand surpluses
        m.add_level([[1]], [0.5], [0.5], [0.25])
        m.add_level([[2], [3]], [0.0, 1.0], [-0.5, 0.5], [-0.25, 0.75])
        assert m.interpolate([0.25]) == pytest.approx(0.25, abs=1e-15)
        for x in np.linspace(0, 1, 11):
            assert m.interpolate([x]) == pytest.approx(x, abs=1e-15)

    @pytest.mark.parametrize("dimension", [2.5, 2.0, True, np.float64(1.0), "2", 0, -1])
    def test_dimension_must_be_a_positive_integer(self, dimension):
        # 2.5 and True escaped as a bare TypeError from NumPy
        with pytest.raises(InvalidNodeError, match="dimension must be"):
            SurrogateModel(dimension)
        assert SurrogateModel(np.int64(3)).dimension == 3

    def test_empty_model_errors(self):
        m = SurrogateModel(2)
        with pytest.raises(EmptyModelError):
            m.interpolate([0.5, 0.5])
        with pytest.raises(EmptyModelError):
            m.depth

    def test_batch_shape_checked(self):
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [3.7], [3.7], [3.7 ** 2])
        for bad in (np.zeros((3, 3)), np.zeros(2)):
            with pytest.raises(DimensionMismatchError):
                m.interpolate_many(bad)
        assert m.interpolate_many(np.zeros((0, 2))).shape == (0,)

    def test_duplicate_key_rejected(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [1.0], [1.0], [1.0])
        with pytest.raises(ContractViolationError, match="level 0 inserted after level 0"):
            m.add_level([[1]], [2.0], [2.0], [4.0])
        # a row repeated in the batch is named and nothing of the batch is
        # inserted, whether or not other rows share its level vector
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [1.0], [1.0], [1.0])
        x = np.random.default_rng(4).random((50, 2))
        before = len(m), m.codes.tobytes(), m.interpolate_many(x).tobytes()
        for batch, row in (([[2, 1], [1, 2], [2, 1]], r"\[2, 1\]"),  # alone in its vector
                           ([[3, 1], [2, 1], [1, 2], [3, 1]], r"\[3, 1\]"),  # with a sibling
                           ([[1, 2], [1, 3], [1, 3]], r"\[1, 3\]")):
            ones = [5.0] * len(batch)
            with pytest.raises(ContractViolationError, match=rf"duplicate node {row}"):
                m.add_level(batch, ones, ones, ones)
            assert (len(m), m.codes.tobytes(), m.interpolate_many(x).tobytes()) == before
        m.add_level([[3, 1], [1, 2], [1, 3]], [5.0] * 3, [5.0] * 3, [5.0] * 3)
        # a second call at the stored depth is refused, a new row included
        with pytest.raises(ContractViolationError, match="level 1 inserted after level 1"):
            m.add_level([[2, 1]], [0.0], [-1.0], [1.0])
        assert len(m) == 4
        assert ref.stored(m, [[3, 1], [1, 2], [1, 3], [2, 1]]).tolist() == [True] * 3 + [False]

    def test_no_per_node_python_containers(self):
        # nodes live in the model's arrays and the kernel's key table alone:
        # no attribute of a built model is a Python container with an entry
        # per node
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=6, init_level=2)
        m = build(ModelFunction(lambda x: float(np.sin(3 * x[0]) * x[1]), 2, "s"), cfg,
                  "ASGC").model
        containers = {name: len(value) for name, value in vars(m).items()
                      if isinstance(value, (dict, list, set, tuple))}
        assert containers and all(size < len(m) for size in containers.values()), containers

    def test_level_order_enforced(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [1.0], [1.0], [1.0])
        m.add_level([[4]], [1.0], [1.0], [1.0])  # level 3, the node at 0.25
        with pytest.raises(ContractViolationError):
            m.add_level([[2]], [1.0], [1.0], [1.0])
        assert m.depth == 2

    def test_freeze_blocks_insertion(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [1.0], [1.0], [1.0])
        m.freeze()
        with pytest.raises(ContractViolationError):
            m.add_level([[2]], [0.0], [0.0], [0.0])

    def test_queries_outside_cube_rejected(self):
        # x^2 on {0.5, 0, 1}: the hats would extend it with 0.25 outside
        m = SurrogateModel(1)
        m.add_level([[1]], [0.25], [0.25], [0.0625])
        m.add_level([[2], [3]], [0.0, 1.0], [-0.25, 0.75], [-0.0625, 0.9375])
        for bad in (1.5, -3.0, np.nextafter(1.0, 2.0), -0.0 - 1e-300, np.nan, np.inf):
            with pytest.raises(OutOfDomainError):
                m.interpolate([bad])
            with pytest.raises(OutOfDomainError):
                m.interpolate_many([[0.5], [bad]])
        # the closed cube, boundary included, is accepted
        assert m.interpolate([0.0]) == 0.0 and m.interpolate([1.0]) == 1.0
        np.testing.assert_array_equal(m.interpolate_many([[0.0], [1.0]]), [0.0, 1.0])


def v_sums(m, x):
    """The surrogate of the squared output at the rows of x: interpolate_many's v twin."""
    return m._evaluate_sum(x, (1,))[0, 0] + 0.0


def surplus(m, p, value):
    """w surplus of one value at point p against the model, via the batch kernel."""
    w, _ = m.surpluses_against_prefix(coordinates(ref.codes(p)), np.array([value]))
    return float(w[0])


class TestComputeSurplus:
    def test_root_against_empty(self):
        m = SurrogateModel(3)
        assert surplus(m, root_point(3), 4.2) == 4.2

    def test_empty_model_surpluses_are_the_values_bitwise(self):
        # the kernel sums no group to +0: a -0 value keeps its sign
        values = np.array([-0.0, 0.0, 4.2, -1e100])
        w, v = SurrogateModel(1).surpluses_against_prefix(np.full((4, 1), 0.5), values)
        assert w.tobytes() == values.tobytes()
        assert v.tobytes() == (values ** 2).tobytes()

    def test_input_interpolate_many_refuses_is_refused(self):
        # points outside the cube and a (1, 2) batch on this 1-D model gave
        # surpluses, NaN warned, and a 1-D array raised IndexError
        m = run_csc(get_benchmark("kink")[0], 1, 4).model
        for bad in (-0.25, 1.5, np.nan):
            with pytest.raises(OutOfDomainError):
                m.surpluses_against_prefix(np.array([[0.5], [bad]]), np.array([0.5, 0.5]))
        for points in (np.full((1, 2), 0.5), np.full(1, 0.5)):
            with pytest.raises(DimensionMismatchError, match=r"expected shape \(n, 1\)"):
                m.surpluses_against_prefix(points, np.array([0.5]))
        # one value against three points was broadcast into three surpluses
        for values in (np.array([0.5]), np.full((3, 1), 0.5), np.array(0.5)):
            with pytest.raises(DimensionMismatchError, match="expected 3 values"):
                m.surpluses_against_prefix(np.full((3, 1), 0.5), values)

    def test_level2_against_root_model(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [0.5], [0.5], [0.25])
        assert surplus(m, point((2, 0)), 0.0) == -0.5

    def test_zero_when_on_interpolant(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [0.5], [0.5], [0.25])
        assert surplus(m, point((2, 1)), 0.5) == 0.0

    def test_same_level_sibling_is_not_covered(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [0.5], [0.5], [0.25])
        m.add_level([[2]], [0.0], [-0.5], [-0.25])
        # same-level bases vanish at each other's nodes, so this is legal
        assert surplus(m, point((2, 1)), 1.0) == 0.5


class TestTelescoping:
    def test_1d_model_matches_piecewise_linear_oracle(self):
        # a surplus-built model must agree with direct piecewise-linear
        # interpolation over its node coordinates (brute-force oracle)
        rng = np.random.default_rng(7)
        func = lambda x: np.sin(5.0 * x) + 0.3 * x * x

        m = SurrogateModel(1)
        for lv in range(1, 7):
            codes = level_codes(lv)[:, None]
            coords = coordinates(codes)
            assert coords[:, 0].tolist() == level_coords(lv)
            values = func(coords[:, 0])
            w, v = m.surpluses_against_prefix(coords, values)
            m.add_level(codes, values, w, v)

        xs = np.array(grid_coords(6))
        ys = func(xs)
        queries = rng.random(100)
        expected = np.interp(queries, xs, ys)
        got = m.interpolate_many(queries[:, None])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_interpolation_property_on_stored_nodes(self):
        func = lambda x: np.exp(x) * np.cos(3 * x)
        m = SurrogateModel(1)
        for lv in range(1, 8):
            coords = np.array([[c] for c in level_coords(lv)])
            values = np.array([float(func(c)) for c in level_coords(lv)])
            w, v = m.surpluses_against_prefix(coords, values)
            m.add_level(level_codes(lv)[:, None], values, w, v)
        for x, output in zip(coordinates(m.codes), m.outputs):
            err = abs(m.interpolate(x) - output)
            assert err <= 8 * np.finfo(float).eps * max(1.0, abs(output))

    @settings(max_examples=30, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        dimension=st.integers(1, 3),
        coarse_level=st.integers(0, 3),
        extra=st.integers(1, 3),
        amplitude=st.integers(-40, 40),
        frequency=st.floats(0.0, 12.0, allow_nan=False),
    )
    def test_piecewise_linear_data_has_zero_finer_surpluses(
            self, method, dimension, coarse_level, extra, amplitude, frequency):
        # a coarse surrogate with outputs in eighths is piecewise linear on
        # the grid; sampled at finer nodes it is dyadic, so a build of it
        # must give every finer node a surplus of exactly 0
        def eighths(x):
            return round(amplitude * math.sin(frequency * sum(x))) / 8

        coarse = run_csc(ModelFunction(eighths, dimension, "coarse"), dimension,
                         coarse_level).model
        data = ModelFunction(lambda x: coarse.interpolate(x), dimension, "piecewise linear")
        max_level = coarse_level + extra + 1
        cfg = AdaptiveConfig(dimension=dimension, epsilon=1e-9, max_level=max_level,
                             init_level=coarse_level + 1, min_line_points=5)
        m = (run_csc(data, dimension, max_level) if method == "CSC"
             else build(data, cfg, method)).model
        finer = split_codes(m.codes)[0].sum(axis=1) - dimension > coarse_level
        assert finer.any()
        assert (m.w[finer] == 0.0).all()


def level_groups(m):
    """The model's (point, w, v) rows by level vector."""
    groups = {}
    for p, w, v in zip(ref.model_points(m), m.w.tolist(), m.v.tolist()):
        groups.setdefault(tuple(n.level for n in p.dims), []).append((p, w, v))
    return groups


def level_rows(dimension: int, level: int) -> np.ndarray:
    """Every code row of the given level (level-vector sum minus dimension)."""
    rows = []
    for vector in itertools.product(range(1, level + 2), repeat=dimension):
        if sum(vector) - dimension == level:
            ranges = [range(1 << (lv - 1), (1 << (lv - 1)) + ref.new_nodes_on_level(lv))
                      for lv in vector]
            rows.extend(itertools.product(*ranges))
    return np.array(rows, dtype=np.int64)


def table_groups(m) -> tuple[np.ndarray, np.ndarray]:
    """The kernel table's groups as an oracle finds them from the codes
    alone: the model's distinct level vectors, by total level, then
    lexicographically, and each node's group."""
    vectors, member = np.unique(split_codes(m.codes)[0], axis=0, return_inverse=True)
    rank = np.argsort(vectors.sum(axis=1), kind="stable")
    group = np.empty_like(rank)
    group[rank] = np.arange(len(rank))
    return vectors[rank], group[member.ravel()]


def node_positions(m, rows):
    """Positions in the kernel's table of the nodes of code `rows`, found as
    the kernel finds them, and where the slot index found them: by offset in
    a full group, through the index in a sparse one."""
    t = m._table
    levels, indices = split_codes(rows)
    radix = np.vectorize(ref.new_nodes_on_level)(levels)
    code = (indices * (np.cumprod(radix, axis=1) // radix)).sum(axis=1)
    group = {v: g for g, v in enumerate(map(tuple, table_groups(m)[0].tolist()))}
    g = np.array([group[v] for v in map(tuple, levels.tolist())])
    at, hashed = t.bases[g] + code, ~t.full[g]
    if hashed.any():
        at[hashed] = core._positions(t.slots, t.keys, at[hashed])
    return at, hashed


class TestEvaluationKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        dimension=st.integers(1, 3),
        amplitude=st.floats(-5.0, 5.0, allow_nan=False),
        frequency=st.floats(0.0, 12.0, allow_nan=False),
        kink=st.floats(0.0, 1.0),
        max_level=st.integers(1, 5),
        epsilon=st.sampled_from([1e-1, 1e-2, 1e-4]),
        data=st.data(),
    )
    def test_matches_brute_force_sum(self, method, dimension, amplitude, frequency,
                                     kink, max_level, epsilon, data):
        def func(x):
            return amplitude * math.sin(frequency * x[0]) + abs(x[-1] - kink)

        cfg = AdaptiveConfig(dimension=dimension, epsilon=epsilon, max_level=max_level,
                             init_level=min(2, max_level - 1), min_line_points=5)
        m = build(ModelFunction(func, dimension, "random"), cfg, method).model
        # support edges: the cube's ends and centre, and every node coordinate
        edges = sorted({0.0, 0.5, 1.0} | set(coordinates(m.codes).ravel().tolist()))
        coordinate = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
        queries = np.array(data.draw(st.lists(
            st.lists(coordinate, min_size=dimension, max_size=dimension),
            min_size=1, max_size=20)))
        for coeff, got in zip("wv", (m.interpolate_many(queries), v_sums(m, queries))):
            for x, value in zip(queries, got):
                want, scale = ref.brute_force(m, x, coeff)
                assert abs(value - want) <= 1e-12 * scale, (x, coeff, value, want)
        for x, value in zip(queries, m.interpolate_many(queries)):
            assert m.interpolate(x) == value
        # the interpolation property, in the coarse-to-fine query fold
        got = m.interpolate_many(coordinates(m.codes))
        assert (np.abs(got - m.outputs) <= 1e-12 * np.maximum(1.0, np.abs(m.outputs))).all()

    @settings(max_examples=20, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        dimension=st.integers(1, 3),
        frequency=st.floats(0.0, 12.0, allow_nan=False),
        kink=st.floats(0.0, 1.0),
        max_level=st.integers(2, 5),
        query_seed=st.integers(0, 2 ** 16),
    )
    def test_fold_directions(self, method, dimension, frequency, kink, max_level,
                             query_seed):
        # queries add the level vectors' terms coarse to fine, surpluses fine
        # to coarse (total level, then level vector): both bitwise equal to a
        # left fold of the brute-force per-group terms in that order
        def func(x):
            return math.sin(frequency * x[0]) + abs(x[-1] - kink)

        cfg = AdaptiveConfig(dimension=dimension, epsilon=1e-3, max_level=max_level,
                             init_level=1, min_line_points=5)
        m = build(ModelFunction(func, dimension, "random"), cfg, method).model
        groups = level_groups(m)
        coarse_first = sorted(groups, key=lambda lv: (sum(lv), lv))
        queries = np.random.default_rng(query_seed).random((20, dimension))
        values = np.random.default_rng(query_seed).standard_normal(20)
        squares = values ** 2
        got = m.interpolate_many(queries)
        w, v = m.surpluses_against_prefix(queries, values)
        for i, x in enumerate(queries):
            terms = {lv: [sum(row[c] * ref.basis_nd(row[0], x) for row in groups[lv])
                          for c in (1, 2)] for lv in groups}
            query = surplus_w = surplus_v = None
            for lv in coarse_first:
                query = terms[lv][0] if query is None else query + terms[lv][0]
            for lv in reversed(coarse_first):
                tw, tv = terms[lv]
                surplus_w = tw if surplus_w is None else surplus_w + tw
                surplus_v = tv if surplus_v is None else surplus_v + tv
            assert got[i] == query
            assert (w[i], v[i]) == (values[i] - surplus_w, squares[i] - surplus_v)

    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        dimension=st.integers(1, 4),
        max_level=st.integers(1, 4),
        amplitude=st.integers(-24, 24),
        frequency=st.floats(0.0, 9.0, allow_nan=False),
        data=st.data(),
    )
    def test_skipped_groups_change_no_surplus_bit(self, method, dimension, max_level,
                                                  amplitude, frequency, data):
        # refinement candidates are grid points, so the kernel leaves out the
        # groups their level vectors do not dominate; the surpluses must still
        # equal, bit for bit and sign of zero included, the fine-to-coarse
        # left fold of the brute-force terms of every group.  Outputs in
        # eighths and signed zeros make exact cancellations and -0.0 common.
        def eighths(x):
            k = round(amplitude * math.sin(frequency * sum(x)))
            return k / 8 if k else math.copysign(0.0, math.sin(7 * sum(x)))

        cfg = AdaptiveConfig(dimension=dimension, epsilon=1e-2,
                             max_level=max_level + 1, init_level=max_level,
                             min_line_points=5)
        f = ModelFunction(eighths, dimension, "eighths")
        m = (run_csc(f, dimension, max_level) if method == "CSC"
             else build(f, cfg, method)).model
        sons = refine_candidates(m.codes)
        sons = sons[~ref.stored(m, sons)]
        sons = sons[data.draw(st.lists(st.integers(0, len(sons) - 1), min_size=1,
                                       max_size=25, unique=True))]
        values = np.array(data.draw(st.lists(
            st.sampled_from([k / 8 for k in range(-16, 17)] + [0.0, -0.0]),
            min_size=len(sons), max_size=len(sons))))
        w, v = m.surpluses_against_prefix(coordinates(sons), values)
        groups = level_groups(m)
        fine_first = sorted(groups, key=lambda lv: (sum(lv), lv), reverse=True)
        for i, x in enumerate(coordinates(sons)):
            sums = []
            for c in (1, 2):
                # one node per group can be non-zero at x, so summing a group's
                # terms in any order gives that node's term exactly
                terms = [np.sum([row[c] * ref.basis_nd(row[0], x) for row in groups[lv]])
                         for lv in fine_first]
                total = terms[0]
                for term in terms[1:]:
                    total = total + term
                sums.append(total)
            want = np.array([values[i] - sums[0], values[i] ** 2 - sums[1]])
            assert np.array([w[i], v[i]]).tobytes() == want.tobytes(), (sons[i], want)

    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        dimension=st.integers(1, 4),
        max_level=st.integers(1, 4),
        amplitude=st.integers(-24, 24),
        frequency=st.floats(0.0, 9.0, allow_nan=False),
        data=st.data(),
    )
    def test_block_shapes_change_no_bit(self, method, dimension, max_level, amplitude,
                                        frequency, data):
        # a block folds its groups' terms with one add per group when it has
        # at least as many rows as groups, else with one accumulate; cutting
        # a batch into pieces moves its rows between blocks and between the
        # two forms, and must change no bit of any sum, sign of zero included
        def eighths(x):
            k = round(amplitude * math.sin(frequency * sum(x)))
            return k / 8 if k else math.copysign(0.0, math.sin(7 * sum(x)))

        cfg = AdaptiveConfig(dimension=dimension, epsilon=1e-2,
                             max_level=max_level + 1, init_level=max_level,
                             min_line_points=5)
        f = ModelFunction(eighths, dimension, "eighths")
        m = (run_csc(f, dimension, max_level) if method == "CSC"
             else build(f, cfg, method)).model
        groups = m._group_count
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        # uniform draws dominate every group, so they fold in blocks of at
        # least `groups` rows and each single row by accumulate; the model's
        # nodes dominate only some groups, and a block that merges runs of
        # level vectors may add a +0 term that a single row skips, which
        # queries must not show as a -0 sum
        queries = np.vstack([rng.random((groups + 13, dimension)), coordinates(m.codes)])
        queries = queries[rng.permutation(len(queries))]
        assert groups >= 2

        def pieces(n):
            size = st.one_of(st.just(1), st.integers(1, groups - 1),
                             st.integers(groups, 2 * groups))
            cuts = np.cumsum(data.draw(st.lists(size, min_size=1, max_size=30)))
            return np.split(np.arange(n), cuts[cuts < n])

        for coeff, sums in zip("wv", (m.interpolate_many, lambda x: v_sums(m, x))):
            whole = sums(queries)
            split = [sums(queries[rows]) for rows in pieces(len(queries))]
            assert np.concatenate(split).tobytes() == whole.tobytes(), coeff
        single = np.array([m.interpolate(x) for x in queries])
        assert single.tobytes() == m.interpolate_many(queries).tobytes()

        sons = refine_candidates(m.codes)
        sons = coordinates(sons[~ref.stored(m, sons)])
        values = rng.choice([k / 8 for k in range(-16, 17)] + [-0.0], len(sons))
        whole = m.surpluses_against_prefix(sons, values)
        split = [m.surpluses_against_prefix(sons[rows], values[rows])
                 for rows in pieces(len(sons))]
        for j, coeff in enumerate("wv"):
            got = np.concatenate([part[j] for part in split])
            assert got.tobytes() == whole[j].tobytes(), coeff

    @settings(max_examples=30, deadline=None)
    @given(dimension=st.integers(1, 3), depth=st.integers(3, 6), collide=st.booleans(),
           data=st.data())
    def test_slot_index_finds_every_key(self, dimension, depth, collide, data):
        # random level sets, one add_level call per level, that mix full
        # level vectors with sparse ones made by random drops; with `collide`
        # every key hashes to one home slot, so inserts and lookups walk
        # probe runs as long as the index
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        sparse_share, keep_share = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.1, 0.9))
        levels, full, sparse, held = [], set(), set(), 0
        for level in range(depth + 1):
            rows = level_rows(dimension, level)
            vectors = split_codes(rows)[0]
            # level_rows lists each level vector's rows as one run
            starts = np.flatnonzero(np.append(True, (vectors[1:] != vectors[:-1]).any(axis=1)))
            runs = np.split(np.arange(len(rows)), starts[1:])
            keep = np.ones(len(rows), dtype=bool)
            for run in runs:
                if len(run) > 1 and rng.random() < sparse_share:
                    keep[run] = rng.random(len(run)) < keep_share
                    keep[rng.choice(run)] = False
            # more sparse rows than the index holds, where the level has
            # them, so the index keeps growing: else all but one row of every
            # vector
            if sum(keep[run].sum() for run in runs if not keep[run].all()) <= held:
                keep[:] = True
                for run in runs:
                    keep[rng.choice(run)] = len(run) == 1
            for run in runs:
                if keep[run].any():
                    (full if keep[run].all() else sparse).add(tuple(vectors[run[0]].tolist()))
            held += sum(keep[run].sum() for run in runs if not keep[run].all())
            levels.append(rows[keep])
        queries = rng.random((200, dimension))
        plain = SurrogateModel(dimension)
        for rows in levels:
            plain.add_level(rows, *rng.standard_normal((3, len(rows))))
        m, sizes = SurrogateModel(dimension), set()
        with mock.patch.object(core, "_HASH", np.uint64(0) if collide else core._HASH):
            for rows, k in zip(levels, itertools.accumulate(map(len, levels))):
                m.add_level(rows, plain.outputs[k - len(rows):k], plain.w[k - len(rows):k],
                            plain.v[k - len(rows):k])
                t = m._table
                vectors = table_groups(m)[0]
                stored = {tuple(v) for v in vectors.tolist()}
                assert {tuple(v) for v in vectors[t.full].tolist()} == full & stored
                assert {tuple(v) for v in vectors[~t.full].tolist()} == sparse & stored
                # every node resolves to its own coefficients, by offset or
                # through the index, which holds exactly the sparse groups' nodes
                at, hashed = node_positions(m, m.codes)
                np.testing.assert_array_equal(np.sort(at), np.arange(len(m)))
                assert t.coeffs[:, at].tobytes() == np.stack([m.w, m.v]).tobytes()
                indexed = t.slots[t.slots >= 0]
                np.testing.assert_array_equal(np.sort(indexed), np.sort(at[hashed]))
                # a full group's keys run on from its base, so base + code is
                # the position of every code of the group
                for base, vector in zip(t.bases[t.full].tolist(), vectors[t.full].tolist()):
                    count = math.prod(map(ref.new_nodes_on_level, vector))
                    np.testing.assert_array_equal(t.keys[base:base + count],
                                                  t.keys[base] + np.arange(count))
                if not len(indexed):
                    assert len(t.slots) == 0
                    continue
                # within the load bound
                assert core._ROOM * len(indexed) <= len(t.slots) < 2 * core._ROOM * len(indexed)
                sizes.add(len(t.slots))
                # mostly codes of no node, some stored, in a 2-D batch; the
                # index finds the sparse groups' keys only
                probes = rng.integers(0, m._key_span + 64, size=(4, 60))
                want = ref.key_positions(t.keys[:-1], probes)
                want[~np.isin(want, indexed)] = -1
                np.testing.assert_array_equal(core._positions(t.slots, t.keys, probes), want)
            got = m.interpolate_many(queries)
            # the same table with every group hashed, none addressed by offset;
            # a full group holds its code 0, whose key is the group's offset
            t = m._table
            offsets = t.bases.copy()
            offsets[t.full] = t.keys[t.bases[t.full]]
            every = t._replace(full=np.zeros_like(t.full), bases=offsets,
                               slots=core._indexed(np.empty(0, dtype=np.int32), t.keys,
                                                   np.arange(len(m))))
            with mock.patch.object(m, "_table", every):
                hashed = m.interpolate_many(queries)
        # the index grew past two resizes, and every form finds what a
        # default index finds
        assert len(sizes) >= 3, sizes
        assert got.tobytes() == plain.interpolate_many(queries).tobytes()
        assert hashed.tobytes() == got.tobytes()

    def test_only_sparse_groups_are_hashed(self, tmp_path):
        # a CSC model holds every node of each of its level vectors, so it
        # addresses them all by offset and has no slot index
        f, _ = get_benchmark("line_singularity")
        m = run_csc(f, 2, 8).model
        assert m._table.full.all() and len(m._table.slots) == 0
        # an ASGC model hashes exactly the nodes of its sparse groups, also
        # once saved and loaded
        m = build(f, AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=10, init_level=2),
                  "ASGC").model
        save_surrogate(tmp_path / "m.surrogate", m)
        for model in (m, load_surrogate(tmp_path / "m.surrogate")[0]):
            vectors, group = table_groups(model)
            count = np.bincount(group, minlength=len(vectors))
            whole = count == [math.prod(map(ref.new_nodes_on_level, v)) for v in vectors.tolist()]
            assert 1 < whole.sum() < len(vectors)
            t = model._table
            np.testing.assert_array_equal(t.full, whole)
            hashed = ~whole[group]
            indexed = t.slots[t.slots >= 0]
            assert len(indexed) == hashed.sum()
            assert (sorted(map(tuple, t.coeffs[:, indexed].T.tolist()))
                    == sorted(zip(model.w[hashed].tolist(), model.v[hashed].tolist())))
            at, through_index = node_positions(model, model.codes)
            np.testing.assert_array_equal(through_index, hashed)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_stored_groups_keep_their_layout(self, method, dimension):
        # every table field only grows: an add_level lays out its own groups
        # and appends them, and a deeper level only adds hat columns after
        # the stored ones, so no stored group's row changes but for padding
        # (column 0, stride 0) when a new group refines more dimensions
        f = ModelFunction(lambda x: abs(sum(x) / len(x) - 0.3) + math.sin(3 * x[0]),
                          dimension, "kinked")
        cfg = AdaptiveConfig(dimension=dimension, epsilon=1e-3, max_level=8 - dimension,
                             init_level=1, min_line_points=5)
        inserted = []  # per group, its cols, strides, full and base when inserted
        deepest = []

        def on_level(model, record):
            t = model._table
            for g, (cols, strides, full, base) in enumerate(inserted):
                k = len(cols)
                assert t.cols[g, :k].tolist() == cols and not t.cols[g, k:].any()
                assert t.strides[g, :k].tolist() == strides and not t.strides[g, k:].any()
                assert (bool(t.full[g]), int(t.bases[g])) == (full, base)
            inserted.extend((t.cols[g].tolist(), t.strides[g].tolist(), bool(t.full[g]),
                             int(t.bases[g])) for g in range(len(inserted), len(t.full)))
            deepest.append(int(split_codes(model.codes)[0].max()))

        model = (run_csc(f, dimension, 7 - dimension, on_level) if method == "CSC"
                 else build(f, cfg, method, on_level)).model
        # the deepest 1-D level grew after the first groups were stored
        assert len(deepest) >= 3 and deepest[-1] > deepest[1] > 1
        # each row still holds its group's level vector: level col // d + 1
        # where the stride is > 0, level 1 elsewhere
        t = model._table
        vectors = np.ones((len(t.full), dimension), dtype=np.int64)
        g, k = np.nonzero(t.strides)
        vectors[g, t.cols[g, k] % dimension] = t.cols[g, k] // dimension + 1
        np.testing.assert_array_equal(vectors, table_groups(model)[0])

    def test_surplus_terms_only_for_dominated_groups(self, monkeypatch):
        # count the (group, row) terms the kernel forms in a CSC build: it
        # should form about one per candidate and dominated group, well below
        # one per candidate and stored group
        formed = []
        block_sums = core._block_sums

        def counting(table, x, group, *args):  # a block's rows x its groups
            formed.append(len(group) * len(x))
            return block_sums(table, x, group, *args)

        monkeypatch.setattr(core, "_block_sums", counting)
        m = run_csc(ModelFunction(lambda x: float(np.sin(3 * x[0]) * x[1]), 2, "s"),
                    2, 10).model
        monkeypatch.undo()
        levels = split_codes(m.codes)[0]
        depth = levels.sum(axis=1) - 2
        dominated = stored = 0
        for level in range(1, 11):
            candidate = levels[depth == level]
            group = np.unique(levels[depth < level], axis=0)
            dominated += int((candidate[:, None, :] >= group[None, :, :]).all(axis=2).sum())
            stored += len(candidate) * len(group)
        assert (dominated, stored) == (139272, 337924)
        # a block that spans several level vectors forms terms for the union
        # of their groups for each of its rows, so the count may exceed
        # `dominated`
        assert dominated <= sum(formed) <= 1.25 * dominated

    def test_grid_levels(self):
        xs = np.array([[0.5, 0.0, 1.0, 0.25, 0.75, 0.375, 2.0 ** -60, 0.3, -0.0,
                        np.nextafter(0.0, 1.0), -0.25, 1.5, np.nan, np.inf]])
        # grid points read as their level, every double in [0, 1] being one;
        # outside [0, 1] and NaN read as 2**-1074 does
        np.testing.assert_array_equal(core._grid_levels(xs, 1100),
                                      [[1, 2, 2, 3, 3, 4, 61, 55, 2] + [1075] * 5])
        np.testing.assert_array_equal(core._grid_levels(xs, 20),
                                      [[1, 2, 2, 3, 3, 4, 20, 20, 2] + [20] * 5])
        assert (core._grid_levels(coordinates(join_codes([[40, 3], [54, 5]], [[7, 0], [9, 1]])),
                                  100) == [[40, 3], [54, 5]]).all()
        # uniform draws are multiples of 2**-53: levels near 54, deeper than
        # any level vector a build stores
        rng = np.random.default_rng(5)
        assert (core._grid_levels(rng.random((200, 3)), 1100) >= 40).all()

    def test_zero_sum_of_a_query_is_positive_whatever_it_is_batched_with(self):
        # root w -0, level-2 w -0 and +0: at 0.5 a lone row folds only the
        # root's -0, while a block that also holds 0.3 adds the level-2
        # terms, +0 among them; both must give +0
        m = SurrogateModel(1)
        m.add_level([[1]], [-0.0], [-0.0], [0.0])
        m.add_level([[2], [3]], [-0.0, 0.0], [-0.0, 0.0], [0.0, 0.0])
        positive = np.float64(0.0).tobytes()
        assert np.float64(m.interpolate([0.5])).tobytes() == positive
        assert m.interpolate_many([[0.5]]).tobytes() == positive
        assert m.interpolate_many([[0.5], [0.3]]).tobytes() == positive * 2
        # surpluses, which saved files record, keep the kernel's -0 sum:
        # -0 - (-0) is +0, where a +0 sum would give -0
        w, _ = m.surpluses_against_prefix(np.array([[0.5]]), np.array([-0.0]))
        assert np.float64(w[0]).tobytes() == positive

    def test_model_without_root_queried_where_no_group_reaches(self):
        # only the level-2 nodes 0 and 1: at 0.5 every stored hat is 0, so
        # the kernel has no group to visit there
        m = SurrogateModel(1)
        m.add_level([[2], [3]], [1.0, 3.0], [1.0, 3.0], [1.0, 9.0])
        assert m.interpolate([0.5]) == 0.0
        np.testing.assert_array_equal(m.interpolate_many([[0.5], [0.25], [1.0]]), [0.0, 0.5, 3.0])
        w, v = m.surpluses_against_prefix(np.array([[0.5]]), np.array([2.0]))
        assert (w[0], v[0]) == (2.0, 4.0)
        # partial sums stop after 0 and after 1 group: a stop with no group
        # below it reads +0, wherever the row lies
        sums = m._evaluate_sum(np.array([[0.5], [0.25]]), (0, 1), stops=[0, 1])
        want = np.array([[[0.0, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.5]]])
        assert sums.tobytes() == want.tobytes()

    def test_lookup_rebuilt_after_insert(self):
        # x^2 on {0.5, 0, 1}, then the finer node 0.25
        m = SurrogateModel(1)
        m.add_level([[1]], [0.25], [0.25], [0.0625])
        m.add_level([[2], [3]], [0.0, 1.0], [-0.25, 0.75], [-0.0625, 0.9375])
        assert m.interpolate([0.25]) == 0.125
        np.testing.assert_array_equal(m.interpolate_many([[0.125], [0.25]]), [0.0625, 0.125])
        m.add_level([[4]], [0.0625], [-0.0625], [0.0])
        assert m.interpolate([0.25]) == 0.0625
        np.testing.assert_array_equal(m.interpolate_many([[0.125], [0.25]]), [0.03125, 0.0625])

    def test_batch_memory_stays_small(self):
        # a dense sum over every node held a 4M-float (32 MB) block of hat
        # products; one lookup per level vector needs far less
        f = ModelFunction(lambda x: float(np.sin(3 * x[0]) * x[1]), 2, "s")
        m = run_csc(f, 2, 10).model
        assert len(m) == 7169
        queries = np.random.default_rng(3).random((2000, 2))
        tracemalloc.start()
        try:
            got = m.interpolate_many(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak
        # queries are processed in blocks; rows on either side of every
        # block edge must not depend on the blocking
        for i in range(len(queries)):
            assert m.interpolate(queries[i]) == got[i]

    def test_memory_bounded_by_hat_table_width(self):
        # 10-D, refined along x0 to level 30: only 30 groups, but 10 * 30
        # columns per query in the hat tables; blocks sized by the groups
        # alone held 5 MB per table and peaked at 26.7 MB
        m = SurrogateModel(10)
        for level in range(1, 31):
            row = np.ones((1, 10), dtype=np.int64)
            row[0, 0] = 1 << (level - 1)
            m.add_level(row, [float(level)], [1.0 / level], [0.5])
        queries = np.random.default_rng(4).random((20000, 10))
        tracemalloc.start()
        try:
            got = m.interpolate_many(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, peak
        for i in range(0, len(queries), 97):
            assert m.interpolate(queries[i]) == got[i]

    def test_running_sums_equal_fresh_evaluation_bitwise(self):
        # coarse-to-fine query folds continue exactly: the partial sums of the
        # finished model at each level's group count are a fresh evaluation
        # of the model as it stood after that level
        f = ModelFunction(lambda x: math.exp(x[0]) * math.sin(4 * x[1]) + abs(x[1] - 0.3),
                          2, "m")
        queries = np.random.default_rng(8).random((3000, 2))
        groups, fresh = [], []

        def on_level(model, record):
            groups.append(model._group_count)
            fresh.append([model.interpolate_many(queries), v_sums(model, queries)])

        cfg = AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=9, init_level=2)
        model = build(f, cfg, "ASGC", on_level).model
        assert len(groups) == 10
        sums = model._evaluate_sum(queries, (0, 1), stops=groups)
        assert sums.shape == (2, 10, 3000)
        for level, values in enumerate(fresh):
            for j, coeff in enumerate("wv"):
                np.testing.assert_array_equal(sums[j, level], values[j], err_msg=coeff)

    def test_table_growth_does_not_change_results(self, tmp_path):
        # one model inserted three ways: as built, a level per call with
        # each level's rows shuffled, and through save -> load; all must
        # evaluate bitwise alike
        f, _ = get_benchmark("line_singularity")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=9, init_level=2)
        result = build(f, cfg, "EASGC")
        built = result.model
        assert built.spline.any()
        shuffled = SurrogateModel(2)
        rng = np.random.default_rng(2)
        depth = split_codes(built.codes)[0].sum(axis=1) - 2
        for level in range(built.depth + 1):
            rows = rng.permutation(np.flatnonzero(depth == level))
            shuffled.add_level(built.codes[rows], built.outputs[rows], built.w[rows],
                               built.v[rows], built.spline[rows])
        path = tmp_path / "model.surrogate"
        save_surrogate(path, built, result.region_db)
        loaded, _ = load_surrogate(path)
        queries = np.vstack([rng.random((2000, 2)), coordinates(built.codes)])
        sons = refine_candidates(built.codes)
        sons = sons[~ref.stored(built, sons)]
        values = rng.standard_normal(len(sons))
        want = [built.interpolate_many(queries), v_sums(built, queries)]
        want_surplus = built.surpluses_against_prefix(coordinates(sons), values)
        for twin in (shuffled, loaded):
            for got, expected in zip((twin.interpolate_many(queries), v_sums(twin, queries)),
                                     want):
                np.testing.assert_array_equal(got, expected)
            for got, expected in zip(
                    twin.surpluses_against_prefix(coordinates(sons), values), want_surplus):
                np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# the integer code layout and the array store
# ---------------------------------------------------------------------------

@st.composite
def nodes_1d(draw, max_level=8):
    level = draw(st.integers(1, max_level))
    return NodeIndex1D(level, draw(st.integers(0, ref.new_nodes_on_level(level) - 1)))


def points(dimension, max_level=6):
    return st.tuples(*[nodes_1d(max_level)] * dimension).map(Point)


class TestNodeCodes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(nodes_1d(MAX_LEVEL), min_size=1, max_size=8))
    def test_codes_match_the_node_functions(self, nodes):
        levels = [n.level for n in nodes]
        indices = [n.index for n in nodes]
        codes = join_codes(levels, indices)
        assert codes.tolist() == [(1 << (n.level - 1)) + n.index for n in nodes]
        back = split_codes(codes)
        assert back[0].tolist() == levels and back[1].tolist() == indices
        assert coordinates(codes).tolist() == [ref.coord_1d(n) for n in nodes]
        num, exp = dyadic_codes(codes)
        assert tuple(zip(num.tolist(), exp.tolist())) == Point(tuple(nodes)).key

    @settings(max_examples=100, deadline=None)
    @given(st.lists(nodes_1d(10), min_size=2, max_size=30))
    def test_code_order_is_node_order(self, nodes):
        codes = join_codes([n.level for n in nodes], [n.index for n in nodes])
        assert [nodes[i] for i in np.argsort(codes, kind="stable")] == sorted(nodes)

    def test_sons_are_2c_and_2c_plus_1_except_on_level_2(self):
        for level in range(1, 7):
            for index in range(ref.new_nodes_on_level(level)):
                c = (1 << (level - 1)) + index
                want = [c + 2] if level == 2 else [2 * c, 2 * c + 1]
                assert [s.code for s in ref.children_1d(NodeIndex1D(level, index))] == want
                assert refine_candidates([[c]])[:, 0].tolist() == want

    def test_split_levels_exact_near_powers_of_two(self):
        # a float cast rounds 2**k - 1 up to 2**k for k > 53: the bit
        # lengths must still be exact
        codes = sorted({c for k in range(63) for c in (2 ** k - 1, 2 ** k, 2 ** k + 1)
                        if c <= np.iinfo(np.int64).max} | {np.iinfo(np.int64).max})
        assert core._bit_length(np.array(codes)).tolist() == [c.bit_length() for c in codes]
        valid = [c for c in codes if core._is_code(c)]
        assert 2 ** 61 + 1 in valid and 2 ** 53 + 1 in valid
        assert split_codes(valid)[0].tolist() == [c.bit_length() for c in valid]
        assert split_codes(valid)[0].dtype == np.int64
        for c in set(codes) - set(valid):
            with pytest.raises(InvalidNodeError, match="invalid node"):
                split_codes([c])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(nodes_1d(MAX_LEVEL).map(lambda n: n.code),
                     st.integers(-(1 << 63), (1 << 63) - 1)))
    def test_split_codes_refuses_exactly_the_codes_of_no_node(self, code):
        # valid codes split into their bit length; 0, negative codes, codes
        # of levels above MAX_LEVEL and codes whose top two bits are 11 raise
        if core._is_code(code):
            levels, indices = split_codes([code, code])
            assert levels.tolist() == [code.bit_length()] * 2
            assert join_codes(levels, indices).tolist() == [code] * 2
        else:
            with pytest.raises(InvalidNodeError, match="invalid node"):
                split_codes([[1, code]])

    def test_levels_capped(self):
        top = (1 << (MAX_LEVEL - 1)) + (1 << (MAX_LEVEL - 2)) - 1  # last code of level 62
        assert split_codes([top])[0].tolist() == [MAX_LEVEL]
        for bad in (0, -1, 6, 1 << MAX_LEVEL, np.iinfo(np.int64).max):
            with pytest.raises(InvalidNodeError):
                split_codes([bad])
        with pytest.raises(InvalidNodeError):
            join_codes([MAX_LEVEL + 1], [0])
        with pytest.raises(InvalidNodeError):
            SurrogateModel(1).add_level([[1 << MAX_LEVEL]], [0.0], [0.0], [0.0])  # level 63


def _insert_levels(m, rows):
    """add_level once per level of (point, output, w, v, spline) rows."""
    rows = sorted(rows, key=lambda r: r[0].level)
    for level in sorted({r[0].level for r in rows}):
        batch = [r for r in rows if r[0].level == level]
        m.add_level(ref.codes(*[r[0] for r in batch]), *zip(*[r[1:] for r in batch]))


class TestArrayStore:
    @settings(max_examples=60, deadline=None)
    @given(dimension=st.integers(1, 4), data=st.data())
    def test_nodes_round_trip(self, dimension, data):
        pts = data.draw(st.lists(points(dimension), max_size=25, unique=True))
        values = st.floats(-1e6, 1e6, allow_nan=False)
        rows = [(p, data.draw(values), data.draw(values), data.draw(values),
                 data.draw(st.booleans())) for p in pts]
        m = SurrogateModel(dimension)
        _insert_levels(m, rows)
        rows = sorted(rows, key=lambda r: r[0].level)
        want = [HierarchicalNode(GridPoint(tuple(p.codes)), out, w, v, s)
                for p, out, w, v, s in rows]
        assert m.nodes() == want
        assert len(m) == len(want) and ref.stored(m, [p.codes for p in pts]).all()
        # each level's rows, in the order they were inserted
        level = split_codes(m.codes)[0].sum(axis=1) - dimension
        for lv in {p.level for p in pts}:
            assert m.codes[level == lv].tolist() == [r[0].codes for r in rows if r[0].level == lv]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_add_level_fails_where_add_node_did(self, data):
        """Batches of one level, against the row-by-row rules of add_node.

        add_node refuses a frozen model, a point of another dimension and a
        level not deeper than the deepest one, so a key already stored too;
        add_level refuses the same batches, and a batch that fails inserts
        nothing.
        """
        dimension = data.draw(st.integers(1, 3))
        m = SurrogateModel(dimension)
        deepest, frozen = None, False
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.integers(0, 9)) == 0:
                m.freeze()
                frozen = True
            width = dimension + (data.draw(st.integers(0, 5)) == 0)
            first = data.draw(points(width, max_level=4))
            batch = [first] + [p for p in data.draw(st.lists(points(width, max_level=4), max_size=6))
                               if p.level == first.level]
            if data.draw(st.integers(0, 5)) == 0:
                batch.append(batch[0])  # a repeat inside the batch
            batch_keys = {p.key for p in batch}
            if frozen:
                expected = ContractViolationError
            elif width != dimension:
                expected = DimensionMismatchError
            elif (len(batch_keys) < len(batch)
                  or (deepest is not None and first.level <= deepest)):
                expected = ContractViolationError
            else:
                expected = None
            size = len(m)
            codes = ref.codes(*batch)
            zeros = [0.0] * len(batch)
            if expected is None:
                m.add_level(codes, zeros, zeros, zeros)
                deepest = first.level
                assert len(m) == size + len(batch)
                continue
            with pytest.raises(expected):
                m.add_level(codes, zeros, zeros, zeros)
            assert len(m) == size
            # node by node, into a copy of the model built a level per call,
            # fails by the same rule
            twin = SurrogateModel(dimension)
            depth = split_codes(m.codes)[0].sum(axis=1)
            for level in np.unique(depth):
                rows = depth == level
                twin.add_level(m.codes[rows], m.outputs[rows], m.w[rows], m.v[rows],
                               m.spline[rows])
            if frozen:
                twin.freeze()
            with pytest.raises(expected):
                for p in batch:
                    twin.add_node(HierarchicalNode(GridPoint(tuple(p.codes)), 0.0, 0.0, 0.0))

    def test_columns_of_another_length_rejected_and_empty_batch_ignored(self):
        m = SurrogateModel(1)
        with pytest.raises(DimensionMismatchError):
            m.add_level([[1]], [0.0, 1.0], [0.0], [0.0])
        with pytest.raises(DimensionMismatchError):
            m.add_level([[1]], [0.0], [0.0], [0.0], spline=[False, True])
        m.add_level(np.zeros((0, 1), dtype=np.int64), [], [], [])
        assert len(m) == 0

    def test_mixed_levels_and_non_integer_codes_rejected(self):
        m = SurrogateModel(1)
        with pytest.raises(ContractViolationError):
            m.add_level([[1], [2]], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(InvalidNodeError):
            m.add_level([[1.5]], [0.0], [0.0], [0.0])
        assert len(m) == 0

    def test_non_finite_output_w_or_v_refused(self, tmp_path):
        # such a row was inserted: save then wrote "2:0 nan nan nan F", which
        # load refuses, and the moments were NaN
        m = SurrogateModel(1)
        m.add_level([[1]], [1.0], [1.0], [1.0])
        for column, bad in itertools.product(range(3), (math.nan, math.inf, -math.inf)):
            reals = np.ones((3, 2))
            reals[column, 1] = bad
            with pytest.raises(ContractViolationError,
                               match="row 1 has a non-finite output, w or v"):
                m.add_level([[2], [3]], *reals)
            assert len(m) == 1 and m.depth == 0
        m.add_level([[2], [3]], *np.ones((3, 2)))
        save_surrogate(tmp_path / "m.surrogate", m)
        assert len(load_surrogate(tmp_path / "m.surrogate")[0]) == 3

    def test_code_entry_points_refuse_floats_and_wrong_widths(self):
        # a cast to int64 truncated 1.9 to 1, so [1.9, 1.2] read as the root
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [1.0], [1.0], [1.0])
        db = RegionDatabase(2)
        db.store(SmoothRegion(dim=0, anchor=(1,), knots=[0.0, 0.25, 0.5, 1.0],
                              outputs=[0.0, 1.0, 2.0, 3.0]))
        # codes of no node: 0, and 6 = 0b110, whose top two bits are 11
        for bad in ([0, 1], [6, 1], [1, -3]):
            with pytest.raises(InvalidNodeError, match="invalid node"):
                db.lookup(bad)
            with pytest.raises(InvalidNodeError, match="invalid node"):
                db.lookup_many([[1, 1], bad])
        assert db.lookup([1, 1])[1] == 0.5
        assert db.lookup_many([[1, 1], [4, 1]])[1].tolist() == [0, 0]
        for floats in ([1.9, 1.2], [1.0, 1.0]):
            with pytest.raises(InvalidNodeError, match="must be integers"):
                m.add_level([floats], [0.0], [0.0], [0.0])
            with pytest.raises(InvalidNodeError, match="must be integers"):
                db.lookup_many([floats])
            with pytest.raises(InvalidNodeError, match="must be integers"):
                db.lookup(floats)
            with pytest.raises(InvalidNodeError, match="must be integers"):
                refine_candidates([floats])
        # the same truncation read [[1.9]] as the root, 1.9 as level 1 and
        # [2.7] as the coordinate 0.0, and joined (2.5, 0.9) into code 2
        for call in (lambda: split_codes([1.9]), lambda: dyadic_codes([1.9]),
                     lambda: coordinates([2.7]), lambda: join_codes([2.5], [0.9]),
                     lambda: join_codes([2], [0.9])):
            with pytest.raises(InvalidNodeError, match="must be integers"):
                call()
        for wrong in ([[1]], [[1, 1, 1]], [1, 1], [[[1, 1]]]):
            with pytest.raises(DimensionMismatchError):
                m.add_level(wrong, [0.0], [0.0], [0.0])
        with pytest.raises(DimensionMismatchError):
            db.lookup_many([1, 1])
        with pytest.raises(DimensionMismatchError):
            db.lookup([[1, 1]])
        for wrong in ([1, 2], [[[1]]]):  # [1, 2] raised IndexError
            with pytest.raises(DimensionMismatchError):
                refine_candidates(wrong)

    @settings(max_examples=40, deadline=None)
    @given(method=st.sampled_from(METHODS), dimension=st.integers(1, 3),
           max_level=st.integers(1, 6), kink=st.floats(0.0, 1.0))
    def test_nodes_view_equals_the_arrays_bitwise(self, method, dimension, max_level, kink):
        # nodes() is the one-record-per-node view of the code rows: every
        # point's coordinate(), output, w, v and spline flag equal the
        # array rows, bit for bit and zero signs included
        def func(x):
            k = round(8 * (math.sin(7 * x[0]) + abs(x[-1] - kink)))
            return k / 8 if k else math.copysign(0.0, math.sin(5 * sum(x)))

        cfg = AdaptiveConfig(dimension=dimension, epsilon=1e-3, max_level=max_level,
                             init_level=min(2, max_level - 1), min_line_points=5)
        m = build(ModelFunction(func, dimension, "eighths"), cfg, method).model
        nodes = m.nodes()
        assert len(nodes) == len(m)
        coords = np.array([n.point.coordinate() for n in nodes])
        assert coords.tobytes() == coordinates(m.codes).tobytes()
        assert [n.point.codes for n in nodes] == [tuple(row) for row in m.codes.tolist()]
        for name, array in (("output", m.outputs), ("w", m.w), ("v", m.v)):
            assert np.array([getattr(n, name) for n in nodes]).tobytes() == array.tobytes()
        assert [n.spline for n in nodes] == m.spline.tolist()

    def test_arrays_are_read_only(self):
        m = run_csc(ModelFunction(lambda x: x[0], 1, "x"), 1, 2).model
        for a in (m.codes, m.outputs, m.w, m.v, m.spline):
            with pytest.raises(ValueError):
                a[0] = 0
        # the counts are read from the provenance array, never set
        for name in ("full_evaluations", "spline_interpolations"):
            with pytest.raises(AttributeError):
                setattr(m, name, 0)
        assert (m.full_evaluations, m.spline_interpolations) == (5, 0)

    def test_kernel_key_limit(self):
        # level vector (40, 30) has 2**38 * 2**28 = 2**66 nodes: its kernel keys
        # would wrap int64, so the dim-1 stride read 0 and the node at index
        # 1000 answered with the surplus of the node at index 7
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [1.0], [1.0], [1.0])
        codes = join_codes([[40, 30], [40, 30]], [[5, 7], [5, 1000]])
        with pytest.raises(InvalidNodeError, match="KEY_LIMIT"):
            m.add_level(codes, [3.0, 4.0], [2.0, 3.0], [0.0, 0.0])
        assert len(m) == 1
        x = coordinates(codes)
        np.testing.assert_array_equal(m.interpolate_many(x), [1.0, 1.0])
        # a fine level vector that fits keeps exact values at its nodes
        fits = join_codes([[40, 20], [40, 20]], [[5, 7], [5, 1000]])
        m.add_level(fits, [3.0, 4.0], [2.0, 3.0], [0.0, 0.0])
        y = coordinates(fits)
        np.testing.assert_array_equal(m.interpolate_many(y), [3.0, 4.0])
        assert m.interpolate([y[0, 0], 0.9]) == 1.0
        # the limit counts every level vector of the model, not one at a time:
        # (62, 4, 1) on level 64 and (62, 3, 3) on level 65 hold 2**62 nodes each
        m = SurrogateModel(3)
        m.add_level([[1, 1, 1]], [1.0], [1.0], [1.0])
        m.add_level(join_codes([[62, 4, 1]], [[0, 0, 0]]), [0.0], [0.0], [0.0])
        deeper = join_codes([[62, 3, 3]], [[0, 0, 0]])
        with pytest.raises(InvalidNodeError, match="KEY_LIMIT"):
            m.add_level(deeper, [0.0], [0.0], [0.0])
        assert len(m) == 2
        fresh = SurrogateModel(3)
        fresh.add_level([[1, 1, 1]], [1.0], [1.0], [1.0])
        fresh.add_level(deeper, [0.0], [0.0], [0.0])  # alone it fits
        assert len(fresh) == 2

    def test_kernel_key_limit_counts_colliding_level_vectors(self, monkeypatch):
        # add_level finds a level's vectors by hash: when every hash collides,
        # (62, 4) and (4, 62), 2**62 nodes each, must still both count
        monkeypatch.setattr(core, "_row_weights", lambda d: np.zeros(d, dtype=np.int64))
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [1.0], [1.0], [1.0])
        codes = join_codes([[62, 4], [4, 62]], [[0, 0], [0, 0]])
        with pytest.raises(InvalidNodeError, match="KEY_LIMIT"):
            m.add_level(codes, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        assert len(m) == 1
        m.add_level(codes[:1], [0.0], [0.0], [0.0])
        assert len(m) == 2


class TestSplitOnce:
    """The level driver splits each level's codes once and hands the split
    on.  What it feeds gives, bit for bit, what a split of its own gives, and
    the public entry points still refuse codes of no node."""

    @given(dimension=st.integers(1, 4), piece=st.integers(1, 9), data=st.data())
    def test_coordinates_of_the_split_are_coordinates(self, dimension, piece, data):
        # shallow and deep levels, taken in pieces of a few entries
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        shape = (data.draw(st.integers(0, 30)), dimension)
        levels = np.where(rng.random(shape) < 0.5, rng.integers(1, 6, shape),
                          rng.integers(1, MAX_LEVEL + 1, shape))
        codes = join_codes(levels, rng.integers(0, core._nodes_per_level(levels)))
        num, exp = dyadic_codes(codes)
        want = np.ldexp(num, -exp)
        with mock.patch.object(core, "_SPLIT", piece):
            got = core._coordinates(*split_codes(codes))
        assert got.shape == codes.shape and got.tobytes() == want.tobytes()
        assert coordinates(codes).tobytes() == want.tobytes()
        # a file's parsed levels give the split too, up to MAX_LEVEL
        loaded = _split_of(codes, levels.astype(np.int8))
        assert [a.tobytes() for a in loaded] == [a.tobytes() for a in split_codes(codes)]

    @given(dimension=st.integers(1, 4), depth=st.integers(0, 4),
           keep=st.floats(0.2, 1.0), data=st.data())
    def test_add_level_with_the_split_lays_out_the_same_table(self, dimension, depth, keep,
                                                              data):
        # whole and thinned levels, rows in random order, inserted with and
        # without the split that the driver, or load from a file's levels,
        # hands on: every table field keeps its bits
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        plain, handed = SurrogateModel(dimension), SurrogateModel(dimension)
        for level in range(depth + 1):
            rows = level_rows(dimension, level)
            rows = rng.permutation(rows[rng.random(len(rows)) < keep] if level else rows)
            out, w, v = rng.standard_normal((3, len(rows)))
            split = split_codes(rows)
            loaded = _split_of(rows, split[0].astype(np.int8))
            assert [a.tobytes() for a in loaded] == [a.tobytes() for a in split]
            plain.add_level(rows, out, w, v)
            handed.add_level(rows, out, w, v, _split=split)
            for name, a, b in zip(core._Table._fields, plain._table, handed._table):
                a, b = np.asarray(a), np.asarray(b)
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
        for name in ("codes", "outputs", "w", "v", "spline"):
            assert getattr(plain, name).tobytes() == getattr(handed, name).tobytes(), name

    @given(dimension=st.integers(1, 4), level=st.integers(0, 3),
           bad=st.sampled_from([0, -1, -(1 << 40), 6, 7, 12, 3 << 40, 1 << 62, (1 << 63) - 1]),
           data=st.data())
    def test_public_entry_points_refuse_codes_of_no_node(self, dimension, level, bad, data):
        # the driver's rows skip these refusals, which a caller's rows still meet
        rows = level_rows(dimension, level)
        rows.flat[data.draw(st.integers(0, rows.size - 1))] = bad
        with pytest.raises(InvalidNodeError, match=r"invalid node \(level"):
            SurrogateModel(dimension).add_level(rows, *np.zeros((3, len(rows))))
        with pytest.raises(InvalidNodeError, match=r"invalid node \(level"):
            RegionDatabase(dimension).lookup_many(rows)
        with pytest.raises(InvalidNodeError, match=r"invalid node \(level"):
            refine_candidates(rows)
