"""Node hierarchy, basis functions, surpluses and the interpolation property.

The library holds nodes as integer code rows; tests/reference.py holds the
one-node-at-a-time definitions they are checked against.
"""

import math
import tracemalloc

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

    def test_empty_model_errors(self):
        m = SurrogateModel(2)
        with pytest.raises(EmptyModelError):
            m.interpolate([0.5, 0.5])
        with pytest.raises(EmptyModelError):
            m.depth

    def test_duplicate_key_rejected(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [1.0], [1.0], [1.0])
        with pytest.raises(ContractViolationError):
            m.add_level([[1]], [2.0], [2.0], [4.0])
        # a row stored already, or repeated in the batch, is named and
        # nothing of the batch is inserted; new level vectors included
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [1.0], [1.0], [1.0])
        m.add_level([[2, 1]], [0.0], [-1.0], [1.0])
        x = np.random.default_rng(4).random((50, 2))
        before = len(m), m.codes.tobytes(), m.interpolate_many(x).tobytes()
        for batch, row in (([[1, 2], [2, 1]], r"\[2, 1\]"),  # stored
                           ([[3, 1], [1, 2], [3, 1]], r"\[3, 1\]"),  # repeated, vector stored
                           ([[1, 2], [1, 3], [1, 3]], r"\[1, 3\]")):  # repeated, new vector
            ones = [5.0] * len(batch)
            with pytest.raises(ContractViolationError, match=rf"duplicate node {row}"):
                m.add_level(batch, ones, ones, ones)
            assert (len(m), m.codes.tobytes(), m.interpolate_many(x).tobytes()) == before
        m.add_level([[3, 1], [1, 2], [1, 3]], [5.0] * 3, [5.0] * 3, [5.0] * 3)
        assert len(m) == 5
        assert m.stored([[3, 1], [1, 2], [1, 3], [2, 2]]).tolist() == [True, True, True, False]

    def test_no_per_node_python_containers(self):
        # node membership lives in the kernel's key table alone: no attribute
        # of a built model is a Python container with an entry per node
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

    def test_unknown_coeff_rejected(self):
        # x^2 on CSC level 3: w-sum 0.09375 and v-sum 0.01025390625 at 0.3
        m = run_csc(ModelFunction(lambda x: x[0] ** 2, 1, "sq"), 1, 3).model
        assert m.interpolate_many([[0.3]], coeff="w")[0] == pytest.approx(0.09375)
        assert m.interpolate_many([[0.3]], coeff="v")[0] == pytest.approx(0.01025390625)
        for bad in ("W", "", "wv"):
            with pytest.raises(ValueError):
                m.interpolate_many([[0.3]], coeff=bad)


def surplus(m, p, value):
    """w surplus of one value at point p against the model, via the batch kernel."""
    w, _ = m.surpluses_against_prefix(coordinates(ref.codes(p)), np.array([value]))
    return float(w[0])


class TestComputeSurplus:
    def test_root_against_empty(self):
        m = SurrogateModel(3)
        assert surplus(m, root_point(3), 4.2) == 4.2

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
        for coeff in ("w", "v"):
            got = m.interpolate_many(queries, coeff=coeff)
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
        sons = sons[~m.stored(sons)]
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

        for coeff in ("w", "v"):
            whole = m.interpolate_many(queries, coeff)
            split = [m.interpolate_many(queries[rows], coeff) for rows in pieces(len(queries))]
            assert np.concatenate(split).tobytes() == whole.tobytes(), coeff
        single = np.array([m.interpolate(x) for x in queries])
        assert single.tobytes() == m.interpolate_many(queries).tobytes()

        sons = refine_candidates(m.codes)
        sons = coordinates(sons[~m.stored(sons)])
        values = rng.choice([k / 8 for k in range(-16, 17)] + [-0.0], len(sons))
        whole = m.surpluses_against_prefix(sons, values)
        split = [m.surpluses_against_prefix(sons[rows], values[rows])
                 for rows in pieces(len(sons))]
        for j, coeff in enumerate("wv"):
            got = np.concatenate([part[j] for part in split])
            assert got.tobytes() == whole[j].tobytes(), coeff

    def test_surplus_terms_only_for_dominated_groups(self, monkeypatch):
        # count the node keys the kernel looks up in a CSC build: it should
        # look up about one per candidate and dominated group, well below
        # one per candidate and stored group
        looked_up = []
        searchsorted = np.searchsorted

        def counting(a, v, *args, **kwargs):
            if np.ndim(v) == 2:  # the kernel's (rows, groups) array of node keys
                looked_up.append(np.size(v))
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
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
        # a block that spans several level vectors looks up the union of their
        # groups for each of its rows, so the count may exceed `dominated`
        assert dominated <= sum(looked_up) <= 1.25 * dominated

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
        sums = m._evaluate_sum(np.array([[0.5]]), (0, 1), start=np.array([[1.5, 2.5]]))
        np.testing.assert_array_equal(sums, [[1.5, 2.5]])

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
        # coarse-to-fine query folds continue exactly: the sums of a model's
        # earlier levels plus the new level's groups are a fresh evaluation
        f = ModelFunction(lambda x: math.exp(x[0]) * math.sin(4 * x[1]) + abs(x[1] - 0.3),
                          2, "m")
        queries = np.random.default_rng(8).random((3000, 2))
        carried = {"sums": None, "groups": 0, "levels": 0}

        def on_level(model, record):
            carried["sums"] = model._evaluate_sum(queries, (0, 1), carried["groups"],
                                                  carried["sums"])
            carried["groups"] = model._group_count
            carried["levels"] += 1
            for j, coeff in enumerate("wv"):
                np.testing.assert_array_equal(carried["sums"][:, j],
                                              model.interpolate_many(queries, coeff))

        cfg = AdaptiveConfig(dimension=2, epsilon=1e-3, max_level=9, init_level=2)
        build(f, cfg, "ASGC", on_level)
        assert carried["levels"] == 10

    def test_table_growth_does_not_change_results(self, tmp_path):
        # one model inserted three ways: a level per call, a node per call
        # (shuffled within each level, so groups and keys land mid-table), and
        # through save -> load; all must evaluate bitwise alike
        f, _ = get_benchmark("line_singularity")
        cfg = AdaptiveConfig(dimension=2, epsilon=1e-2, max_level=9, init_level=2)
        result = build(f, cfg, "EASGC")
        built = result.model
        assert built.spline.any()
        per_node = SurrogateModel(2)
        rng = np.random.default_rng(2)
        nodes = built.nodes()
        depth = split_codes(built.codes)[0].sum(axis=1) - 2
        for level in range(built.depth + 1):
            for k in rng.permutation(np.flatnonzero(depth == level)):
                per_node.add_node(nodes[k])
        path = tmp_path / "model.surrogate"
        save_surrogate(path, built, result.region_db)
        loaded, _ = load_surrogate(path)
        queries = np.vstack([rng.random((2000, 2)), coordinates(built.codes)])
        sons = refine_candidates(built.codes)
        sons = sons[~built.stored(sons)]
        values = rng.standard_normal(len(sons))
        want = [built.interpolate_many(queries, c) for c in "wv"]
        want_surplus = built.surpluses_against_prefix(coordinates(sons), values)
        for twin in (per_node, loaded):
            for got, expected in zip((twin.interpolate_many(queries, c) for c in "wv"), want):
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
        assert len(m) == len(want) and all(p.codes in m for p in pts)
        # each level's rows, in the order they were inserted
        level = split_codes(m.codes)[0].sum(axis=1) - dimension
        for lv in {p.level for p in pts}:
            assert m.codes[level == lv].tolist() == [r[0].codes for r in rows if r[0].level == lv]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_add_level_fails_where_add_node_did(self, data):
        """Batches of one level, against the row-by-row rules of add_node.

        add_node refused a frozen model, a point of another dimension, a key
        already stored and a level below the deepest one; add_level refuses
        the same batches, and a batch that fails inserts nothing.
        """
        dimension = data.draw(st.integers(1, 3))
        m = SurrogateModel(dimension)
        keys, deepest, frozen = set(), None, False
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
            elif (len(batch_keys) < len(batch) or keys & batch_keys
                  or (deepest is not None and first.level < deepest)):
                expected = ContractViolationError
            else:
                expected = None
            size = len(m)
            codes = ref.codes(*batch)
            zeros = [0.0] * len(batch)
            if expected is None:
                m.add_level(codes, zeros, zeros, zeros)
                keys |= batch_keys
                deepest = first.level
                assert len(m) == size + len(batch)
                continue
            with pytest.raises(expected):
                m.add_level(codes, zeros, zeros, zeros)
            assert len(m) == size
            # node by node, into a copy of the model, fails by the same rule
            twin = SurrogateModel(dimension)
            for node in m.nodes():
                twin.add_node(node)
            if frozen:
                twin.freeze()
            with pytest.raises(expected):
                for p in batch:
                    twin.add_node(HierarchicalNode(GridPoint(tuple(p.codes)), 0.0, 0.0, 0.0))

    def test_mixed_levels_and_non_integer_codes_rejected(self):
        m = SurrogateModel(1)
        with pytest.raises(ContractViolationError):
            m.add_level([[1], [2]], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(InvalidNodeError):
            m.add_level([[1.5]], [0.0], [0.0], [0.0])
        assert len(m) == 0

    def test_code_entry_points_refuse_floats_and_wrong_widths(self):
        # a cast to int64 truncated 1.9 to 1, so [1.9, 1.2] read as the root
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [1.0], [1.0], [1.0])
        db = RegionDatabase()
        db.store(SmoothRegion(dim=0, anchor=(1,), knots=[0.0, 0.25, 0.5, 1.0],
                              outputs=[0.0, 1.0, 2.0, 3.0]))
        assert [1, 1] in m and np.array([1, 1], dtype=np.uint8) in m and [1, 2] not in m
        assert m.stored([[1, 1], [2, 1]]).tolist() == [True, False]
        assert m.stored(np.empty((0, 2), dtype=np.int64)).shape == (0,)
        # codes of no node: 0, and 6 = 0b110, whose top two bits are 11
        for bad in ([0, 1], [6, 1], [1, -3]):
            with pytest.raises(InvalidNodeError, match="invalid node"):
                bad in m
            with pytest.raises(InvalidNodeError, match="invalid node"):
                m.stored([[1, 1], bad])
            with pytest.raises(InvalidNodeError, match="invalid node"):
                db.lookup(bad)
            with pytest.raises(InvalidNodeError, match="invalid node"):
                db.lookup_many([[1, 1], bad])
        assert db.lookup([1, 1])[1] == 0.5
        assert db.lookup_many([[1, 1], [4, 1]])[1].tolist() == [0, 0]
        for floats in ([1.9, 1.2], [1.0, 1.0]):
            with pytest.raises(InvalidNodeError, match="must be integers"):
                floats in m
            with pytest.raises(InvalidNodeError, match="must be integers"):
                m.stored([floats])
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
        for wrong in ([1], [1, 1, 1], [[1, 1]]):
            with pytest.raises(DimensionMismatchError):
                wrong in m
        for wrong in ([[1]], [[1, 1, 1]], [1, 1], [[[1, 1]]]):
            with pytest.raises(DimensionMismatchError):
                m.stored(wrong)
        with pytest.raises(DimensionMismatchError):
            SurrogateModel(1).stored([[1, 2]])
        with pytest.raises(DimensionMismatchError):
            db.lookup_many([1, 1])
        with pytest.raises(DimensionMismatchError):
            db.lookup([[1, 1]])
        for wrong in ([1, 2], [[[1]]]):  # [1, 2] raised IndexError
            with pytest.raises(DimensionMismatchError):
                refine_candidates(wrong)

    @settings(max_examples=40, deadline=None)
    @given(method=st.sampled_from(METHODS), dimension=st.integers(1, 3),
           max_level=st.integers(1, 6), data=st.data())
    def test_membership_equals_a_set_of_code_rows(self, method, dimension, max_level, data):
        cfg = AdaptiveConfig(dimension=dimension, epsilon=1e-3, max_level=max_level,
                             init_level=min(2, max_level - 1), min_line_points=5)
        f = ModelFunction(lambda x: float(abs(x[0] - 0.3) + np.sin(x[-1])), dimension, "k")
        m = build(f, cfg, method).model
        rows = {tuple(row) for row in m.codes.tolist()}
        probes = [m.codes, refine_candidates(m.codes)]
        # rows of level vectors the model may not hold, of any level up to 9
        drawn = data.draw(st.lists(points(dimension, max_level=9), max_size=20))
        probes.append(ref.codes(*drawn).reshape(-1, dimension))
        # level vector (40, 30): 2**66 nodes, whose keys would wrap int64
        deep = join_codes([[40, 30, 1][:dimension]], [[5, 1000, 0][:dimension]])
        probes.append(deep)
        codes = np.concatenate(probes)
        order = data.draw(st.permutations(range(len(codes))))
        codes = codes[list(order)]
        want = [tuple(row) in rows for row in codes.tolist()]
        assert m.stored(codes).tolist() == want
        assert [row in m for row in codes] == want
        assert not m.stored(deep)[0] and deep[0] not in m

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
        # the limit counts every level vector of the model, not one at a time
        m = SurrogateModel(2)
        m.add_level([[1, 1]], [1.0], [1.0], [1.0])
        m.add_level(join_codes([[62, 4]], [[0, 0]]), [0.0], [0.0], [0.0])  # 2**62 nodes
        with pytest.raises(InvalidNodeError, match="KEY_LIMIT"):
            m.add_level(join_codes([[4, 62]], [[0, 0]]), [0.0], [0.0], [0.0])
        assert len(m) == 2

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
