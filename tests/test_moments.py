"""Analytic moments against quadrature oracles and hand-derived values."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

import reference as ref
from reference import NodeIndex1D, point, root_point
from sgsurrogate import (
    ModelFunction,
    SurrogateModel,
    moments,
    run_csc,
)
from sgsurrogate.errors import EmptyModelError
from sgsurrogate.moments import _weights


def tensor_trapezoid_mean(model, points_per_axis=65):
    """Oracle: trapezoidal integration of the interpolant on a dense tensor grid.

    The grid contains every breakpoint of the piecewise-linear interpolant up
    to 1-D level 7, so the trapezoid rule integrates it exactly.
    """
    axes = [np.linspace(0.0, 1.0, points_per_axis)] * model.dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    values = model.interpolate_many(pts).reshape([points_per_axis] * model.dimension)
    for _ in range(model.dimension):
        values = trapezoid(values, dx=1.0 / (points_per_axis - 1), axis=-1)
    return float(values)


class TestWeights:
    @pytest.mark.parametrize("level,expected", [(1, 1.0), (2, 0.25), (3, 0.25), (4, 0.125), (7, 2.0 ** -6)])
    def test_weight_1d(self, level, expected):
        assert _weights(np.asarray(level)) == expected

    def test_weight_1d_is_basis_integral(self):
        # quadrature oracle over each basis function; the 1025-point grid
        # contains every hat breakpoint through level 7, so trapz is exact
        xs = np.linspace(0, 1, 1025)
        got = _weights(np.arange(1, 8))
        for level in range(1, 8):
            n = NodeIndex1D(level, 0)
            integral = trapezoid([ref.basis_1d(n, x) for x in xs], xs)
            assert integral == pytest.approx(got[level - 1], abs=1e-7)
            assert ref.weight_1d(level) == got[level - 1]

    def test_weight_nd_examples(self):
        # the mean of a one-node model with w = 1 is its basis integral
        def weight_nd(p):
            m = SurrogateModel(p.dimension)
            m.add_level(ref.codes(p), [1.0], [1.0], [1.0])
            assert moments(m).mean == ref.weight_nd(p)
            return moments(m).mean

        assert weight_nd(root_point(3)) == 1.0
        assert weight_nd(point((2, 0), (3, 1))) == 0.25 * 0.25
        assert weight_nd(point((1, 0), (5, 3))) == 2.0 ** -4


def build_model(func, d, level):
    f = ModelFunction(lambda x: float(func(x)), d, "m")
    return run_csc(f, d, level).model


class TestMoments:
    def test_constant_model(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [2.5], [2.5], [6.25])
        est = moments(m)
        assert est.mean == 2.5
        assert est.variance == 0.0

    def test_linear_hand_expansion(self):
        m = build_model(lambda x: x[0], 1, 1)
        est = moments(m)
        assert est.mean == 0.5            # 0.5*1 - 0.5*(1/4) + 0.5*(1/4), exact
        assert est.mean_square == 0.375   # v-surpluses (0.25, -0.25, 0.75)
        assert est.variance == 0.125

    def test_empty_model(self):
        with pytest.raises(EmptyModelError):
            moments(SurrogateModel(2))

    @pytest.mark.parametrize("d,level", [(1, 6), (2, 4), (3, 3)])
    def test_mean_matches_tensor_quadrature(self, d, level):
        func = lambda x: np.sin(2.0 * x[0]) + np.prod(x) ** 2
        m = build_model(func, d, level)
        assert moments(m).mean == pytest.approx(tensor_trapezoid_mean(m), abs=1e-10)

    def test_mean_square_matches_quadrature_of_v_interpolant(self):
        m = build_model(lambda x: x[0] * x[0], 1, 4)
        # the v surpluses interpolate the squared output on the same grid
        xs = np.linspace(0, 1, 4097)
        v_interp = m._evaluate_sum(xs[:, None], (1,))[0, 0] + 0.0
        oracle = trapezoid(v_interp, xs)
        assert moments(m).mean_square == pytest.approx(float(oracle), abs=1e-10)

    def test_scaling_linearity(self):
        base = build_model(lambda x: np.cos(3 * x[0]) + x[0], 1, 5)
        scaled = build_model(lambda x: 4.0 * (np.cos(3 * x[0]) + x[0]), 1, 5)
        eb, es = moments(base), moments(scaled)
        assert es.mean == pytest.approx(4.0 * eb.mean, rel=1e-13)
        assert es.variance == pytest.approx(16.0 * eb.variance, rel=1e-12)

    def test_variance_converges_to_uniform_reference(self):
        # Var of U(0,1) is 1/12; the interpolant of x^2 carries h^2/6 bias
        m8 = build_model(lambda x: x[0], 1, 8)
        assert abs(moments(m8).variance - 1.0 / 12.0) < 1e-3
        m10 = build_model(lambda x: x[0], 1, 10)
        assert abs(moments(m10).variance - 1.0 / 12.0) < 1e-6

    def test_negative_variance_clamped_within_tolerance(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [1.0], [1.0], [1.0 - 1e-14])
        assert moments(m).variance == 0.0

    def test_negative_variance_beyond_tolerance_raises(self):
        m = SurrogateModel(1)
        m.add_level([[1]], [1.0], [1.0], [0.9])
        with pytest.raises(ValueError):
            moments(m)


# a build of 32,769 nodes, past the length (10,000 in OpenBLAS) from which a
# BLAS dot splits its sum across threads
MOMENT_BITS = textwrap.dedent("""
    from sgsurrogate import get_benchmark, moments, run_csc

    est = moments(run_csc(get_benchmark("line_singularity")[0], 2, 12).model)
    print(*(float.hex(x) for x in (est.mean, est.mean_square, est.variance)))
""")


def test_moments_do_not_depend_on_blas_threads():
    # each moment adds exact products in NumPy's own order, the same in a
    # process of one BLAS thread as in one of two
    src = Path(__file__).resolve().parent.parent / "src"
    bits = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", MOMENT_BITS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        bits.append(done.stdout)
    assert bits[0] == bits[1]
