"""Benchmark models exposed through the ModelFunction contract.

Four families: a 2-D function with a curved line singularity, the 5-D
oscillatory / corner-peak / discontinuous test functions, a spatial 1-D
diffusion problem whose log-conductivity is a truncated random expansion in
up to hundreds of uniform variables, and a six-member planar truss whose
diagonal can buckle and drop out of the load path.  All models map the unit
cube to a scalar and are pure, so they are safe to evaluate concurrently.

`get_benchmark` wires each family to the unit cube under a registered string
name and echoes every parameter for reproducible reports.  The kink, line
singularity and Poisson benchmarks also register a batch form that maps
(n, d) inputs to n outputs, bitwise equal to the scalar form row by row.  The
Poisson batch builds its conductivity fields with the same elementwise
operations as `diffusion_field`, in blocks of `POISSON_BLOCK` rows, and calls
LAPACK's tridiagonal `dgtsv` once per row; the scalar `poisson_solve` is a
one-row call of the same code.  SciPy's LAPACK is imported when the first
Poisson grid is built, not with this module, so no other model loads SciPy.
The Genz and truss benchmarks have no batch form: their vectorised dot
products and solves need not round as the scalar ones do.

Every parameter is checked when its benchmark is built: counts must be
integers (3.7 and True are refused, not truncated), and every real goes
through one reader that refuses anything but finite real numbers with a
ValueError naming the parameter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .adapt import ModelFunction, _check_integer
from .errors import SparseGridError

__all__ = [
    "line_singularity",
    "GenzParams",
    "genz_defaults",
    "genz_oscillatory",
    "genz_corner_peak",
    "genz_discontinuous",
    "PoissonSpec",
    "xi_coefficient",
    "diffusion_field",
    "poisson_solve",
    "POISSON_BLOCK",
    "TrussSpec",
    "solve_member_forces",
    "truss_member4_force",
    "get_benchmark",
    "benchmark_names",
]


# ---------------------------------------------------------------------------
# 2-D line singularity
# ---------------------------------------------------------------------------

def line_singularity(x, y):
    """1 / (|0.3 - x^2 - y^2| + 0.1): smooth except on a circular arc.

    Elementwise on arrays, with the same operations as on scalars.
    """
    return 1.0 / (abs(0.3 - x * x - y * y) + 0.1)


# ---------------------------------------------------------------------------
# 5-D test family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenzParams:
    """Shift and weight constants of the 5-D test family."""

    w1: float = 0.5
    w2: float = 0.5
    c: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.c) != 5:
            raise ValueError(f"c must have 5 entries, got {len(self.c)}")
        if not all(0.0 < ci < math.inf for ci in self.c):
            raise ValueError(f"c must be finite and strictly positive, got {list(self.c)}")
        if not (0.0 <= self.w1 <= 1.0 and 0.0 <= self.w2 <= 1.0):
            raise ValueError("w1 and w2 must lie in [0, 1]")


def genz_defaults(kind: str) -> GenzParams:
    """Default constants: c_i proportional to 1/(i+1), scaled per family.

    The weight sums are 5.0 (oscillatory), 2.0 (corner peak) and 4.0
    (discontinuous), a standard difficulty normalisation.
    """
    totals = {"oscillatory": 5.0, "corner_peak": 2.0, "discontinuous": 4.0}
    if kind not in totals:
        raise ValueError(f"unknown kind {kind!r}")
    raw = np.array([1.0 / (i + 1) for i in range(1, 6)])
    c = raw * (totals[kind] / raw.sum())
    return GenzParams(c=tuple(float(ci) for ci in c))


def genz_oscillatory(x, p: GenzParams) -> float:
    """cos(2 pi w1 + sum c_i x_i)."""
    x = np.asarray(x, dtype=float)
    return float(np.cos(2.0 * np.pi * p.w1 + np.dot(p.c, x)))


def genz_corner_peak(x, p: GenzParams) -> float:
    """(1 + sum c_i x_i)^-6, peaked at the origin corner."""
    x = np.asarray(x, dtype=float)
    return float((1.0 + np.dot(p.c, x)) ** (-6))


def genz_discontinuous(x, p: GenzParams) -> float:
    """exp(sum c_i x_i) on x1 < w1 and x2 < w2, exactly zero elsewhere."""
    x = np.asarray(x, dtype=float)
    if x[0] >= p.w1 or x[1] >= p.w2:
        return 0.0
    return float(np.exp(np.dot(p.c, x)))


# ---------------------------------------------------------------------------
# spatial 1-D diffusion with random conductivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonSpec:
    """Random-diffusivity two-point boundary value problem parameters.

    The log-conductivity expansion is truncated at `n_random` terms; the
    correlation length sets the period max(1, 2 L_c) and the decay ratio
    L_c / period of the expansion coefficients.
    """

    n_random: int = 10
    correlation_length: float = 0.5
    n_cells: int = 512
    x_obs: float = 0.5

    def __post_init__(self):
        for name, low in (("n_random", 1), ("n_cells", 10)):
            _check_integer(name, getattr(self, name), low)
            object.__setattr__(self, name, int(getattr(self, name)))  # a NumPy integer as int
        if not 0.0 < self.x_obs < 1.0:
            raise ValueError(f"x_obs must lie in (0, 1), got {self.x_obs}")
        if not 0.0 < self.correlation_length < math.inf:
            raise ValueError(f"correlation_length must be finite and positive, "
                             f"got {self.correlation_length}")

    @property
    def period(self) -> float:
        return max(1.0, 2.0 * self.correlation_length)

    @property
    def decay_ratio(self) -> float:
        return self.correlation_length / self.period


def xi_coefficient(n: int, decay_ratio: float) -> float:
    """Expansion coefficient of term n >= 2 (Gaussian decay in floor(n/2))."""
    if n < 2:
        raise ValueError(f"xi is defined for n >= 2, got {n}")
    k = n // 2
    return math.sqrt(math.sqrt(math.pi) * decay_ratio) * math.exp(
        -((k * math.pi * decay_ratio) ** 2) / 8.0
    )


def _weighted_modes(x: np.ndarray, spec: PoissonSpec) -> np.ndarray:
    """Rows xi_n * mode_n(x), n = 2..n_random: the draw-independent factors.

    Term n >= 2 is the sine (even n) or cosine (odd n) of frequency
    floor(n/2) over the period, weighted by its expansion coefficient.
    """
    ratio = spec.decay_ratio
    modes = np.empty((spec.n_random - 1, x.size))
    for n in range(2, spec.n_random + 1):
        k = n // 2
        phase = k * math.pi * x / spec.period
        mode = np.sin(phase) if n % 2 == 0 else np.cos(phase)
        modes[n - 2] = xi_coefficient(n, ratio) * mode
    return modes


def _conductivity(draws: np.ndarray, modes: np.ndarray, spec: PoissonSpec) -> np.ndarray:
    """0.5 + exp(expansion), one row per draw, at the positions of `modes`.

    Term 1 is the constant mode y_1 * sqrt(sqrt(pi) L / 2).  The terms are
    added in order, each as (xi_n * mode_n) * y_n, so every row is bitwise
    the field of its draw alone.
    """
    expo = np.empty((len(draws), modes.shape[1]))
    expo[:] = 1.0 + draws[:, :1] * math.sqrt(math.sqrt(math.pi) * spec.decay_ratio / 2.0)
    for n in range(2, spec.n_random + 1):
        expo += modes[n - 2] * draws[:, n - 1:n]
    return 0.5 + np.exp(expo)


def diffusion_field(x, y, spec: PoissonSpec) -> np.ndarray:
    """Conductivity 0.5 + exp(expansion) at positions x for unit-cube draw y.

    Term 1 is the constant mode y_1 * sqrt(sqrt(pi) L / 2); terms n >= 2
    alternate sine (even n) and cosine (odd n) of frequency floor(n/2) over
    the period.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.n_random,):
        raise SparseGridError(
            f"expected {spec.n_random} random inputs, got shape {y.shape}"
        )
    return _conductivity(y[None], _weighted_modes(x.ravel(), spec), spec)[0].reshape(x.shape)


POISSON_BLOCK = 128  # rows per block: bounds the (rows, n_cells + 1) scratch arrays


class _PoissonGrid:
    """The finite-difference grid of one PoissonSpec and its draw-free parts.

    `solve` takes conductivity rows, `many` unit-cube draws; both return
    u(x_obs) per row.  `poisson_solve` and the registered benchmark are
    calls of these, so there is one discretisation.
    """

    def __init__(self, spec: PoissonSpec):
        from scipy.linalg.lapack import dgtsv  # the one model that needs SciPy

        self.dgtsv = dgtsv
        n = spec.n_cells
        self.spec = spec
        self.x = np.linspace(0.0, 1.0, n + 1)
        self.modes = _weighted_modes(self.x, spec)
        h = 1.0 / n
        self.rhs = -2.0 * self.x[1:-1] * h * h

    def solve(self, kappa: np.ndarray) -> np.ndarray:
        """Solve -(kappa u')' = 2x, u(0) = u(1) = 0, per row of nodal kappa.

        Conservative second-order finite differences on n_cells cells with
        harmonic-mean face conductivities; u(x_obs) is linearly interpolated
        from the nodal solution.
        """
        if np.any(kappa <= 0.0):
            raise SparseGridError("conductivity must be positive everywhere")
        face = 2.0 * kappa[:, :-1] * kappa[:, 1:] / (kappa[:, :-1] + kappa[:, 1:])
        # tridiagonal system over interior nodes, off-diagonals face[1:-1]
        off = face[:, 1:-1]
        diag = -(face[:, :-1] + face[:, 1:])
        if not np.isfinite(diag).all():
            raise SparseGridError("linear solve failed: array must not contain infs or NaNs")
        u = np.zeros(self.x.size)
        out = np.empty(len(kappa))
        for r in range(len(kappa)):
            *_, interior, info = self.dgtsv(off[r], diag[r], off[r], self.rhs)
            if info:
                raise SparseGridError(f"linear solve failed: singular matrix (dgtsv info {info})")
            u[1:-1] = interior
            out[r] = np.interp(self.spec.x_obs, self.x, u)
        return out

    def many(self, draws: np.ndarray) -> np.ndarray:
        """u(x_obs) for each row of (n, n_random) draws, POISSON_BLOCK rows at a time."""
        out = np.empty(len(draws))
        for lo in range(0, len(draws), POISSON_BLOCK):
            block = draws[lo:lo + POISSON_BLOCK]
            out[lo:lo + POISSON_BLOCK] = self.solve(_conductivity(block, self.modes, self.spec))
        return out

    def one(self, y) -> float:
        """u(x_obs) for one draw y of shape (n_random,)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.spec.n_random,):
            raise SparseGridError(
                f"expected {self.spec.n_random} random inputs, got shape {y.shape}"
            )
        return float(self.many(y[None])[0])


def poisson_solve(y, spec: PoissonSpec, kappa_fn=None) -> float:
    """Solve -(kappa u')' = 2x on (0,1) with u(0) = u(1) = 0; return u(x_obs).

    Conservative second-order finite differences on n_cells cells with
    harmonic-mean face conductivities; the observation value is linearly
    interpolated from the nodal solution.  `kappa_fn` overrides the random
    field (test hook for manufactured solutions).  One row of the batched
    solver the `poisson` benchmark registers.
    """
    grid = _PoissonGrid(spec)
    if kappa_fn is None:
        return grid.one(y)
    kappa = np.asarray(kappa_fn(grid.x), dtype=float)
    if kappa.shape != grid.x.shape:
        kappa = np.full_like(grid.x, float(kappa))
    return float(grid.solve(kappa[None])[0])


# ---------------------------------------------------------------------------
# planar truss with a buckling diagonal
# ---------------------------------------------------------------------------

_SQRT3 = math.sqrt(3.0)

# panel nodes: A top-left, B top-right, C bottom-right (loaded), D bottom-left
_TRUSS_NODES = np.array([
    [0.0, 2.0 * _SQRT3],
    [2.0, 2.0 * _SQRT3],
    [2.0, 0.0],
    [0.0, 0.0],
])
# members 1..6: verticals B-C and A-D, chords A-B and D-C, diagonals B-D and A-C
_TRUSS_MEMBERS = ((1, 2), (1, 3), (0, 1), (0, 3), (0, 2), (3, 2))
_FIXED_DOFS = (0, 1, 3)  # pin at A, vertical roller at B
_DIAGONAL_INDEX = 4      # member 5, the brace allowed to buckle
_OUTPUT_INDEX = 3        # member 4, the reported vertical


def _member_geometry(i: int, j: int):
    delta = _TRUSS_NODES[j] - _TRUSS_NODES[i]
    length = float(np.hypot(*delta))
    return [2 * i, 2 * i + 1, 2 * j, 2 * j + 1], length, delta / length


# per member: its DOFs (x and y of its first node, then of its second), its
# length and its unit direction, the one geometry the stiffness, the force
# recovery and the Euler load all read
_TRUSS_GEOMETRY = [_member_geometry(i, j) for i, j in _TRUSS_MEMBERS]


@dataclass(frozen=True)
class TrussSpec:
    """Material, load and geometry constants of the six-member panel.

    Areas are in m^2.  The buckling model treats member 5 as a solid circular
    strut, I = A^2 / (4 pi).  The default load is chosen so the buckling
    boundary crosses the sampled area range [3, 9] cm^2.
    """

    modulus: float = 200e9
    load: float = 4000.0
    base_area: float = 6.0e-4

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.modulus, self.load, self.base_area)):
            raise ValueError("modulus, load and base_area must be finite and positive")

    def critical_load(self, area: float) -> float:
        """Euler critical load of member 5 for a solid circular section."""
        inertia = area * area / (4.0 * math.pi)
        length = _TRUSS_GEOMETRY[_DIAGONAL_INDEX][1]
        return math.pi ** 2 * self.modulus * inertia / length ** 2

    def default_areas(self) -> np.ndarray:
        return np.full(6, self.base_area)


def solve_member_forces(areas, spec: TrussSpec, include_diagonal: bool = True) -> np.ndarray:
    """Axial forces (tension positive) by the direct stiffness method.

    With `include_diagonal` off, member 5 is removed and its force reported
    as 0 (the statically determinate configuration).
    """
    areas = np.asarray(areas, dtype=float)
    if areas.shape != (6,):
        raise SparseGridError(f"expected 6 member areas, got shape {areas.shape}")
    if np.any(areas <= 0.0):
        raise SparseGridError("member areas must be positive")
    members = [idx for idx in range(6) if include_diagonal or idx != _DIAGONAL_INDEX]
    ndof = 2 * len(_TRUSS_NODES)
    stiffness = np.zeros((ndof, ndof))
    for idx in members:
        dofs, length, direction = _TRUSS_GEOMETRY[idx]
        signed = np.concatenate([-direction, direction])  # (-cx, -cy, cx, cy)
        k = spec.modulus * areas[idx] / length
        stiffness[np.ix_(dofs, dofs)] += k * np.outer(signed, signed)
    loads = np.zeros(ndof)
    loads[4] = -spec.load            # P to the left at C
    loads[5] = -_SQRT3 * spec.load   # sqrt(3) P downward at C
    free = [d for d in range(ndof) if d not in _FIXED_DOFS]
    k_ff = stiffness[np.ix_(free, free)]
    try:
        u_free = np.linalg.solve(k_ff, loads[free])
    except np.linalg.LinAlgError as exc:
        raise SparseGridError(f"singular stiffness matrix: {exc}") from exc
    u = np.zeros(ndof)
    u[free] = u_free
    forces = np.zeros(6)
    for idx in members:
        dofs, length, direction = _TRUSS_GEOMETRY[idx]
        stretch = (u[dofs[2:]] - u[dofs[:2]]) @ direction
        forces[idx] = spec.modulus * areas[idx] / length * stretch
    return forces


def truss_member4_force(areas, spec: TrussSpec) -> float:
    """Force in member 4 with the buckling switch applied.

    The indeterminate panel is solved first; if the brace's compressive force
    exceeds its Euler critical load it carries nothing, and the determinate
    panel without it is solved instead.
    """
    forces = solve_member_forces(areas, spec, include_diagonal=True)
    brace = forces[_DIAGONAL_INDEX]
    if brace < 0.0 and -brace > spec.critical_load(float(np.asarray(areas)[_DIAGONAL_INDEX])):
        forces = solve_member_forces(areas, spec, include_diagonal=False)
    return float(forces[_OUTPUT_INDEX])


# ---------------------------------------------------------------------------
# benchmark registry
# ---------------------------------------------------------------------------

def _real(params: dict, name: str, default):
    """Pop benchmark parameter `name`, or take `default`, as a finite float.

    Where `default` is a tuple, the parameter is a list, tuple or 1-D array
    of as many finite reals, returned as a tuple of floats.  Anything else
    (a bool, a string, a list where one number is due, a NaN or an
    infinity) raises a ValueError that names the parameter.
    """
    value = params.pop(name, default)
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple, np.ndarray)) and len(value) == len(default):
            return tuple(_real({name: v}, name, 0.0) for v in value)
        raise ValueError(f"{name} must be {len(default)} real numbers, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _make_kink(params):
    kink_pos = _real(params, "kink_pos", 0.4375)
    echo = {"kink_pos": kink_pos}
    return ModelFunction(lambda x: abs(float(x[0]) - kink_pos), 1, "kink",
                         batch=lambda xs: np.abs(xs[:, 0] - kink_pos)), echo


def _make_line_singularity(params):
    return ModelFunction(lambda x: line_singularity(x[0], x[1]), 2, "line_singularity",
                         batch=lambda xs: line_singularity(xs[:, 0], xs[:, 1])), {}


def _make_genz(kind):
    def build(params):
        defaults = genz_defaults(kind)
        p = GenzParams(**{name: _real(params, name, getattr(defaults, name))
                          for name in ("w1", "w2", "c")})
        func = {
            "oscillatory": genz_oscillatory,
            "corner_peak": genz_corner_peak,
            "discontinuous": genz_discontinuous,
        }[kind]
        echo = {"w1": p.w1, "w2": p.w2, "c": list(p.c)}
        return ModelFunction(lambda x: func(x, p), 5, f"genz_{kind}"), echo
    return build


def _make_poisson(params):
    spec = PoissonSpec(
        n_random=params.pop("n_random", 10),
        correlation_length=_real(params, "correlation_length", 0.5),
        n_cells=params.pop("n_cells", 512),
        x_obs=_real(params, "x_obs", 0.5),
    )
    grid = _PoissonGrid(spec)
    return ModelFunction(grid.one, spec.n_random, "poisson", batch=grid.many), asdict(spec)


def _make_truss(name: str, inputs):
    """The truss benchmark whose inputs set the areas of (member, low cm^2, high cm^2)."""
    members = [member - 1 for member, _, _ in inputs]
    lo = np.array([low for _, low, _ in inputs]) / 1e4
    hi = np.array([high for _, _, high in inputs]) / 1e4

    def build(params):
        spec = TrussSpec(**{field.name: _real(params, field.name, field.default)
                            for field in fields(TrussSpec)})

        def f(x):
            areas = spec.default_areas()
            areas[members] = lo + (hi - lo) * np.asarray(x, dtype=float)
            return truss_member4_force(areas, spec)

        echo = {**asdict(spec), "random_members": [member for member, _, _ in inputs],
                "bounds_cm2": [[low, high] for _, low, high in inputs]}
        return ModelFunction(f, len(inputs), name), echo
    return build


_REGISTRY = {
    "kink": _make_kink,
    "line_singularity": _make_line_singularity,
    "genz_oscillatory": _make_genz("oscillatory"),
    "genz_corner_peak": _make_genz("corner_peak"),
    "genz_discontinuous": _make_genz("discontinuous"),
    "poisson": _make_poisson,
    "truss2": _make_truss("truss2", [(2, 3, 9), (5, 3, 9)]),
    "truss3": _make_truss("truss3", [(1, 5.5, 6.5), (3, 5.5, 6.5), (5, 3, 9)]),
}


def benchmark_names() -> list[str]:
    return sorted(_REGISTRY)


def get_benchmark(name: str, params: dict | None = None):
    """Instantiate a registered benchmark.

    Returns (ModelFunction, parameter echo).  Unknown parameter keys raise,
    so configuration typos fail loudly.
    """
    if name not in _REGISTRY:
        raise SparseGridError(
            f"unknown benchmark {name!r}; available: {', '.join(benchmark_names())}"
        )
    params = dict(params or {})
    model, echo = _REGISTRY[name](params)
    if params:
        raise SparseGridError(
            f"unused benchmark parameters for {name!r}: {sorted(params)}"
        )
    return model, echo
