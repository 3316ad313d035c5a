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
Poisson batch builds its conductivity fields in blocks of `POISSON_BLOCK`
rows, each row bitwise the field of its draw alone, and solves each block's
finite-difference systems in closed form: four sums per row, each within
about half an ulp and computed in steps that do not depend on the other
rows.  The scalar form is a one-row call of the same
code.  The model needs NumPy alone, so no model loads SciPy.
The Genz and truss benchmarks have no batch form: their vectorised dot
products and solves need not round as the scalar ones do.

Every parameter is checked when its benchmark is built: counts must be
integers (3.7 and True are refused, not truncated), and every real goes
through one reader that refuses anything but finite real numbers with a
ValueError naming the parameter.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from itertools import accumulate

import numpy as np

from .adapt import ModelFunction, _check_integer, _is_real
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

    The c_i sum to the family's weight sum in `_GENZ`, a standard
    difficulty normalisation.
    """
    if kind not in _GENZ:
        raise ValueError(f"unknown kind {kind!r}")
    raw = np.array([1.0 / (i + 1) for i in range(1, 6)])
    c = raw * (_GENZ[kind][1] / raw.sum())
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


# kind -> (function, weight sum of its default c): the registered `genz_<kind>`
# benchmarks and their defaults
_GENZ = {
    "oscillatory": (genz_oscillatory, 5.0),
    "corner_peak": (genz_corner_peak, 2.0),
    "discontinuous": (genz_discontinuous, 4.0),
}


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
    for mode, y in zip(modes, draws.T[1:, :, None]):  # xi_n * mode_n, column y_n
        expo += mode * y
    return 0.5 + np.exp(expo)


# rows per block: bounds the (rows, n_cells + 1) scratch arrays.  At the
# default 512 cells, 128-row blocks made the allocator return and re-fault
# about 2.9 MB of pages per block; 64-row blocks fault almost none.
POISSON_BLOCK = 64


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums along the last axis of `terms`, each within about half an ulp.

    The terms of each sum must share one sign.  Each is split exactly into
    a multiple of a power-of-two grid, coarse enough that these multiples
    add without rounding, and a remainder under one grid step, whose plain
    sum errs by far less than an ulp of the total (the error-free
    extraction of Rump, Ogita and Oishi).  Each row's sum takes the same
    steps whatever the other rows hold.  `terms` is overwritten.
    """
    _, exponent = np.frexp(np.add.reduce(terms, axis=-1))
    sigma = np.ldexp(4.0, exponent)[..., None]  # a power of two over 4 |sum|
    high = terms + sigma
    high -= sigma
    terms -= high
    return np.add.reduce(high, axis=-1) + np.add.reduce(terms, axis=-1)


class _PoissonGrid:
    """The finite-difference grid of one PoissonSpec and its draw-free parts.

    `solve` takes conductivity rows, `many` unit-cube draws; both return
    u(x_obs) per row.  The registered benchmark's scalar and batch forms
    are calls of these, so there is one discretisation.
    """

    def __init__(self, spec: PoissonSpec):
        n = spec.n_cells
        self.spec = spec
        self.x = np.linspace(0.0, 1.0, n + 1)
        self.modes = _weighted_modes(self.x, spec)
        h = 1.0 / n
        rhs = -2.0 * self.x[1:-1] * h * h  # node k's source at rhs[k - 1]
        # x_obs lies in cell j; `share` holds the fractions of the cell's
        # width left and right of it
        j = int(np.searchsorted(self.x, spec.x_obs, side="right")) - 1
        width = self.x[j + 1] - self.x[j]
        share = ((spec.x_obs - self.x[j]) / width, (self.x[j + 1] - spec.x_obs) / width)
        # T_i, the source summed over the nodes between cells j and i: over
        # nodes j+1..i right of cell j, and minus that over nodes i+1..j left
        # of it.  T_j = 0, T >= 0 left of cell j and T <= 0 right of it.
        # Each T_i is summed exactly, in integers over one power-of-two
        # denominator, and rounded once: a float cumsum puts some solves more
        # than 4 ulps off the exact one.
        def exact_cumsum(values):
            ratios = [value.as_integer_ratio() for value in values.tolist()]
            scale = max((q for _, q in ratios), default=1)
            return [total / scale for total in accumulate(p * (scale // q) for p, q in ratios)]

        source = np.zeros(n)
        source[j + 1:] = exact_cumsum(rhs[j:])
        source[:j] = exact_cumsum(-rhs[:j][::-1])[::-1]
        # the terms of the four sums of `solve`, A_l, A_r, L and R, are
        # numer / face[:, cells], one row per sum; a row's padding divides a
        # zero by cell j's face
        left, right = np.arange(j), np.arange(j + 1, n)
        self.cells = np.full((4, max(j + 1, n - j)), j)
        self.numer = np.zeros(self.cells.shape)
        for row, cells in enumerate((left, right, left, right)):
            self.cells[row, :len(cells)] = cells
        self.numer[0, :j] = source[left]
        self.numer[1, :n - j - 1] = source[right]
        self.numer[2, :j] = 1.0
        self.numer[2, j] = share[0]
        self.numer[3, :n - j - 1] = 1.0
        self.numer[3, n - j - 1] = share[1]

    def solve(self, kappa: np.ndarray) -> np.ndarray:
        """Solve -(kappa u')' = 2x, u(0) = u(1) = 0, per row of nodal kappa.

        Conservative second-order finite differences on n_cells cells with
        harmonic-mean face conductivities; u(x_obs) is linearly interpolated
        from the nodal solution.

        The system is solved in closed form.  The flux balance makes the flux
        G_i = face_i (u_{i+1} - u_i) through cell i equal to G_j + T_i.  Let
        A_l and A_r sum T_i / face_i over the cells left and right of cell j,
        and L and R sum 1 / face_i over the same cells plus cell j's share on
        that side of x_obs.  Then u(x_obs) = G_j L + A_l, and u(1) = 0 gives
        G_j = -(A_l + A_r) / (L + R), so u(x_obs) = (A_l R - A_r L) / (L + R).
        A_l, -A_r, L and R are sums of terms of one sign, so no step cancels.
        SparseGridError for a non-positive conductivity, and for a row whose
        faces or solution are not finite (a face that underflows to 0 makes
        the system singular).
        """
        if np.fmin.reduce(kappa, axis=None) <= 0.0:  # skips NaNs, which are refused below
            raise SparseGridError("conductivity must be positive everywhere")
        k0, k1 = kappa[:, :-1], kappa[:, 1:]
        with np.errstate(all="ignore"):  # a face that over- or underflows is refused below
            face = 2.0 * k0 * k1 / (k0 + k1)
            terms = self.numer / np.take(face, self.cells, axis=1)
            a_left, a_right, left, right = _row_sums(terms).T
            out = (a_left * right - a_right * left) / (left + right)
        if not (np.isfinite(out).all() and np.isfinite(face).all()):
            bad = np.flatnonzero(~(np.isfinite(out) & np.isfinite(face).all(axis=1)))[0]
            raise SparseGridError(f"linear solve failed: row {bad} has no finite solution "
                                  f"(a face conductivity is 0 or not finite)")
        return out

    def many(self, draws: np.ndarray) -> np.ndarray:
        """u(x_obs) for each row of (n, n_random) draws, POISSON_BLOCK rows at a time."""
        out = np.empty(len(draws))
        for lo in range(0, len(draws), POISSON_BLOCK):
            block = draws[lo:lo + POISSON_BLOCK]
            out[lo:lo + POISSON_BLOCK] = self.solve(_conductivity(block, self.modes, self.spec))
        return out

    def one(self, y) -> float:
        """u(x_obs) for one draw y; SparseGridError unless of shape (n_random,)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.spec.n_random,):
            raise SparseGridError(f"expected {self.spec.n_random} random inputs, "
                                  f"got shape {y.shape}")
        return float(self.solve(_conductivity(y[None], self.modes, self.spec))[0])


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
    if not (_is_real(value) and math.isfinite(value)):
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
        func, _ = _GENZ[kind]
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
    **{f"genz_{kind}": _make_genz(kind) for kind in _GENZ},
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
