"""Sparse grid collocation surrogates on the unit hypercube.

Conventional level-by-level construction, surplus-driven adaptive refinement,
and a spline-accelerated variant that certifies smooth 1-D lines and replaces
full model evaluations inside them.  Moments come analytically from the
hierarchical surpluses; a study harness compares the methods on the bundled
benchmarks and writes CSV reports.
"""

__version__ = "0.1.0"

from .adapt import (
    AdaptiveConfig,
    BuildResult,
    LevelRecord,
    ModelFunction,
    refine_candidates,
    run_asgc,
    run_csc,
)
from .core import (
    GridPoint,
    HierarchicalNode,
    SurrogateModel,
    coordinates,
    join_codes,
    split_codes,
)
from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    EmptyModelError,
    EvaluationError,
    InvalidNodeError,
    OutOfDomainError,
    PersistenceError,
    SparseGridError,
)
from .harness import (
    METHODS,
    MonteCarloEstimate,
    StudyReport,
    StudyRow,
    build,
    draw_test_points,
    max_abs_error,
    mc_reference,
    rmse,
    run_study,
)
from .io import load_surrogate, save_surrogate
from .models import benchmark_names, get_benchmark
from .moments import MomentEstimate, moments
from .smooth import (
    LineGroup,
    RegionDatabase,
    SmoothRegion,
    derivative_scan,
    group_lines,
    run_easgc,
    spline_value,
)
