"""rrsmooth: simplex mesh smoothing by radius-ratio energy minimization."""

from .assembly import (
    Preconditioner,
    assemble,
    assemble_preconditioner,
    energy_gradient,
    gradient_matrix,
    write_matrix_market,
)
from .cap import max_step_before_inversion
from .errors import (
    DegenerateElement,
    DisconnectedMesh,
    EmptyMesh,
    IndefiniteMatrix,
    InvalidSpec,
    LineSearchFailed,
    MeshError,
    NoFixedVertices,
    NonPlanarPatch,
    ParseError,
    UnsupportedFormat,
)
from .generate import (
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    XorShift64Star,
    gen_mesh,
    perturb_mesh,
)
from .mesh import (
    FIX_ALL,
    SLIDE_PLANAR,
    QualityStats,
    SimplexMesh,
    classify_boundary,
    quality_stats,
    repair_orientation,
    validate,
)
from .optim import (
    OptimizeConfig,
    OptimizeReport,
    backtracking_search,
    cg_solve,
    optimize,
    strong_wolfe_search,
)

__version__ = "0.1.0"
