"""rrsmooth: simplex mesh smoothing by radius-ratio energy minimization."""

from .assembly import (
    GlobalGradientSystem,
    Preconditioner,
    SpdAuditReport,
    assemble,
    assemble_preconditioner,
    energy_gradient,
    spd_audit,
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
    WouldInvert,
)
from .generate import (
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    VertexDisplace,
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
    minimize_lbfgs,
    minimize_nlcg,
    optimize,
    strong_wolfe_search,
)

__version__ = "0.1.0"
