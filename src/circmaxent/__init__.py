"""Maximum-entropy completion of banded symmetric block-circulant covariances."""

from .blockcirc import (
    BandData,
    BlockCirculant,
    circ_inverse,
    circ_logdet,
    circulant_average,
    leading_inverse_band,
    project_band_gram,
)
from .errors import (
    BadInput,
    BandTooWide,
    CircMaxentError,
    NoConvergence,
    NotPositiveDefinite,
    RequiresFullR,
    Unstable,
)
from .feasibility import (
    AffineEigForm,
    FeasibilityVerdict,
    eig_affine_forms,
    scalar_bw1_feasible,
)
from .generate import random_ar_band, random_feasible_band, random_stable_ar
from .ips import (
    CliqueSet,
    PatternGraph,
    ScalingResult,
    band_cliques,
    bron_kerbosch,
    ips_solve,
    sk1_solve,
)
from .solver import (
    DualVariable,
    SolutionReport,
    SolverConfig,
    SolverResult,
    dual_gradient,
    init_lambda,
    solve,
    verify_solution,
)
from .toeplitz import (
    LevinsonSolution,
    band_from_ar,
    circulant_approx,
    extend_covariances,
    phi_inverse_coeffs,
    solve_yule_walker,
)

__version__ = "0.1.0"
