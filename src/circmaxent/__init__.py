"""Maximum-entropy completion of banded symmetric block-circulant covariances."""

from .blockcirc import (
    BandData,
    BlockCirculant,
    Spectrum,
    circ_inverse,
    circ_logdet,
    circulant_average,
    dft_spectrum,
    gaussian_entropy,
    leading_band,
    leading_inverse_band,
    project_band_gram,
)
from .errors import (
    AsymmetricRow,
    BadInput,
    BandTooWide,
    CircMaxentError,
    InfeasibleStart,
    NoConvergence,
    NonRealSpectrum,
    NotPositiveDefinite,
    RequiresFullR,
    Unstable,
)
from .feasibility import (
    AffineEigForm,
    CandidateReport,
    FeasibilityVerdict,
    check_candidate,
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
    given_entry_matrix,
    ips_solve,
    sk1_solve,
)
from .solver import (
    DualVariable,
    SolutionReport,
    SolverConfig,
    SolverResult,
    dual_gradient,
    dual_objective,
    init_lambda,
    solve,
    verify_solution,
)
from .toeplitz import (
    LevinsonSolution,
    PhiInverseCoeffs,
    band_from_ar,
    circulant_approx,
    extend_covariances,
    phi_inverse_coeffs,
    solve_yule_walker,
)

__version__ = "0.1.0"
