"""Equiangular tight frames in real symplectic space.

Construction, certification, and conversion between symplectic ETFs and
their combinatorial equivalents: skew conference and skew Hadamard
matrices, doubly regular tournaments, and complex ETF signature matrices.
"""

from .skewlinalg import (
    DEFAULT_TOL,
    SkewSpectralForm,
    ToleranceProfile,
    rank_by_sv,
    skew_spectral_form,
)
from .frames import (
    EtfCertificate,
    FrameBounds,
    admissible_sizes,
    analysis,
    certify_etf,
    dual_frame,
    factor_gram,
    frame_bounds,
    frame_operator,
    gram,
    is_equiangular,
    is_frame,
    is_tight,
    omega,
    symplectic_witness,
)
from .potentials import (
    PotentialReport,
    frame_potential,
    normalize_nuclear,
    potential_bound,
    potential_gradient,
    potential_report,
)
from .tournaments import (
    DegreeStats,
    count_diamonds_bruteforce,
    count_diamonds_formula,
    degree_stats,
    diamond_upper_bound,
    flat_kernel,
    gamma,
    is_doubly_regular,
    random_tournament,
    seidel_from_gram,
    switch,
)
from .hadamard import (
    DoublingCoefficients,
    core,
    default_b_matrix,
    double_frame,
    double_hadamard,
    doubling_coefficients,
    etf_core_to_hadamard,
    etf_to_conference,
    etf_to_hadamard_square,
    hadamard_to_etf_core,
    hadamard_to_etf_square,
    is_skew_conference,
    is_skew_hadamard,
    normalize_conference,
    seed_hadamard,
)
from .complex_lift import (
    beta_constant,
    core_lift_scale,
    lift_core,
    lift_square,
    realify,
    signature_check,
    synthesis_from_signature,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    continuous_etf_search,
    discrete_diamond_search,
    gerzon_oracle,
)
from .matio import read_matrix, write_matrix

__version__ = "0.1.0"
