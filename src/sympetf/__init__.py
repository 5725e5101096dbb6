"""Equiangular tight frames in real symplectic space.

Construction, certification, and conversion between symplectic ETFs and
their combinatorial equivalents: skew conference and skew Hadamard
matrices, doubly regular tournaments, and complex ETF signature matrices.
"""

from .skewlinalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    rank_by_sv,
)
from .frames import (
    FrameBounds,
    admissible_sizes,
    analysis,
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
    frame_potential,
    normalize_nuclear,
    potential_bound,
    potential_gradient,
)
from .tournaments import (
    DegreeStats,
    count_diamonds_bruteforce,
    count_diamonds_formula,
    degree_stats,
    diamond_upper_bound,
    gamma,
    is_doubly_regular,
    random_tournament,
    switch,
)
from .hadamard import (
    DoublingCoefficients,
    EtfCertificate,
    certify_etf,
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
    seidel_from_gram,
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
