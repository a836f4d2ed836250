"""Certification of membership in the separable-moment cone C and its dual
nonnegativity cone P for symmetric square-free quadratics on products of unit
balls, with SOS inner/outer approximations and a d=3 collective-spin
entanglement witness."""

from .core import (
    ConeVerdict,
    Configuration,
    MomentVector,
    ProblemDims,
    Status,
    SymmetricQuadratic,
    evaluate,
    moments_of_configuration,
    pair,
    power_sums,
)
from .exact_d1 import c_n1_membership, p_n1_membership
from .halfdeg import full_bruteforce_min, reduced_global_min
from .measures import AtomicMeasure, lemma_approx_construct, measure_moments
from .moment_cone import (
    classify,
    necessary_condition,
    separating_polynomial,
    sufficient_condition,
)
from .sos_cone import (
    ellipsoid_quadratic_min,
    sigma_membership_lmi,
    sos_witness,
    verify_sos_witness,
)
from .spin import (
    SymmetricState,
    coherent_state,
    dicke_state,
    entanglement_witness,
    ghz_state,
    spin_moments,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "ConeVerdict",
    "Configuration",
    "MomentVector",
    "ProblemDims",
    "Status",
    "SymmetricQuadratic",
    "SymmetricState",
    "c_n1_membership",
    "classify",
    "coherent_state",
    "dicke_state",
    "ellipsoid_quadratic_min",
    "entanglement_witness",
    "evaluate",
    "full_bruteforce_min",
    "ghz_state",
    "lemma_approx_construct",
    "measure_moments",
    "moments_of_configuration",
    "necessary_condition",
    "p_n1_membership",
    "pair",
    "power_sums",
    "reduced_global_min",
    "separating_polynomial",
    "sigma_membership_lmi",
    "sos_witness",
    "spin_moments",
    "sufficient_condition",
    "verify_sos_witness",
]
