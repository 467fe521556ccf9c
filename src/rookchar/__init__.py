"""Computable representation theory of the symmetric inverse semigroup.

Element arithmetic and quasi-cycle decomposition, the central state family
with exact PSD certification, and finite-dimensional tensor oracles.
"""

from .elements import (
    PartialBijection,
    compose,
    cycle,
    enumerate_rn,
    idempotent,
    identity,
    parse_element,
    render,
    rn_size,
    star,
    support,
    symmetric_group,
    transposition,
)
from .errors import ParseError, ResourceGuardError
from .quasicycles import (
    ConjugacyInvariant,
    QuasiCycle,
    QuasiCycleDecomposition,
    conjugacy_invariant,
    decompose,
    find_conjugator,
    quasicycle_decompose,
)
from .algebra import FormalSum, algebra_product, check_gelfand_pair, symmetrizer
from .words import (
    EPS1,
    S,
    element_to_word,
    verify_popova_relations,
    word_to_element,
)
from .linalg import PsdCertificate, RationalMatrix, psd_certificate, verify_certificate
from .states import (
    GramReport,
    State,
    StateSpec,
    ThomaParams,
    check_centrality,
    check_conjugation_invariance,
    check_multiplicativity,
    check_star_symmetry,
    classify_factor_type,
    evaluate,
    gram_matrix,
    make_state,
    thoma_character,
)
from .tensor_model import (
    ModelParams,
    TensorEmbedding,
    marked_cycle_value,
    model_from_state,
    okounkov_check,
    okounkov_projection_check,
    phi_closed_form,
    phi_model,
    validate_params,
)
from .spherical import (
    SphericalModel,
    infinite_spherical_value,
    spherical_coeff,
    spherical_coeff_closed_form,
    spherical_limit_check,
)

__version__ = "0.1.0"
