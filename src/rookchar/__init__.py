"""Computable representation theory of the symmetric inverse semigroup.

Element arithmetic and quasi-cycle decomposition, the central state family
with exact PSD certification, and finite-dimensional tensor oracles.

Everything but the tensor oracles is exact and free of numpy.  The oracle
module ``tensor_model``, the only one that imports numpy, is registered here
without running its body: it runs, and numpy loads, on first use of one of
its names, so exact work never pays for the numpy import.
"""

import importlib.util
import sys

from .elements import (
    PartialBijection,
    compose,
    cycle,
    enumerate_rn,
    idempotent,
    identity,
    parse_element,
    rn_size,
    symmetric_group,
    transposition,
)
from .errors import CheckReport, ParseError, ResourceGuardError
from .quasicycles import (
    ConjugacyInvariant,
    QuasiCycle,
    QuasiCycleDecomposition,
    conjugacy_invariant,
    decompose,
    find_conjugator,
)
from .algebra import FormalSum, check_gelfand_pair, symmetrizer
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
from .spherical import (
    SphericalModel,
    infinite_spherical_value,
    spherical_coeff,
    spherical_coeff_closed_form,
    spherical_limit_check,
)

__version__ = "0.1.0"


def _lazy_submodule(name: str):
    """Register the submodule ``name`` in ``sys.modules``; its body runs on first use.

    Registering, rather than importing on demand, keeps
    ``sys.modules["rookchar.tensor_model"]`` present for code that looks the
    module up there, such as the benchmark's tracer (perfbench/tracing.py),
    which patches its functions.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


tensor_model = _lazy_submodule("tensor_model")

_TENSOR_NAMES = (
    "ModelParams",
    "TensorEmbedding",
    "marked_cycle_value",
    "model_from_state",
    "okounkov_check",
    "okounkov_projection_check",
    "phi_closed_form",
    "phi_model",
    "validate_params",
)


def __getattr__(name: str):
    if name in _TENSOR_NAMES:
        return getattr(tensor_model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_TENSOR_NAMES))


__all__ = [
    "PartialBijection",
    "compose",
    "cycle",
    "enumerate_rn",
    "idempotent",
    "identity",
    "parse_element",
    "rn_size",
    "symmetric_group",
    "transposition",
    "CheckReport",
    "ParseError",
    "ResourceGuardError",
    "ConjugacyInvariant",
    "QuasiCycle",
    "QuasiCycleDecomposition",
    "conjugacy_invariant",
    "decompose",
    "find_conjugator",
    "FormalSum",
    "check_gelfand_pair",
    "symmetrizer",
    "EPS1",
    "S",
    "element_to_word",
    "verify_popova_relations",
    "word_to_element",
    "PsdCertificate",
    "RationalMatrix",
    "psd_certificate",
    "verify_certificate",
    "GramReport",
    "State",
    "ThomaParams",
    "check_centrality",
    "check_conjugation_invariance",
    "check_multiplicativity",
    "check_star_symmetry",
    "classify_factor_type",
    "evaluate",
    "gram_matrix",
    "make_state",
    "thoma_character",
    "SphericalModel",
    "infinite_spherical_value",
    "spherical_coeff",
    "spherical_coeff_closed_form",
    "spherical_limit_check",
    *_TENSOR_NAMES,
]
