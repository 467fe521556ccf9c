"""Computable representation theory of the symmetric inverse semigroup.

Element arithmetic and quasi-cycle decomposition, the central state family
with exact PSD certification, and finite-dimensional tensor oracles.

Everything but the tensor oracles' float values is exact, and the package
needs nothing beyond the standard library.  Importing the package runs none
of its modules: each submodule but ``cli`` is registered in ``sys.modules``
unexecuted, and its body runs on first use of one of its attributes.  The
public names below are served from the table ``_EXPORTS`` (submodule ->
names), so ``rookchar.compose`` runs ``elements`` and
``rookchar.TensorEmbedding`` runs ``tensor_model``, while a command pays only
for the modules it uses.  Modules reach a dependency that
only some of their functions need through the module object (``states`` calls
``linalg.psd_certificate``), since a top-level ``from .linalg import ...``
would run it.  ``cli`` is imported normally: ``python -m rookchar.cli`` would
otherwise run its body twice.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "elements": (
        "PartialBijection",
        "compose",
        "cycle",
        "enumerate_rn",
        "from_orbits",
        "idempotent",
        "identity",
        "parse_element",
        "rn_size",
        "symmetric_group",
        "transposition",
    ),
    "errors": ("CheckReport", "ParseError", "ResourceGuardError"),
    "quasicycles": (
        "QuasiCycle",
        "QuasiCycleDecomposition",
        "conjugacy_invariant",
        "decompose",
        "find_conjugator",
    ),
    "algebra": ("check_gelfand_pair",),
    "words": ("EPS1", "S", "element_to_word", "verify_popova_relations", "word_to_element"),
    "linalg": ("PsdCertificate", "RationalMatrix", "psd_certificate", "verify_certificate"),
    "states": (
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
    ),
    "spherical": (
        "SphericalModel",
        "infinite_spherical_value",
        "spherical_coeff",
        "spherical_coeff_closed_form",
        "spherical_limit_check",
    ),
    "tensor_model": (
        "ModelParams",
        "TensorEmbedding",
        "model_from_state",
        "okounkov_check",
        "okounkov_projection_check",
        "phi_closed_form",
        "phi_model",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def _lazy_submodule(name: str):
    """Register the submodule ``name`` in ``sys.modules``; its body runs on first use.

    Registering, rather than importing on demand, keeps every
    ``sys.modules["rookchar.<name>"]`` present for code that looks modules up
    there, such as the benchmark's tracer (perfbench/tracing.py), which
    patches their functions.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy_submodule(_name)
del _name


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
