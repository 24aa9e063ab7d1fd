"""Latent symmetry and state transfer on weighted networks.

Exact (rational) detection of cospectral vertex pairs and their isospectral
reductions, algebraic certificates for pretty-good state transfer, numerical
quantum-walk dynamics, and two-photon interference statistics.

The numeric layers (`walk`, `photons`) need numpy; their names are bound on
first access, so `import latsym` and the exact layers do not load it.
"""

import importlib

from .network import (
    Network,
    NetworkError,
    attach,
    delete_vertex,
    has_swap_automorphism,
    parse_network,
    serialize_network,
)
from .ninesite import (
    DEFAULT_COUPLING,
    SINGLET_SITES,
    U_SITE,
    V_SITE,
    build_ninesite,
)
from .pgst import (
    CERTIFIED,
    LITERAL_CONDITION_FAILED,
    NOT_COSPECTRAL,
    NOT_STRONGLY_COSPECTRAL,
    BoundaryReport,
    ParityDecomposition,
    PGSTCertificate,
    PGSTError,
    boundary_scan,
    trace_ratios,
    is_irreducible,
    parity_decompose,
    pgst_certificate,
)
from .polynomial import RationalPoly, format_poly, resultant
from .spectral import (
    ReductionMatrix,
    SpectralError,
    char_poly,
    is_cospectral,
    is_latent_symmetric,
    is_strongly_cospectral,
    isospectral_reduction,
    reduction_charpoly,
    singlet_sites,
)

# Name -> numeric-layer module that defines it, imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(
        (
            "CorrelationMatrix",
            "assignment_list",
            "beam_splitter_unitary",
            "correlation_matrix",
            "permanent",
            "total_unitary",
            "transition_probability",
        ),
        "photons",
    ),
    **dict.fromkeys(
        (
            "ConvergenceError",
            "EigenSystem",
            "PeakReport",
            "antisymmetric_confinement",
            "eigh",
            "envelope_scan",
            "evolution_operator",
            "evolve",
            "fidelity",
            "fidelity_curve",
        ),
        "walk",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "Network",
    "NetworkError",
    "attach",
    "delete_vertex",
    "has_swap_automorphism",
    "parse_network",
    "serialize_network",
    "DEFAULT_COUPLING",
    "SINGLET_SITES",
    "U_SITE",
    "V_SITE",
    "build_ninesite",
    "CERTIFIED",
    "LITERAL_CONDITION_FAILED",
    "NOT_COSPECTRAL",
    "NOT_STRONGLY_COSPECTRAL",
    "BoundaryReport",
    "ParityDecomposition",
    "PGSTCertificate",
    "PGSTError",
    "boundary_scan",
    "trace_ratios",
    "is_irreducible",
    "parity_decompose",
    "pgst_certificate",
    "CorrelationMatrix",
    "assignment_list",
    "beam_splitter_unitary",
    "correlation_matrix",
    "permanent",
    "total_unitary",
    "transition_probability",
    "RationalPoly",
    "format_poly",
    "resultant",
    "ReductionMatrix",
    "SpectralError",
    "char_poly",
    "is_cospectral",
    "is_latent_symmetric",
    "is_strongly_cospectral",
    "isospectral_reduction",
    "reduction_charpoly",
    "singlet_sites",
    "ConvergenceError",
    "EigenSystem",
    "PeakReport",
    "antisymmetric_confinement",
    "eigh",
    "envelope_scan",
    "evolution_operator",
    "evolve",
    "fidelity",
    "fidelity_curve",
]
