"""The public surface, pinned: `latsym.__all__`, the fields of the public result
types and the signatures of the public functions.

A change to any of them fails here; the change and its reason go into
CHANGES.md along with the edit to this file.  Signatures are compared without
annotations, which document types but do not change how a caller calls.
"""

import dataclasses
import inspect

import latsym
from latsym.pgst import BoundaryPoint

ALL = [
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

FIELDS = {
    "Network": ("n", "onsite", "edges"),
    "BoundaryReport": ("coupling", "points", "exact_failures", "brackets"),
    "BoundaryPoint": ("potential", "strongly_cospectral", "resultant_sign", "min_root_distance"),
    "ParityDecomposition": ("p_plus", "p_minus", "p_zero"),
    "PGSTCertificate": (
        "u",
        "v",
        "cospectral",
        "swap_automorphism",
        "strongly_cospectral",
        "p_plus",
        "p_minus",
        "p_zero",
        "plus_irreducible",
        "minus_irreducible",
        "trace_ratio_plus",
        "trace_ratio_minus",
        "trace_ratios_distinct",
        "verdict",
        "notes",
    ),
    "CorrelationMatrix": ("values", "statistics", "comparison_mode", "tau"),
    "ReductionMatrix": ("a", "b", "_pair"),
    "EigenSystem": ("eigenvalues", "eigenvectors", "n"),
    "PeakReport": ("samples", "step", "peaks", "envelope", "best"),
}

SIGNATURES = {
    "attach": "(base, anchors, ext, bridges)",
    "delete_vertex": "(net, w)",
    "has_swap_automorphism": "(net, u, v)",
    "parse_network": "(text)",
    "serialize_network": "(net)",
    "build_ninesite": "(k=Fraction(27, 50), potential=Fraction(0, 1))",
    "boundary_scan": "(builder, k, e_grid, u=2, v=6)",
    "trace_ratios": "(p_plus, p_minus)",
    "is_irreducible": "(p)",
    "parity_decompose": "(net, u, v)",
    "pgst_certificate": "(net, u, v)",
    "assignment_list": "(occupations)",
    "beam_splitter_unitary": "()",
    "correlation_matrix": "(net_u, bs_sites, phase=1.5707963267948966, statistics='bosonic', "
    "comparison_mode='raw', tau=None)",
    "permanent": "(m)",
    "total_unitary": "(net_u, bs_sites, phase_site, phase=1.5707963267948966)",
    "transition_probability": "(r, s, u, statistics='bosonic')",
    "format_poly": "(p)",
    "resultant": "(p, q)",
    "char_poly": "(net)",
    "is_cospectral": "(net, u, v)",
    "is_latent_symmetric": "(net, u, v)",
    "is_strongly_cospectral": "(net, u, v)",
    "isospectral_reduction": "(net, u, v)",
    "reduction_charpoly": "(red)",
    "singlet_sites": "(net, u, v)",
    "antisymmetric_confinement": "(sys, u, v, singlets, tau_grid)",
    "eigh": "(net)",
    "envelope_scan": "(sys, u, v, tau_max, coarse_step)",
    "evolution_operator": "(sys, tau)",
    "evolve": "(sys, tau, psi0)",
    "fidelity": "(sys, u, v, tau)",
    "fidelity_curve": "(sys, u, v, taus)",
}


def test_all_is_pinned():
    assert latsym.__all__ == ALL


def test_result_type_fields_are_pinned():
    # every public dataclass, and BoundaryReport's points
    types = {name: getattr(latsym, name) for name in ALL}
    types["BoundaryPoint"] = BoundaryPoint
    got = {
        name: tuple(f.name for f in dataclasses.fields(t))
        for name, t in types.items()
        if dataclasses.is_dataclass(t)
    }
    assert got == FIELDS


def test_reduction_matrix_is_built_from_its_entries_alone():
    # the pair data behind reduction_charpoly is set by isospectral_reduction only
    assert list(inspect.signature(latsym.ReductionMatrix).parameters) == ["a", "b"]


def test_function_signatures_are_pinned():
    def bare(f):
        sig = inspect.signature(f)
        params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
        return str(sig.replace(parameters=params, return_annotation=sig.empty))

    got = {
        name: bare(getattr(latsym, name))
        for name in ALL
        if inspect.isfunction(getattr(latsym, name))
    }
    assert got == SIGNATURES
