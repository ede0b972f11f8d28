"""Exact Newton-polytope geometry with machine-checkable certificates.

Decides whether the barycenter of the quadratic simplex lies in a support
polytope, emits matching or cover certificates for generic quadratic-form
nondegeneracy, classifies singularity supports as never-Morse or
generically-Morse, and computes Milnor numbers from Newton-diagram
volumes.  All arithmetic is exact.

The public names load on first use (PEP 562): ``import newtoncert`` imports
no submodule, so a CLI request compiles only the modules its subcommand
calls.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    "GaussianRational": "gaussian",
    **dict.fromkeys((
        "INFINITE", "UnboundedRegionError", "UnderDiagramRegion", "VolumeVector",
        "face_restriction", "milnor_number", "under_diagram_region", "volumes",
    ), "kouchnirenko"),
    **dict.fromkeys((
        "GENERICALLY_MORSE", "NEVER_MORSE", "MorseVerdict", "classify_support",
        "genericity_gap_demo", "quadratic_restriction",
    ), "morse"),
    **dict.fromkeys((
        "ParseError", "QuadraticForm", "SparsePolynomial", "determinant", "hessian_at_zero",
        "is_morse", "monomial", "parse_polynomial", "quadratic_part",
    ), "poly"),
    **dict.fromkeys((
        "ConvexCombination", "LatticePolytope", "Separation", "barycenter", "contains_point",
        "is_minimal", "lattice_points", "minimal_subpolytope", "newton_polyhedron",
        "newton_polytope", "pair_point", "two_delta_points",
    ), "polytope"),
    **dict.fromkeys((
        "Certificate", "CoverCertificate", "HalfSpace", "MatchingCertificate", "Stencil",
        "certify", "find_matching", "min_vertex_cover",
        "sample_generic_form", "separating_halfspace", "sign_consistency", "stencil_of",
    ), "stencil"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
