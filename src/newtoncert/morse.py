"""Singularity classification: never-Morse versus generically-Morse supports.

A support polytope (or Newton polyhedron) is generically Morse exactly
when the barycenter of the quadratic simplex lies in it; the certificate
is the matching or cover produced for its quadratic restriction.  Every
generator must have degree >= 2 (a singularity at 0).  Then a point of
coordinate sum 2 in the support, the barycenter included, puts all its
weight on the degree-2 generators, so the verdict and the samples are read
off the hull of those generators, without an LP and without listing its
lattice points.  Concrete functions are tested through the exact Hessian
determinant at the origin.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ._record import Record
from .poly import (
    SparsePolynomial,
    _require_singular,
    determinant,
    hessian_at_zero,
    monomial,
)
from .polytope import LatticePolytope, lattice_points
from .stencil import (
    CoverCertificate,
    MatchingCertificate,
    certify,
    sample_generic_form,
    separating_halfspace,
)

GENERICALLY_MORSE = "generically_morse"
NEVER_MORSE = "never_morse"


class MorseVerdict(Record):
    """A kind, GENERICALLY_MORSE or NEVER_MORSE, and its certificate."""

    __match_args__ = ("kind", "certificate")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "certificate": self.certificate.to_json_dict()}


def _quadratic_hull(M: LatticePolytope) -> Optional[LatticePolytope]:
    """conv of the degree-2 generators of M, or None when there are none;
    ValueError when a generator has degree < 2.  Same pair closure as
    quadratic_restriction, so the same stencil, certificate and samples."""
    if M.n < 1:
        raise ValueError("empty support")
    _require_singular(M.generators)
    quadratic = [g for g in M.generators if sum(g) == 2]
    return LatticePolytope(M.n, tuple(quadratic), False) if quadratic else None


def quadratic_restriction(M: LatticePolytope) -> Optional[LatticePolytope]:
    """Hull of the pair points of M: its slice by the quadratic simplex.

    The slice is the hull of the lattice points of conv(degree-2
    generators).  Raises ValueError when a generator has degree < 2;
    returns None when M contains no quadratic lattice point.
    """
    hull = _quadratic_hull(M)
    return None if hull is None else LatticePolytope(M.n, lattice_points(hull), False)


def classify_support(M: LatticePolytope) -> MorseVerdict:
    """Generic Morse-ness of singularities with Newton polyhedron inside M.

    The barycenter lies in M exactly when it lies in the hull of the
    degree-2 generators, so the verdict is certify's answer on that hull,
    in n^2 time and memory; with no quadratic point it is the empty cover.
    """
    hull = _quadratic_hull(M)
    if hull is None:
        cert = CoverCertificate((), (), separating_halfspace((), (), M.n))
        return MorseVerdict(NEVER_MORSE, cert)
    cert = certify(hull)
    generically_morse = isinstance(cert, MatchingCertificate)
    return MorseVerdict(GENERICALLY_MORSE if generically_morse else NEVER_MORSE, cert)


def is_morse(f: SparsePolynomial) -> bool:
    """Nondegeneracy of the Hessian at the origin (exact determinant).
    Raises ValueError on a constant or linear term."""
    _require_singular(f._terms)
    return bool(determinant(hessian_at_zero(f)))


class GenericityReport(Record):
    """entries: one (seed, is_morse) pair per sample."""

    __match_args__ = ("entries",)

    @property
    def all_morse(self) -> bool:
        return all(m for _, m in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "samples": [{"seed": s, "is_morse": m} for s, m in self.entries],
            "all_morse": self.all_morse,
        }


def genericity_gap_demo(M: LatticePolytope, seeds: Sequence[int]) -> GenericityReport:
    """Sampled evidence that generically-Morse supports give Morse functions.

    For each seed, draws a generic quadratic form on the quadratic
    restriction of M, appends seeded higher-order terms supported in M,
    and records the Morse test.  Any non-Morse sample is an implementation
    error and raises.
    """
    verdict = classify_support(M)
    if verdict.kind != GENERICALLY_MORSE:
        raise ValueError("support is not generically Morse")
    hull = _quadratic_hull(M)
    entries = []
    for seed in seeds:
        form = sample_generic_form(hull, seed)
        f = form.as_polynomial()
        rng = random.Random(seed ^ 0x5EED)
        for g in M.generators:
            exp = list(g)
            if M.orthant_recession and sum(exp) < 3:
                # bump into degree >= 3 along the recession cone
                exp[rng.randrange(M.n)] += 3 - sum(exp)
            if sum(exp) >= 3:
                f = f + monomial(M.n, tuple(exp), rng.randint(1, 100))
        morse = is_morse(f)
        if not morse:
            raise RuntimeError(f"sampled generic function is not Morse (seed {seed})")
        entries.append((seed, morse))
    return GenericityReport(tuple(entries))
