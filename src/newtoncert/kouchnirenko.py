"""Milnor numbers from Newton-diagram volumes, and face restrictions.

The region between the origin and the Newton diagram (the bounded closure
of the orthant minus the Newton polyhedron N) is star-shaped from the
origin, so its volume is the sum of the cones from the origin over a
triangulation of the compact facets of N.  Those come from the exact
integer hull of polytope._hull, run on the generators of N and the orthant
rays: it leaves the coordinate facets and the face at infinity implicit,
so on a convenient N the facets it stores are exactly the compact facets
of N, triangulated, and the points on them are the vertices of N.

For a convenient N each N cap R^I is a face of N, so the diagram of every
coordinate subspace is triangulated by the faces of those simplices lying
in R^I.  All volumes are exact rationals; the Milnor number is the
alternating factorial-weighted sum over the coordinate-subspace volumes.
Before it is formed, the compact simplices are checked to close up into
a disk bounded by the coordinate hyperplanes.

The result is conditional on the standard nondegeneracy of the input
(face restrictions without critical torus zeros); this module exposes the
face restrictions but does not check that condition.  One case needs no
diagram: mu = 1 exactly when the Hessian at the origin is nonsingular (the
Morse lemma), so that answer comes from one exact determinant, and a
diagram that gives 1 at a singular Hessian is rejected as degenerate.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Optional, Sequence, Tuple

from ._record import Record
from .gaussian import exact_fraction
from .poly import (
    SparsePolynomial,
    _require_singular,
    determinant,
    hessian_at_zero,
    integer_determinant,
)
from .polytope import LatticePolytope, Point, _hull, _hull_vertices

INFINITE = float("inf")


class UnboundedRegionError(ValueError):
    """The complement of the Newton polyhedron is unbounded (mu infinite)."""


class VolumeVector(Record):
    """values[i-1] = total i-volume over all i-dimensional coordinate subspaces."""

    __match_args__ = ("values",)

    def dim_volume(self, i: int) -> Fraction:
        if not 1 <= i <= len(self.values):
            raise IndexError("dimension out of range")
        return self.values[i - 1]


class UnderDiagramRegion(Record):
    """Triangulated bounded region between the origin and the diagram.

    Each simplex is the origin followed by the n points of a facet simplex.
    """

    __match_args__ = ("n", "vertex_generators", "axis_intercepts", "simplices")


def _axis_intercepts(gens: Sequence[Point], n: int) -> Optional[Tuple[int, ...]]:
    """Pure-power exponent on every axis, or None if some axis has none."""
    powers = [[g[k] for g in gens if sum(g) == g[k]] for k in range(n)]
    return tuple(map(min, powers)) if all(powers) else None


def under_diagram_region(N: LatticePolytope) -> UnderDiagramRegion:
    """Bounded triangulated region below the Newton diagram.

    Raises UnboundedRegionError when some coordinate axis carries no pure
    power, in which case the Milnor number is infinite.
    """
    if not N.orthant_recession:
        raise ValueError("a Newton polyhedron (orthant recession) is required")
    n = N.n
    intercepts = _axis_intercepts(N.generators, n)
    if intercepts is None:
        raise UnboundedRegionError("complement is unbounded: "
                                   "some axis carries no pure power")
    facets = _hull(N.generators, orthant=True)
    origin = (0,) * n
    simplices = tuple((origin,) + tuple(g[1:] for g in face) for face in facets)
    return UnderDiagramRegion(n, _hull_vertices(facets, n), intercepts, simplices)


def volumes(region: UnderDiagramRegion) -> VolumeVector:
    """Exact i-volumes of the region on all i-dimensional coordinate subspaces.

    A face of a diagram simplex with i vertices spanning exactly i axes I
    is a simplex of the triangulated diagram of N cap R^I; the cone from the
    origin over it has volume |det| / i!.
    """
    n = region.n
    faces = set()
    for simplex in region.simplices:
        for i in range(1, n + 1):
            for face in combinations(sorted(simplex[1:]), i):
                axes = tuple(sorted({k for p in face for k, c in enumerate(p) if c}))
                if len(axes) == i:
                    faces.add((axes, face))
    totals = [0] * n
    for axes, face in faces:
        det = integer_determinant([[p[k] for k in axes] for p in face])
        totals[len(axes) - 1] += abs(det)
    return VolumeVector(tuple(Fraction(t, factorial(i)) for i, t in enumerate(totals, 1)))


def milnor_number(f: SparsePolynomial):
    """Milnor number by the alternating volume formula; INFINITE when unbounded.

    mu = n! V_n - (n-1)! V_{n-1} + ... + (-1)^(n-1) V_1 + (-1)^n.
    Exact for inputs satisfying the nondegeneracy condition, which is not
    verified here.  A nonsingular Hessian at the origin gives 1 before any
    hull (with no degree-2 term the Hessian is zero); a formula value of 1
    at a singular Hessian is a ValueError, since then mu >= 2.  Raises
    RuntimeError if the diagram's simplices do not close up.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    support = f.support()
    _require_singular(support)
    if any(sum(e) == 2 for e in support) and determinant(hessian_at_zero(f)):
        return 1
    N = LatticePolytope(f.n_vars, support, orthant_recession=True)
    try:
        region = under_diagram_region(N)
    except UnboundedRegionError:
        return INFINITE
    n = f.n_vars
    # the simplices tile a disk: each ridge off the coordinate hyperplanes bounds two
    ridges = Counter(r for s in region.simplices for r in combinations(sorted(s[1:]), n - 1))
    open_ridges = [r for r, count in ridges.items() if count != 2
                   and not any(all(p[k] == 0 for p in r) for k in range(n))]
    if open_ridges or not ridges:
        raise RuntimeError(f"the Newton diagram does not close up: {open_ridges[:1]}")
    vols = volumes(region)
    mu = (-1) ** n
    for i in range(1, n + 1):
        mu += (-1) ** (n - i) * factorial(i) * vols.dim_volume(i)
    if mu == 1:
        raise ValueError("the Newton diagram is degenerate: it gives mu = 1 at a "
                         "singular Hessian, so mu >= 2")
    return int(mu)


def face_restriction(f: SparsePolynomial, w: Sequence) -> SparsePolynomial:
    """Terms of f minimizing <w, k>: the restriction to the face with inner
    normal w of the Newton polyhedron.  Requires strictly positive w."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    wv = tuple(exact_fraction(v) for v in w)
    if len(wv) != f.n_vars:
        raise ValueError("covector has wrong length")
    if any(v <= 0 for v in wv):
        raise ValueError("covector must be strictly positive")
    values = {exp: sum(a * b for a, b in zip(wv, exp)) for exp in f.support()}
    lowest = min(values.values())
    terms = {exp: f.coefficient(exp) for exp, val in values.items() if val == lowest}
    return SparsePolynomial(f.n_vars, terms)
