"""Milnor numbers from Newton-diagram volumes, and face restrictions.

The region between the origin and the Newton diagram (the bounded closure
of the orthant minus the Newton polyhedron N) is star-shaped from the
origin, so its volume is the sum of the cones from the origin over a
triangulation of the compact facets of N.  Those come from one exact
integer hull: generators dominating an axis intercept a_k e_k are dropped
(they are never vertices), far points M e_k with M = n max(a_k) + 1 are
added, and the hull is built by beneath-beyond insertion with inner
normals from integer cofactors.  Its facets with strictly positive normal
are exactly the compact facets of N, triangulated, and its boundary
points other than the far points are exactly the vertices of N.

For a convenient N each N cap R^I is a face of N, so the diagram of every
coordinate subspace is triangulated by the faces of those simplices lying
in R^I.  All volumes are exact rationals; the Milnor number is the
alternating factorial-weighted sum over the coordinate-subspace volumes,
which must come out a nonnegative integer.

The result is conditional on the standard nondegeneracy of the input
(face restrictions without critical torus zeros); this module exposes the
face restrictions but does not check that condition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Dict, Optional, Sequence, Tuple

from .gaussian import exact_fraction
from .poly import SparsePolynomial, _require_singular, integer_determinant
from .polytope import LatticePolytope, Point

INFINITE = float("inf")


class UnboundedRegionError(ValueError):
    """The complement of the Newton polyhedron is unbounded (mu infinite)."""


@dataclass(frozen=True)
class VolumeVector:
    """values[i-1] = total i-volume over all i-dimensional coordinate subspaces."""

    values: Tuple[Fraction, ...]

    def dim_volume(self, i: int) -> Fraction:
        if not 1 <= i <= len(self.values):
            raise IndexError("dimension out of range")
        return self.values[i - 1]


@dataclass(frozen=True)
class UnderDiagramRegion:
    """Triangulated bounded region between the origin and the diagram."""

    n: int
    vertex_generators: Tuple[Point, ...]
    axis_intercepts: Tuple[int, ...]
    simplices: Tuple[Tuple[Point, ...], ...]  # each: origin plus n facet points


def _axis_intercepts(gens: Sequence[Point], n: int) -> Optional[Tuple[int, ...]]:
    """Pure-power exponent on every axis, or None if some axis has none."""
    intercepts = []
    for axis in range(n):
        powers = [g[axis] for g in gens if all(c == 0 for k, c in enumerate(g) if k != axis)]
        if not powers:
            return None
        intercepts.append(min(powers))
    return tuple(intercepts)


def _dot(w: Sequence[int], p: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(w, p))


def _normal(face: Sequence[Point]) -> Tuple[int, ...]:
    """Normal of the hyperplane through n points of R^n, by integer cofactors."""
    base = face[0]
    rows = [[c - b for c, b in zip(p, base)] for p in face[1:]]
    return tuple(
        (-1) ** k * integer_determinant([r[:k] + r[k + 1:] for r in rows])
        for k in range(len(base))
    )


def _hull(
    points: Sequence[Point], n: int
) -> Dict[Tuple[Point, ...], Tuple[Tuple[int, ...], int]]:
    """Triangulated boundary of conv(points) in R^n, by beneath-beyond.

    points[:n+1] must be affinely independent; the rest are inserted in
    order.  A facet is visible from a new point beyond it or in its plane,
    and a point beyond no facet is skipped, so the boundary's points are
    exactly the vertices of the hull.  Maps each facet (a sorted n-tuple)
    to its inner normal w and offset c: <w, x> >= c on the hull.
    """
    start = points[: n + 1]
    inner = [sum(col) for col in zip(*start)]  # n + 1 times an interior point
    facets = {}

    def add(face):
        w = _normal(face)
        c = _dot(w, face[0])
        side = _dot(w, inner) - (n + 1) * c
        if side == 0:
            raise RuntimeError(f"degenerate hull facet {face}")
        facets[face] = (w, c) if side > 0 else (tuple(-v for v in w), -c)

    for face in combinations(sorted(start), n):
        add(face)
    for p in points[n + 1:]:
        dist = {face: _dot(w, p) - c for face, (w, c) in facets.items()}
        if all(d >= 0 for d in dist.values()):
            continue
        visible = [face for face, d in dist.items() if d <= 0]
        ridges = Counter(r for face in visible for r in combinations(face, n - 1))
        for face in visible:
            del facets[face]
        for ridge, count in ridges.items():
            if count == 1:  # shared with a facet that stays
                add(tuple(sorted(ridge + (p,))))
    return facets


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
        raise UnboundedRegionError(
            "complement is unbounded: some axis carries no pure power"
        )
    # g with some g_k >= a_k, other than a_k e_k itself, is in a_k e_k + orthant
    axis_points = {
        tuple(a if k == axis else 0 for k in range(n)) for axis, a in enumerate(intercepts)
    }
    gens = [
        g for g in N.generators
        if g in axis_points or all(c < a for c, a in zip(g, intercepts))
    ]
    big = n * max(intercepts) + 1
    far = [tuple(big if k == axis else 0 for k in range(n)) for axis in range(n)]
    # gens[0] is the intercept a_n e_n, off the far points' hyperplane
    facets = _hull(far + gens, n)
    verts = tuple(sorted({p for face in facets for p in face} - set(far)))
    origin = (0,) * n
    simplices = tuple(
        (origin,) + face for face, (w, _) in facets.items() if all(v > 0 for v in w)
    )
    return UnderDiagramRegion(n, verts, intercepts, simplices)


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
    verified here; integrality of the result is asserted.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    _require_singular(f.support())
    N = LatticePolytope(f.n_vars, f.support(), orthant_recession=True)
    try:
        region = under_diagram_region(N)
    except UnboundedRegionError:
        return INFINITE
    vols = volumes(region)
    n = f.n_vars
    mu = Fraction((-1) ** n)
    for i in range(1, n + 1):
        mu += (-1) ** (n - i) * factorial(i) * vols.dim_volume(i)
    if mu.denominator != 1:
        raise RuntimeError(f"Milnor sum is not an integer: {mu}")
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
