"""Milnor numbers from Newton-diagram volumes, and face restrictions.

The region between the origin and the Newton diagram (the bounded closure
of the orthant minus the Newton polyhedron) is star-shaped from the
origin, so its volume is the sum, over the compact facets of the
polyhedron, of the cones from the origin over a triangulation of each
facet.  Facets are compact exactly when their inner normal is strictly
positive.  All volumes are exact rationals; the Milnor number is the
alternating factorial-weighted sum over the coordinate-subspace volumes,
which must come out a nonnegative integer.

The result is conditional on the standard nondegeneracy of the input
(face restrictions without critical torus zeros); this module exposes the
face restrictions but does not check that condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from ._linalg import matrix_rank, nullspace_vector
from .gaussian import exact_fraction
from .poly import SparsePolynomial, _require_singular, integer_determinant
from .polytope import LatticePolytope, Point, newton_polyhedron, reduce_to_vertices

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


def _compact_facets(verts: Sequence[Point], m: int) -> List[Tuple[Point, ...]]:
    """Facets of conv(verts) + orthant with strictly positive inner normal.

    Candidate hyperplanes run over m-subsets of the vertex generators; a
    hyperplane is kept when its normal can be scaled positive and all
    generators lie on its upper side.
    """
    facets: Dict[Tuple[Tuple[int, ...], int], Tuple[Point, ...]] = {}
    for subset in itertools.combinations(sorted(verts), m):
        if m == 1:
            w: Tuple[int, ...] = (1,)
        else:
            base = subset[0]
            rows = [[c - b for c, b in zip(p, base)] for p in subset[1:]]
            w = nullspace_vector(rows, m)
            if w is None:
                continue
            if all(v < 0 for v in w):
                w = tuple(-v for v in w)
            if any(v <= 0 for v in w):
                continue
        c = sum(a * b for a, b in zip(w, subset[0]))
        if any(sum(a * b for a, b in zip(w, v)) < c for v in verts):
            continue
        on = tuple(v for v in sorted(verts) if sum(a * b for a, b in zip(w, v)) == c)
        facets[(w, c)] = on
    return list(facets.values())


def _hull_facets(points: Sequence[Point], d: int):
    """All facets of conv(points) in R^d as (normal, offset, on-points)."""
    out = {}
    for subset in itertools.combinations(range(len(points)), d):
        pts = [points[k] for k in subset]
        base = pts[0]
        rows = [[c - b for c, b in zip(p, base)] for p in pts[1:]]
        w = nullspace_vector(rows, d) if d > 1 else (1,)
        if w is None:
            continue
        c = sum(a * b for a, b in zip(w, base))
        sides = [sum(a * b for a, b in zip(w, p)) - c for p in points]
        if all(s >= 0 for s in sides):
            pass
        elif all(s <= 0 for s in sides):
            w = tuple(-v for v in w)
            c = -c
        else:
            continue
        on = tuple(p for p in points if sum(a * b for a, b in zip(w, p)) == c)
        out[(w, c)] = on
    return list(out.items())


def _triangulate_convex(points: Sequence[Point], d: int) -> List[Tuple[Point, ...]]:
    """Fan triangulation of a full-dimensional convex hull in R^d.

    Cones from the lexicographically smallest vertex over recursively
    triangulated facets not containing it.  Returns [] when the points do
    not span dimension d.
    """
    points = sorted(set(points))
    if d == 0:
        return [(points[0],)] if points else []
    base = points[0]
    if matrix_rank([[c - b for c, b in zip(p, base)] for p in points[1:]]) < d:
        return []
    apex = points[0]
    simplices = []
    for (w, c), on in _hull_facets(points, d):
        if sum(a * b for a, b in zip(w, apex)) == c:
            continue
        for facet_simplex in _triangulate_facet(on, d):
            simplices.append((apex,) + facet_simplex)
    return simplices


def _triangulate_facet(facet_points: Sequence[Point], d: int) -> List[Tuple[Point, ...]]:
    """Triangulate a (d-1)-dimensional facet living in R^d.

    Projects the facet one coordinate down (any coordinate with nonzero
    normal component is injective on the facet's hyperplane) and lifts the
    triangulation back.
    """
    if d == 1:
        return [(facet_points[0],)]
    base = facet_points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in facet_points[1:]]
    w = nullspace_vector(rows, d) if len(facet_points) > 1 else None
    drop = next((k for k, v in enumerate(w) if v), 0) if w else 0
    proj = {}
    for p in facet_points:
        proj.setdefault(tuple(v for k, v in enumerate(p) if k != drop), p)
    tris = _triangulate_convex(sorted(proj), d - 1)
    return [tuple(proj[q] for q in tri) for tri in tris]


def _cone_volume(simplices: Sequence[Tuple[Point, ...]], m: int) -> Fraction:
    """Total volume of cones from the origin over (m-1)-simplices."""
    total = Fraction(0)
    for simplex in simplices:
        det = integer_determinant([list(p) for p in simplex])
        total += Fraction(abs(det), factorial(m))
    return total


def _diagram_cone_simplices(gens: Sequence[Point], m: int) -> List[Tuple[Point, ...]]:
    verts = reduce_to_vertices(gens, m, True)
    simplices = []
    for facet in _compact_facets(verts, m):
        for tri in _triangulate_facet(facet, m):
            origin = (tuple([0] * m),)
            simplices.append(origin + tri)
    return simplices


def _under_diagram_volume(gens: Sequence[Point], m: int) -> Fraction:
    if not gens:
        raise UnboundedRegionError("no generators on the subspace")
    return _cone_volume(
        [s[1:] for s in _diagram_cone_simplices(gens, m)], m
    )


def under_diagram_region(N: LatticePolytope) -> UnderDiagramRegion:
    """Bounded triangulated region below the Newton diagram.

    Raises UnboundedRegionError when some coordinate axis carries no pure
    power, in which case the Milnor number is infinite.
    """
    if not N.orthant_recession:
        raise ValueError("a Newton polyhedron (orthant recession) is required")
    verts = reduce_to_vertices(N.generators, N.n, True)
    intercepts = _axis_intercepts(verts, N.n)
    if intercepts is None:
        raise UnboundedRegionError(
            "complement is unbounded: some axis carries no pure power"
        )
    simplices = _diagram_cone_simplices(verts, N.n)
    return UnderDiagramRegion(N.n, tuple(verts), intercepts, tuple(simplices))


def volumes(region: UnderDiagramRegion) -> VolumeVector:
    """Exact i-volumes of the region on all i-dimensional coordinate subspaces."""
    n = region.n
    values = [Fraction(0)] * n
    values[n - 1] = _cone_volume([s[1:] for s in region.simplices], n)
    for i in range(1, n):
        total = Fraction(0)
        for axes in itertools.combinations(range(n), i):
            sub = [
                tuple(g[a] for a in axes)
                for g in region.vertex_generators
                if all(c == 0 for k, c in enumerate(g) if k not in axes)
            ]
            total += _under_diagram_volume(sub, i)
        values[i - 1] = total
    return VolumeVector(tuple(values))


def milnor_number(f: SparsePolynomial):
    """Milnor number by the alternating volume formula; INFINITE when unbounded.

    mu = n! V_n - (n-1)! V_{n-1} + ... + (-1)^(n-1) V_1 + (-1)^n.
    Exact for inputs satisfying the nondegeneracy condition, which is not
    verified here; integrality of the result is asserted.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    _require_singular(f.support())
    N = newton_polyhedron(f)
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
