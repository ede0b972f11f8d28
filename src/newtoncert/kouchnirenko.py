"""Milnor numbers from Newton-diagram volumes, and face restrictions.

The region between the origin and the Newton diagram (the bounded closure
of the orthant minus the Newton polyhedron N) is star-shaped from the
origin, so its volume is the sum of the cones from the origin over a
triangulation of the compact facets of N.  Those come from the exact
integer hull of polytope._hull, run on the generators of N and the orthant
rays: it leaves the coordinate facets and the face at infinity implicit,
so on a convenient N the facets it stores are exactly the compact facets
of N, triangulated, and the points on them are the vertices of N.  Each
stored facet carries its cofactor normal, built by rotation and an exact
Pluecker division, whose constant term is the determinant of the facet's
points: n! times the volume of its cone, with no determinant taken.

For a convenient N each N cap R^I is a face of N, so the diagram of every
coordinate subspace is triangulated by the faces of those simplices lying
in R^I; only subsets of the points with a zero coordinate can be, and
each such face's determinant is a minor of its simplex's, or that
determinant divided by the complementary minor.  All volumes are exact
rationals; the Milnor number is the alternating factorial-weighted sum
over the coordinate-subspace volumes.  Before it is formed, the compact
simplices are checked to close up into a disk bounded by the coordinate
hyperplanes.  When f = g(x_A) + h(x_B) in disjoint variables, mu(f) =
mu(g) * mu(h) for any coefficients (Thom-Sebastiani), so each block is
decided alone: Morse, infinite or by diagram.

A block's diagram is split once more before any hull.  With axis
intercepts a_k, L = lcm(a) and w_k = L / a_k, every point on or above the
intercept simplex <w, p> = L lies in conv{a_k e_k} + R^n_+, so only the
intercepts and the points below it can be vertices, and they give the
same N.  The variable sets of the points below, merged like the blocks,
split N into diagrams in disjoint variables whose Newton numbers multiply
(Kouchnirenko's mu = nu); a one-variable one is a_k - 1 (Milnor-Orlik for
a Brieskorn-Pham or weighted-homogeneous block, whose points all lie on
the simplex), and only a diagram in two or more variables takes a hull.

The result is conditional on the standard nondegeneracy of the input
(face restrictions without critical torus zeros); this module exposes the
face restrictions but does not check that condition.  One case needs no
diagram: a block has mu = 1 exactly when its Hessian at the origin is
nonsingular (the Morse lemma), so that answer is poly._is_morse, the
exact determinant test that the morse module runs as poly.is_morse after
the scan for constant and linear terms, and a diagram that
gives 1 at a singular Hessian is rejected as degenerate.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from operator import mul
from typing import Optional, Sequence, Tuple

from ._record import Record
from .gaussian import exact_fraction
from .poly import SparsePolynomial, _is_morse, _require_singular, integer_determinant
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

    Each simplex is the origin followed by the n points of a facet simplex;
    cone_volumes[k] = |det| of the points of simplices[k], n! times the
    volume of that cone.
    """

    __match_args__ = ("n", "vertex_generators", "axis_intercepts", "simplices", "cone_volumes")


def _axis_intercepts(gens: Sequence[Point], n: int) -> Optional[Tuple[int, ...]]:
    """Least pure-power exponent on every axis, or None if some axis has none."""
    least = [0] * n
    for g in gens:
        s = sum(g)
        if s in g:  # s e_k, or the origin, a pure power on every axis
            if not s:
                return (0,) * n
            k = g.index(s)
            if not least[k] or s < least[k]:
                least[k] = s
    return tuple(least) if all(least) else None


def under_diagram_region(N: LatticePolytope) -> UnderDiagramRegion:
    """Bounded triangulated region below the Newton diagram.

    Raises UnboundedRegionError when some coordinate axis carries no pure
    power, in which case the Milnor number is infinite.  The cone volumes
    are read off the hull: a stored facet's normal is its cofactor normal,
    whose constant term is the determinant of the facet's points.
    """
    if not N.orthant_recession:
        raise ValueError("a Newton polyhedron (orthant recession) is required")
    n = N.n
    intercepts = _axis_intercepts(N.generators, n)
    if intercepts is None:
        raise UnboundedRegionError("complement is unbounded: "
                                   "some axis carries no pure power")
    facets = _hull(N.generators)
    origin = (0,) * n
    # lists first, as in polytope.lattice_points: tuple() of a generator
    # leaves resized tuples in the interpreter's free lists
    simplices = tuple([(origin,) + tuple([g[1:] for g in face]) for face in facets])
    cone_volumes = tuple([abs(h[0]) for h in facets.values()])
    return UnderDiagramRegion(n, _hull_vertices(facets, n), intercepts, simplices, cone_volumes)


def _minor(points, axes) -> int:
    """|det| of the points' coordinates on the axes; 1 x 1 is the coordinate."""
    if len(points) == 1:
        return points[0][axes[0]]
    return abs(integer_determinant([[p[k] for k in axes] for p in points]))


def volumes(region: UnderDiagramRegion) -> VolumeVector:
    """Exact i-volumes of the region on all i-dimensional coordinate subspaces.

    A face of a diagram simplex with i vertices spanning exactly i axes I
    is a simplex of the triangulated diagram of N cap R^I; the cone from the
    origin over it has volume |det| / i!.  Each simplex is one for all n
    axes, whose |det| is its cone volume from the hull; for i < n only
    subsets of its vertices with a zero coordinate can be, so only those
    are walked, and a shared face counts once.  The points of a simplex S
    are block-triangular on I and the other axes, so a face tau has |det
    tau_I| = |det S| / |det U| with U the other points of S on the other
    axes: each face takes the smaller of the two minors, and a face with
    n - 1 points is one division by the apex's coordinate.
    """
    n = region.n
    totals = [0] * n
    totals[n - 1] = sum(region.cone_volumes)
    faces = {}
    for simplex, cone in zip(region.simplices, region.cone_volumes):
        on_hyperplanes = sorted(p for p in simplex[1:] if 0 in p)
        masks = {p: sum(1 << k for k, c in enumerate(p) if c) for p in on_hyperplanes}
        for i in range(1, n):
            for face in combinations(on_hyperplanes, i):
                axes = 0
                for p in face:
                    axes |= masks[p]
                if axes.bit_count() == i:
                    faces.setdefault(face, (axes, simplex, cone))
    for face, (axes, simplex, cone) in faces.items():
        i = len(face)
        if 2 * i <= n:
            totals[i - 1] += _minor(face, [k for k in range(n) if axes >> k & 1])
        else:
            rest = [p for p in simplex[1:] if p not in face]
            totals[i - 1] += cone // _minor(rest, [k for k in range(n) if not axes >> k & 1])
    return VolumeVector(tuple(Fraction(t, factorial(i)) for i, t in enumerate(totals, 1)))


def _variable_blocks(exponents, n: int):
    """Bitmasks of the components of the graph on the n variables that
    joins two variables when an exponent holds both, a variable in no
    exponent being its own block (the zero exponent holds none); [all n]
    as soon as one block holds all."""
    full = (1 << n) - 1
    blocks = []
    for exp in exponents:
        block = 0
        for k, e in enumerate(exp):
            if e:
                block |= 1 << k
        if not block:
            continue
        rest = []
        for other in blocks:
            if other & block:
                block |= other
            else:
                rest.append(other)
        if block == full:
            return [full]
        blocks = rest + [block]
    covered = sum(blocks)
    return blocks + [1 << k for k in range(n) if not covered >> k & 1]


def _blocks(f: SparsePolynomial):
    """f as polynomials in disjoint sets of variables that sum to f: the
    _variable_blocks of all its terms (not only the diagram's vertices).
    One pass sends each term to the block of its first nonzero variable; a
    constant term belongs to no block."""
    n = f.n_vars
    blocks = _variable_blocks(f._terms, n)
    if len(blocks) == 1:
        return [f]
    variables = [[k for k in range(n) if block >> k & 1] for block in blocks]
    owner = {k: b for b, ks in enumerate(variables) for k in ks}
    terms = [[] for _ in blocks]
    for e, c in f._terms.items():
        for k, ek in enumerate(e):
            if ek:
                b = owner[k]
                terms[b].append((tuple([e[j] for j in variables[b]]), c))
                break
    return [SparsePolynomial._valid(len(ks), ts) for ks, ts in zip(variables, terms)]


def milnor_number(f: SparsePolynomial):
    """Milnor number by the alternating volume formula; INFINITE when unbounded.

    mu = n! V_n - (n-1)! V_{n-1} + ... + (-1)^(n-1) V_1 + (-1)^n.
    Exact for inputs satisfying the nondegeneracy condition, which is not
    verified here.  mu is the product over the blocks of variables
    (_blocks).  Every term lies in one block, so the Hessian at 0 is
    block-diagonal and f is Morse exactly when every block is: a Morse
    block gives 1 before any hull, as does the empty product.  f is
    scanned once for constant and linear terms, so the blocks take
    poly._is_morse, which does not scan them again.  A non-Morse block
    with no pure power on some axis makes mu INFINITE before any diagram;
    _diagram_milnor takes the others, with the axis intercepts read here.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    _require_singular(f._terms)
    blocks = [g for g in _blocks(f) if not _is_morse(g)]
    intercepts = [_axis_intercepts(g._terms, g.n_vars) for g in blocks]
    if None in intercepts:
        return INFINITE
    return prod(map(_diagram_milnor, blocks, intercepts))


def _diagram_milnor(f: SparsePolynomial, intercepts):
    """mu of a non-Morse f whose least pure power on axis k is a_k, from its
    diagram: a ValueError if that gives 1 (mu >= 2 at a singular Hessian),
    and a RuntimeError if a diagram's simplices do not close up.

    With L = lcm(a) and w_k = L / a_k, a point p with <w, p> >= L lies in
    conv{a_k e_k} + R^n_+, so it is no vertex, and the diagram is that of
    the intercepts and the points below the simplex, <w, p> < L.  Their
    _variable_blocks split the diagram into diagrams in disjoint variables,
    whose Newton numbers multiply: a one-variable block gives a_k - 1 (its
    diagram is the point a_k e_k), and any other block its volume formula
    on its own points.
    """
    n = f.n_vars
    top = lcm(*intercepts)
    weights = [top // a for a in intercepts]
    below = [p for p in f._terms if sum(map(mul, weights, p)) < top]
    mu = 1
    for block in _variable_blocks(below, n):
        axes = [k for k in range(n) if block >> k & 1]
        m = len(axes)
        if m == 1:
            mu *= intercepts[axes[0]] - 1
            continue
        points = below if m == n else [
            q for q in (tuple([p[k] for k in axes]) for p in below) if any(q)]
        mu *= _newton_number(points + [tuple([intercepts[k] * (j == i) for j in range(m)])
                                       for i, k in enumerate(axes)], m)
    if mu == 1:
        raise ValueError("the Newton diagram is degenerate: it gives mu = 1 at a "
                         "singular Hessian, so mu >= 2")
    return mu


def _newton_number(points, n: int) -> int:
    """Newton number of the convenient diagram of points in n >= 2
    variables: the alternating volume sum, once its simplices are checked
    to close up."""
    region = under_diagram_region(LatticePolytope(n, points, orthant_recession=True))
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
