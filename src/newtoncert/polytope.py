"""Exact lattice-polytope geometry in the nonnegative orthant.

A LatticePolytope is a generator point set, optionally Minkowski-summed
with the nonnegative orthant (orthant_recession).  The vertices of a
Newton polyhedron N = conv(S) + R^n_+, and the Newton diagrams of
kouchnirenko, come from one exact integer hull, _hull: beneath-beyond
with integer cofactor facet normals, keyed by generator index, where each
new facet's normal is one integer combination of the normals of the two
facets at its horizon ridge, divided exactly by one Pluecker factor (a
facet's |det| is its cone volume in kouchnirenko).  It stores only the
facets of N off the coordinate hyperplanes (all compact when every axis
carries a pure power) and keeps the coordinate facets and the face at
infinity implicit; its start is in closed form.  A Newton polytope's
vertices take no hull: a support in 2D keeps its points by the pair rule
below, and any other keeps the points that one membership LP each
separates from the rest.  Membership of a general point runs an exact
rational LP and returns a checkable witness: a convex combination or a
separating functional; a minimal sub-polytope takes one such LP and
merges in closed form.

The quadratic simplex 2D = conv{2e_1, ..., 2e_n} lives in the hyperplane
x_1 + ... + x_n = 2; its lattice points are exactly the pair points
e_i + e_j (i = j allowed), and the barycenter is (2/n, ..., 2/n).  So a
pair point lies in the hull of a set of pair points exactly when it is one
of them or the midpoint of two diagonal ones.  Lattice points inside 2D
are read in index space: _pair_closure reads each generator once as its
pair (i, j) and closes over the diagonal ones, giving the stencil rows and
the lattice points without an LP; in_pair_hull is the same rule for one
point, which checks a matching's pairs and picks a quadratic form's
vertices.  Minimality is read off the same
closure as a graph (_minimal_permutation), again without an LP, so no
route needs the proof's special-vertex reduction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ._record import Record

if TYPE_CHECKING:
    from .poly import SparsePolynomial

Point = Tuple[int, ...]
RationalPoint = Tuple[Fraction, ...]


class LatticePolytope(Record):
    """conv(generators), plus the orthant recession cone when flagged.

    Generators are stored sorted and deduplicated; they are not required
    to be vertices.  n = 0 with no generators is the empty base case that
    coordinate reductions bottom out in.
    """

    __match_args__ = ("n", "generators", "orthant_recession")

    def __init__(self, n: int, generators: Tuple[Point, ...], orthant_recession: bool = False):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        gens = tuple(sorted({tuple(g) for g in generators}))
        if n == 0:
            if gens not in ((), ((),)):
                raise ValueError("0-dimensional polytope admits no coordinates")
            gens = ()
        elif not gens:
            raise ValueError("generator set must be nonempty")
        for g in gens:
            if len(g) != n:
                raise ValueError(f"generator {g} has wrong length")
            if any(not isinstance(c, int) or c < 0 for c in g):
                raise ValueError(f"generator {g} outside the nonnegative orthant")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "orthant_recession", orthant_recession)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "generators": [list(g) for g in self.generators],
            "orthant_recession": self.orthant_recession,
        }


class ConvexCombination(Record):
    """Nonnegative rational weights summing to one over lattice points.

    For polyhedra the witness also carries the nonnegative recession part
    r with  target = sum(w_i * p_i) + r.
    """

    __match_args__ = ("points", "weights", "recession")

    def __init__(self, points: Tuple[Point, ...], weights: Tuple[Fraction, ...],
                 recession: Optional[Tuple[Fraction, ...]] = None):
        from .gaussian import exact_fraction

        points = tuple(tuple(p) for p in points)
        weights = tuple(exact_fraction(w) for w in weights)
        if recession is not None:
            recession = tuple(exact_fraction(v) for v in recession)
            if any(v < 0 for v in recession):
                raise ValueError("recession vector must be nonnegative")
        if len(points) != len(weights):
            raise ValueError("points/weights length mismatch")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if sum(weights, Fraction(0)) != 1:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "recession", recession)

    def value(self) -> RationalPoint:
        """Recompute the weighted point sum (plus recession part)."""
        if not self.points:
            raise ValueError("empty combination has no value")
        n = len(self.points[0])
        acc = [Fraction(0)] * n
        for p, w in zip(self.points, self.weights):
            for k in range(n):
                acc[k] += w * p[k]
        if self.recession is not None:
            for k in range(n):
                acc[k] += self.recession[k]
        return tuple(acc)

    def to_json_dict(self) -> dict:
        doc = {
            "points": [list(p) for p in self.points],
            "weights": [str(w) for w in self.weights],
        }
        if self.recession is not None:
            doc["recession"] = [str(v) for v in self.recession]
        return doc


class Separation(Record):
    """Linear functional with <coeffs, v> >= rhs on the polytope and
    <coeffs, q> < rhs at the separated point q."""

    __match_args__ = ("coeffs", "rhs")

    def to_json_dict(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs], "rhs": str(self.rhs)}


MembershipResult = Union[ConvexCombination, Separation]


def barycenter(n: int) -> RationalPoint:
    """The point (2/n, ..., 2/n), center of the quadratic simplex."""
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(Fraction(2, n) for _ in range(n))


def pair_point(n: int, i: int, j: int) -> Point:
    """The lattice point e_i + e_j (0-indexed), i.e. the exponent of x_i*x_j."""
    coords = [0] * n
    coords[i] += 1
    coords[j] += 1
    return tuple(coords)


def decode_pair(point: Point) -> Tuple[int, int]:
    """Indices (i, j), i <= j, with point = e_i + e_j; rejects other points."""
    if sum(point) != 2 or any(c < 0 for c in point):
        raise ValueError(f"{point} is not a lattice point of the quadratic simplex")
    idx = [k for k, c in enumerate(point) if c]
    if len(idx) == 1:
        return idx[0], idx[0]
    return idx[0], idx[1]


def two_delta_points(n: int) -> Tuple[Point, ...]:
    """All lattice points of the quadratic simplex, in lexicographic order."""
    pts = {pair_point(n, i, j) for i in range(n) for j in range(i, n)}
    return tuple(sorted(pts))


def in_two_delta(M: LatticePolytope) -> bool:
    """Whether M sits inside the quadratic simplex (coordinate sums all 2)."""
    if M.orthant_recession or M.n == 0:
        return False
    return all(sum(g) == 2 for g in M.generators)


def _require_in_two_delta(M: LatticePolytope):
    if not in_two_delta(M):
        raise ValueError("polytope is not contained in the quadratic simplex")


def contains_point(M: LatticePolytope, q: Sequence) -> MembershipResult:
    """Exact membership of a rational point, with a verified witness.

    Feasibility is decided by a rational LP whose answer lp.solve_eq_nonneg
    has substituted: weights x >= 0 with A x = b give the convex
    combination; y with y.A <= 0 and y.b > 0 gives the separating
    functional -y, valid on every generator (and >= 0 on the recession
    cone) and below rhs at q.  Nothing is re-checked here.
    """
    from . import lp
    from .gaussian import exact_fraction

    if M.n == 0:
        raise ValueError("membership in the 0-dimensional polytope is vacuous")
    qv = tuple(exact_fraction(v) for v in q)
    if len(qv) != M.n:
        raise ValueError("dimension mismatch")
    gens = M.generators
    k = len(gens)
    rows: List[list] = []
    for coord in range(M.n):
        row = [g[coord] for g in gens]
        if M.orthant_recession:
            row += [1 if axis == coord else 0 for axis in range(M.n)]
        rows.append(row)
    rows.append([1] * k + ([0] * M.n if M.orthant_recession else []))
    rhs = list(qv) + [Fraction(1)]

    result = lp.solve_eq_nonneg(rows, rhs)
    if isinstance(result, lp.Feasible):
        weights = result.x[:k]
        rec = result.x[k:] if M.orthant_recession else None
        return ConvexCombination(gens, weights, rec)
    return Separation(tuple(-v for v in result.y[: M.n]), result.y[M.n])


def _hull(points):
    """Triangulated boundary of N = conv(points) + R^n_+, as the cone over
    (1, *s) for the points s and over the rays (0, *e_k), by beneath-beyond.

    Maps each stored facet (a sorted n-tuple of generators) to its inner
    cofactor normal (-c, *w), <w, s> >= c on the hull: its entries are the
    facet's signed n x n minors, so c = |det(p_1..p_n)| on points p_i.  A
    facet is visible from a point beyond it or in its plane, and a point
    beyond no facet is skipped, so the points left on the boundary are
    exactly the vertices.  Faces and ridges are keyed by labels, ranks in
    sorted order (rays first).  A new facet through a horizon ridge and
    the point g is the facet V there rotated onto g: <h_K, g> h_V - <h_V,
    g> h_K from V and the facet K across the ridge (Chand & Kapur 1970),
    divided by <h_K, v> > 0, v the generator of V off the ridge (three-term
    Grassmann-Pluecker relation; exact for any positive multiple of h_K).

    The pure powers (sum(s) == max(s)) go first, and no facet with c = 0 is
    stored (w >= 0 puts it inside one coordinate hyperplane x_j = 0), nor
    the face at infinity: on a convenient support every stored facet is
    compact.  The start, the rays and the first point p, has the facets
    x_j >= p_j with p_j > 0.  A ridge held by one stored facet borders the
    face at infinity (normal (1, 0, ..., 0)) when it holds no point, else
    the facet x_j = 0 (normal e_j) of the one j on which all its generators
    vanish.
    """
    n = len(points[0])
    points = sorted(points, key=lambda p: sum(p) != max(p))
    order = [(0,) + tuple(int(k == axis) for k in range(n)) for axis in range(n)]
    order += [(1,) + tuple(p) for p in points]
    gens = sorted(order)  # gens[label]
    label = {g: i for i, g in enumerate(gens)}
    support = [{k for k, v in enumerate(g) if v} for g in gens]
    inner = [sum(col) for col in zip(*order[: n + 1])]  # an interior ray of the cone
    facets = {}
    ridges = {}  # sorted (n - 1)-tuple of labels -> the stored facets holding it

    def add(face, h):
        if sum(map(mul, h, inner)) <= 0:
            raise RuntimeError(f"degenerate hull facet {tuple(gens[i] for i in face)}")
        if not h[0]:  # inside a coordinate hyperplane
            return
        facets[face] = h
        for ridge in combinations(face, n - 1):
            ridges.setdefault(ridge, []).append(face)

    def beyond(ridge):
        """Normal of the unstored facet across a ridge held by one stored facet."""
        if not ridge or not gens[ridge[-1]][0]:  # rays sort first: no point
            return (1,) + (0,) * n
        axes = set(range(1, n + 1)).difference(*map(support.__getitem__, ridge))
        if len(axes) != 1:
            raise RuntimeError(f"hull ridge {tuple(gens[i] for i in ridge)} "
                               "lies in no single coordinate hyperplane")
        return order[axes.pop() - 1]

    start = sorted(label[g] for g in order[: n + 1])
    p = order[n]
    for j, ray in enumerate(order[:n]):  # add drops x_j >= 0
        add(tuple(i for i in start if gens[i] != ray), (-p[j + 1],) + ray[1:])
    for g in order[n + 1:]:
        dist = {face: sum(map(mul, h, g)) for face, h in facets.items()}
        if all(d >= 0 for d in dist.values()):
            continue
        visible = [face for face, d in dist.items() if d <= 0]
        i = label[g]
        new = []
        for face in visible:
            h_v, d_v = facets[face], dist[face]
            # combinations leaves out the labels of face from the last on
            for ridge, apex in zip(combinations(face, n - 1), reversed(face)):
                kept = [f for f in ridges[ridge] if f != face]
                h_k = facets[kept[0]] if kept else beyond(ridge)
                d_k = dist[kept[0]] if kept else sum(map(mul, h_k, g))
                if d_k > 0:  # a horizon ridge
                    new_face = tuple(sorted(ridge + (i,)))
                    scale = sum(map(mul, h_k, gens[apex]))  # > 0: the apex is off K
                    h = [d_k * a - d_v * b for a, b in zip(h_v, h_k)]
                    if any(v % scale for v in h):
                        raise RuntimeError(f"hull facet {tuple(gens[j] for j in new_face)} "
                                           "has no integer cofactor normal")
                    new.append((new_face, tuple([v // scale for v in h])))
        for face in visible:
            del facets[face]
            for ridge in combinations(face, n - 1):
                ridges[ridge].remove(face)
        for face, h in new:
            add(face, h)
    return {tuple(gens[i] for i in face): h for face, h in facets.items()}


def _hull_vertices(facets, n) -> Tuple[Point, ...]:
    """Points on the stored facets; none are stored only for N = R^n_+."""
    return tuple(sorted({g[1:] for face in facets for g in face if g[0]})) or ((0,) * n,)


def reduce_to_vertices(
    points: Sequence[Point], n: int, orthant_recession: bool
) -> Tuple[Point, ...]:
    """Vertices of conv(points), plus the orthant when flagged.

    With the orthant they are read off _hull.  Without it a support in 2D
    (a quadratic form's) keeps every point but the midpoints of two
    diagonal points (the rule of in_pair_hull), with no LP; any other
    support keeps each point that contains_point separates from the rest,
    one exact LP per point whose answer lp.solve_eq_nonneg substituted.
    A point found inside the hull of the rest is dropped from the later
    LPs: the vertices all stay, so a later point is in the hull of the
    remaining points exactly when it is in the hull of all the others.
    Raises ValueError naming the first point that does not have n
    coordinates.
    """
    for p in points:
        if len(p) != n:
            raise ValueError(f"point {tuple(p)} does not have n = {n} coordinates")
    pts = sorted({tuple(p) for p in points})
    if len(pts) <= 1:
        return tuple(pts)
    if orthant_recession:
        return _hull_vertices(_hull(pts), n)
    if in_two_delta(LatticePolytope(n, pts)):
        diagonal = {p for p in pts if 2 in p}
        return tuple(p for p in pts if p in diagonal or not in_pair_hull(p, diagonal))
    keep = list(pts)
    for p in pts:
        if isinstance(contains_point(LatticePolytope(n, [q for q in keep if q != p]), p),
                      ConvexCombination):
            keep.remove(p)
    return tuple(keep)


def newton_polytope(p: SparsePolynomial) -> LatticePolytope:
    """Convex hull of the support of p, reduced to its vertex set."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no Newton polytope")
    verts = reduce_to_vertices(p.support(), p.n_vars, False)
    return LatticePolytope(p.n_vars, verts, False)


def newton_polyhedron(f: SparsePolynomial) -> LatticePolytope:
    """Support hull plus the orthant recession cone, minimal generators."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton polyhedron")
    verts = reduce_to_vertices(f.support(), f.n_vars, True)
    return LatticePolytope(f.n_vars, verts, True)


def in_pair_hull(p: Point, gens) -> bool:
    """Whether pair point p lies in the hull of the pair points gens.

    Within 2D only 2e_i, 2e_j and e_i + e_j have support inside {i, j}, so
    p = e_i + e_j is in the hull iff it is a generator or both diagonal
    points 2e_i and 2e_j are (p is their midpoint).  gens should be a set.
    """
    if p in gens:
        return True
    i, j = decode_pair(p)
    n = len(p)
    return i != j and pair_point(n, i, i) in gens and pair_point(n, j, j) in gens


def _pair_closure(M: LatticePolytope) -> List[List[int]]:
    """n x n 0/1 rows with [a][b] = 1 exactly when e_a + e_b lies in M.

    M must lie in 2D (checked by the caller).  Each generator is read once
    as its pair (i, j): a 2 at i = j, or 1s at its first and last nonzero
    coordinate.  Every two diagonal generators 2e_a, 2e_b add their
    midpoint; nothing else is in the hull (the rule of in_pair_hull).
    """
    n = M.n
    rows = [[0] * n for _ in range(n)]
    diagonal = []
    for g in M.generators:
        if 2 in g:
            i = j = g.index(2)
            diagonal.append(i)
        else:
            i = g.index(1)
            j = g.index(1, i + 1)
        rows[i][j] = rows[j][i] = 1
    for a in diagonal:
        row = rows[a]
        for b in diagonal:
            row[b] = 1
    return rows


def lattice_points(M: LatticePolytope) -> Tuple[Point, ...]:
    """All lattice points of a polytope inside the quadratic simplex.

    The pair points e_i + e_j marked by the pair closure, in the
    lexicographic order of two_delta_points: i decreasing, then j
    decreasing (j >= i).
    """
    _require_in_two_delta(M)
    n = M.n
    rows = _pair_closure(M)
    # a list first: tuple() of a generator builds a guessed-size tuple and
    # resizes it, which piles tuples up in the interpreter's free lists, so
    # peak memory would grow with the number of calls
    return tuple(
        [
            pair_point(n, i, j)
            for i in range(n - 1, -1, -1)
            for j in range(n - 1, i - 1, -1)
            if rows[i][j]
        ]
    )


def _minimal_permutation(M: LatticePolytope) -> Optional[Tuple[int, ...]]:
    """The permutation sigma of a minimal M, read off its pair graph, or None.

    Read each pair point e_i + e_j of M as the edge ij, a loop when i = j.
    M is minimal exactly when this graph splits into single edges, loops
    and odd cycles that together cover every index: the supports of the
    vertices of the fractional perfect matching polytope, which are
    half-integral (Balinski 1965), with a loop as an odd cycle of length 1.
    Two loops never occur apart, since their midpoint joins them.  A single
    edge ij gives the transposition i <-> j, a loop at i the fixed point i,
    and an odd cycle is walked from its smallest index towards its smaller
    neighbour, each index sent to the next.  M must lie in 2D (checked by
    the caller).
    """
    n = M.n
    adj = [[b for b, bit in enumerate(row) if bit] for row in _pair_closure(M)]
    sigma = [-1] * n
    for a in range(n):
        if sigma[a] >= 0:
            continue
        if adj[a] == [a]:  # a loop
            sigma[a] = a
        elif len(adj[a]) == 1 and adj[adj[a][0]] == [a]:  # a single edge
            b = adj[a][0]
            sigma[a], sigma[b] = b, a
        else:  # an odd cycle through a, its smallest index
            prev, cur, length = -1, a, 0
            while True:
                nbrs = adj[cur]
                if len(nbrs) != 2 or cur in nbrs:
                    return None
                prev, cur = cur, nbrs[nbrs[0] == prev]
                sigma[prev] = cur
                length += 1
                if cur == a:
                    break
            if length % 2 == 0:
                return None
    return tuple(sigma)


def is_minimal(M: LatticePolytope) -> bool:
    """No proper lattice sub-polytope contains the barycenter.

    Read off the pair graph (_minimal_permutation): M is minimal exactly
    when its pair points form single edges, loops and odd cycles covering
    every index, so no LP and no rank is needed.  The 0-dimensional
    polytope is minimal by convention.
    """
    if M.n == 0:
        return True
    _require_in_two_delta(M)
    return _minimal_permutation(M) is not None


def minimal_subpolytope(M: LatticePolytope) -> LatticePolytope:
    """A minimal sub-polytope still containing the barycenter (ValueError
    when it is outside M), from one exact LP over the lattice points of M.

    The support of the basic solution is affinely independent; while it
    holds two diagonal points (the lexicographically smallest, 2e_i and
    2e_j), the lighter one a (by weight, then point) gives way to the
    midpoint e_i + e_j with weight 2 w_a and the other keeps w_b - w_a, the
    only weights over the new support.  Checked by substitution and by the
    pair-graph walk (_minimal_permutation) before it is returned.
    """
    pts = lattice_points(M)
    center = barycenter(M.n)
    res = contains_point(LatticePolytope(M.n, pts), center)
    if isinstance(res, Separation):
        raise ValueError("the barycenter is not contained in the polytope")
    weights = {p: w for p, w in zip(res.points, res.weights) if w}
    while len(diagonals := sorted(p for p in weights if 2 in p)) >= 2:
        a, b = sorted(diagonals[:2], key=lambda p: (weights[p], p))
        w_a = weights.pop(a)
        weights[pair_point(M.n, a.index(2), b.index(2))] = 2 * w_a
        weights[b] -= w_a
        if not weights[b]:
            del weights[b]
    witness = ConvexCombination(tuple(weights), tuple(weights.values()))
    if witness.value() != center:
        raise RuntimeError("merged weights do not give the barycenter")
    result = LatticePolytope(M.n, witness.points, False)
    if _minimal_permutation(result) is None:
        raise RuntimeError("merged support is not minimal")
    return result

