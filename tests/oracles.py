"""Shared independent oracles for the test suite.

The grid oracle never triangulates: it rebuilds the diagram polyline with
a plain monotone-chain pass and counts (1/m)-boxes column by column.  The
LP vertex oracle never builds a hull: it keeps each point that the exact
membership LP separates from the others.  The LP minimality oracle never
reads the pair graph: it asks the exact LP for the barycenter's weights
and an exact rank for affine independence.  The LP minimal descent never
merges weights in closed form: it solves the barycenter LP again after
every point it drops.
"""

from fractions import Fraction

from newtoncert._linalg import matrix_rank
from newtoncert.polytope import (
    ConvexCombination,
    LatticePolytope,
    Separation,
    barycenter,
    contains_point,
    lattice_points,
    pair_point,
)


def lp_vertices(points, n, orthant_recession):
    """Vertices of conv(points) (plus the orthant when flagged), one LP per point."""
    pts = sorted({tuple(p) for p in points})
    keep = []
    for p in pts:
        others = tuple(q for q in pts if q != p)
        if not others or isinstance(
            contains_point(LatticePolytope(n, others, orthant_recession), p), Separation
        ):
            keep.append(p)
    return tuple(keep)


def affinely_independent(points):
    """Whether the points are affinely independent, by an exact Fraction rank."""
    if len(points) <= 1:
        return True
    base = points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    return matrix_rank(rows) == len(points) - 1


def lp_is_minimal(M):
    """Minimality of M inside the quadratic simplex by its LP-plus-rank
    definition: the barycenter has basic weights over the lattice points
    that are all positive, and those points are affinely independent."""
    if M.n == 0:
        return True
    pts = lattice_points(M)  # sorted, so the LP's weights line up with pts
    res = contains_point(LatticePolytope(M.n, pts), barycenter(M.n))
    return (isinstance(res, ConvexCombination) and all(w > 0 for w in res.weights)
            and affinely_independent(pts))


def lp_minimal_descent(M):
    """A minimal sub-polytope of M by repeated exact LPs, or None when the
    barycenter lies outside M.

    Solves for the barycenter over the current lattice points and drops the
    lexicographically smallest zero-weight point; with no zero weight left
    and two diagonal points 2e_i, 2e_j among the smallest, the lighter one
    (by weight, then point) is replaced by their midpoint.  Each step
    solves the LP again, until the support has at most one diagonal point.
    """
    n = M.n
    center = barycenter(n)

    def weights_over(pts):  # pts sorted, so the LP's weights line up with them
        res = contains_point(LatticePolytope(n, tuple(pts)), center)
        return None if isinstance(res, Separation) else res.weights

    pts = list(lattice_points(M))
    weights = weights_over(pts)
    if weights is None:
        return None
    while True:
        zeros = [p for p, w in zip(pts, weights) if w == 0]
        if zeros:
            pts.remove(min(zeros))
        else:
            diagonals = sorted(p for p in pts if max(p) == 2)
            if len(diagonals) < 2:
                return LatticePolytope(n, tuple(pts))
            a, b = diagonals[0], diagonals[1]
            wmap = dict(zip(pts, weights))
            drop = a if (wmap[a], a) <= (wmap[b], b) else b
            pts = sorted(set(pts) - {drop} | {pair_point(n, a.index(2), b.index(2))})
        weights = weights_over(pts)
        assert weights is not None, "a descent step lost the barycenter"


def lower_chain(points):
    """Vertices of the lower-left hull of 2-D points, x increasing."""
    pts = sorted(set(points))
    pts = [
        p
        for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    chain = []
    for p in pts:
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def grid_area(chain, m):
    """Exact area of the (1/m)-boxes fully under the diagram polyline.

    Undercounts the region area by at most (a + b)/m where a, b are the
    axis intercepts (column-wise telescoping bound for a region whose
    height profile is non-increasing).
    """
    a = chain[-1][0]

    def height(x):
        if x >= a:
            return Fraction(0)
        for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
            if x1 <= x <= x2:
                return y1 + (x - x1) * Fraction(y2 - y1, x2 - x1)
        return Fraction(chain[0][1])

    count = 0
    for i in range(a * m):
        count += (height(Fraction(i + 1, m)) * m).__floor__()
    return Fraction(count, m * m)
