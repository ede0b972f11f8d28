"""Shared independent oracles for the test suite.

The grid oracle never triangulates: it rebuilds the diagram polyline with
a plain monotone-chain pass and counts (1/m)-boxes column by column.  The
LP vertex oracle never builds a hull: it keeps each point that the exact
membership LP separates from all the others (the package's route for a
plain support outside the quadratic simplex also drops each point it
finds inside from the later LPs).  The Fourier-Motzkin vertex oracle
keeps the same points without the simplex method: it shares no code with
lp.  The cofactor normal never rotates: it takes a hull face's normal
from minors, rays included, where the hull starts in closed form and
rotates every later normal.  The LP minimality oracle never reads the
pair graph: it asks the exact LP for the barycenter's weights
and an exact rank for affine independence.  The LP minimal descent never
merges weights in closed form: it solves the barycenter LP again after
every point it drops.  The special-vertex reduction, the matching
witness and the certificate by minimal-polytope reduction are the proof's
constructions, kept here as references: no route of the package runs
them.  The last is the second route that certify is checked against: it
reads the permutation off the minimal sub-polytope's pair graph, not off
a matching.  The all-subsets volumes never prune the face walk: they try
every vertex subset of every diagram simplex as a coordinate face.  The
dense Bareiss loop never skips a row: it rescales every row below every
pivot and takes the columns in their given order.  The unsplit Milnor
number never drops a point: each block of variables gets one hull over
all of its support points, where the package splits the diagram at the
intercept simplex first.  The plane-curve Milnor number takes no diagram
and nothing from newtoncert: it is the intersection multiplicity of the
two partial derivatives at the origin, by Fulton's algorithm.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

from fm_oracle import fm_contains
from newtoncert.kouchnirenko import (
    INFINITE,
    UnboundedRegionError,
    VolumeVector,
    _blocks,
    under_diagram_region,
    volumes,
)
from newtoncert.poly import _require_singular, integer_determinant, is_morse
from newtoncert.polytope import (
    ConvexCombination,
    LatticePolytope,
    Separation,
    _minimal_permutation,
    barycenter,
    contains_point,
    decode_pair,
    is_minimal,
    lattice_points,
    minimal_subpolytope,
    pair_point,
)
from newtoncert.stencil import MatchingCertificate, certify


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


def fm_vertices(points):
    """Vertices of conv(points), one Fourier-Motzkin membership per point."""
    pts = sorted({tuple(p) for p in points})
    keep = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not others or not fm_contains(others, p):
            keep.append(p)
    return tuple(keep)


def dense_bareiss(rows):
    """Determinant by Bareiss elimination over every row and entry: row i
    becomes (pv * row_i - f * row_k) // prev at every step, f = 0 or not.
    Ints or GaussianRationals; the empty matrix gives 1."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        for pivot in range(k, n):
            if m[pivot][k]:
                break
        else:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        mk = m[k]
        pv = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pv - f * mk[j]) // prev
        prev = pv
    return sign * m[n - 1][n - 1]


def cofactor_normal(face):
    """Normal (-c, *w) of the cone's hyperplane <w, x> = c through a face of
    the orthant hull, of points (1, *s) and rays (0, *e_k): w_k = 0 for each
    ray, the rest are the signed minors of the points' differences from the
    last point (rays sort first).  Unoriented and not divided by its gcd."""
    base = face[-1][1:]
    axes = {g.index(1) - 1 for g in face if not g[0]}
    cols = [k for k in range(len(base)) if k not in axes]
    rows = [[g[k + 1] - base[k] for k in cols] for g in face[:-1] if g[0]]
    w = [0] * len(base)
    for j, k in enumerate(cols):
        w[k] = (-1) ** j * integer_determinant([r[:j] + r[j + 1:] for r in rows])
    return (-sum(a * b for a, b in zip(w, base)),) + tuple(w)


def exact_rank(rows):
    """Rank of a rational matrix by Fraction row reduction."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for row in m[rank + 1:]:
            f = row[col] / top[col]
            row[:] = [a - f * b for a, b in zip(row, top)]
        rank += 1
    return rank


def affinely_independent(points):
    """Whether the points are affinely independent, by an exact Fraction rank."""
    if len(points) <= 1:
        return True
    base = points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    return exact_rank(rows) == len(points) - 1


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


def is_special_vertex(M, v):
    """Whether no other lattice point of M uses v's smaller index.

    For v = e_i + e_j with i <= j this checks index i; for minimal
    polytopes the two index choices agree.
    """
    v = tuple(v)
    pts = lattice_points(M)
    if v not in pts:
        raise ValueError(f"{v} is not a lattice point of the polytope")
    i, _ = decode_pair(v)
    return all(p[i] == 0 for p in pts if p != v)


def reduce_special(M, v):
    """Remove a special vertex v of a minimal M and embed the rest in the
    reduced simplex.

    Returns the reduced polytope (coordinates i and j deleted; just i when
    v = 2e_i) and the sorted dropped index set.  Nothing is re-checked:
    the tests assert that the reduction is minimal again.
    """
    v = tuple(v)
    if not is_minimal(M):
        raise ValueError("polytope is not minimal")
    if not is_special_vertex(M, v):
        raise ValueError(f"{v} is not a special vertex")
    i, j = decode_pair(v)
    dropped = (i,) if i == j else (i, j)
    keep = [c for c in range(M.n) if c not in dropped]
    rest = tuple(tuple(p[c] for c in keep) for p in lattice_points(M) if p != v)
    return LatticePolytope(len(keep), rest, False), dropped


def witness_O_from_matching(sigma, n):
    """The combination (1/n) * sum of the pair points e_i + e_sigma(i); the
    tests substitute it to see that it gives the barycenter."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of 0..n-1")
    points = tuple(pair_point(n, i, sigma[i]) for i in range(n))
    return ConvexCombination(points, (Fraction(1, n),) * n)


def certify_via_minimal(M):
    """Certificate by minimal-polytope reduction instead of matching search.

    minimal_subpolytope's one exact LP decides membership; no other LP
    runs.  Inside, the permutation is the one _minimal_permutation reads
    off the minimal polytope's pair graph: a transposition per edge, a
    fixed point at the loop, each odd cycle walked from its smallest index
    towards its smaller neighbour.  Outside, the answer is certify's
    cover, which must not be a matching.
    """
    try:
        mm = minimal_subpolytope(M)
    except ValueError:
        cert = certify(M)  # raises again when M is not inside 2D
        if isinstance(cert, MatchingCertificate):
            raise RuntimeError("matching/membership dichotomy violated") from None
        return cert
    return MatchingCertificate(_minimal_permutation(mm))


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


def all_subsets_volumes(region):
    """kouchnirenko.volumes without pruning: all 2^n - 1 vertex subsets of
    every simplex are tried, and each one with i points spanning exactly i
    axes counts once, with |det| / i!."""
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


def unsplit_milnor(f):
    """milnor_number with one hull per non-Morse block over all its support
    points: INFINITE when a block has no pure power on some axis (before
    any volume), else the product of the blocks' alternating volume sums,
    a RuntimeError when a block's simplices do not close up and a
    ValueError when a block gives 1."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    _require_singular(f._terms)
    regions = []
    for g in _blocks(f):
        if not is_morse(g):
            try:
                regions.append(under_diagram_region(
                    LatticePolytope(g.n_vars, g.support(), orthant_recession=True)))
            except UnboundedRegionError:
                return INFINITE
    mu = 1
    for region in regions:
        n = region.n
        ridges = Counter(r for s in region.simplices for r in combinations(sorted(s[1:]), n - 1))
        if any(count != 2 and not any(all(p[k] == 0 for p in r) for k in range(n))
               for r, count in ridges.items()):
            raise RuntimeError("the Newton diagram does not close up")
        vols = volumes(region)
        block_mu = (-1) ** n + sum((-1) ** (n - i) * factorial(i) * vols.dim_volume(i)
                                   for i in range(1, n + 1))
        if block_mu == 1:
            raise ValueError("the Newton diagram is degenerate")
        mu *= int(block_mu)
    return mu


def _primitive(poly):
    """{(i, j): int} without zero terms, divided by the gcd of its coefficients."""
    poly = {e: c for e, c in poly.items() if c}
    content = gcd(*poly.values()) if poly else 1
    return {e: c // content for e, c in poly.items()}


def intersection_multiplicity(F, G):
    """I_0(F, G) of plane curves {(i, j): int} (the coefficient of x^i y^j),
    by Fulton's algorithm (Algebraic Curves, section 3.3); None when F and
    G share a component through the origin.

    0 if the origin is off a curve.  If y divides G, say G = y H, then
    I(F, G) = ord_x F(x, 0) + I(F, H).  Otherwise, with r <= s the degrees
    of F(x, 0) and G(x, 0) (swapping F and G if needed), G becomes
    lc(F(x, 0)) G - lc(G(x, 0)) x^(s - r) F, which keeps I and lowers s;
    G is divided by its content after every step, so its coefficients
    stay small.
    """
    F, G = _primitive(F), _primitive(G)
    total = 0
    while True:
        if not F or not G:
            return None
        if F.get((0, 0)) or G.get((0, 0)):
            return total
        fx = {i: c for (i, j), c in F.items() if not j}
        gx = {i: c for (i, j), c in G.items() if not j}
        if not fx and not gx:
            return None  # y is a common component
        if not fx:
            F, G, fx, gx = G, F, gx, fx
        if not gx:
            total += min(fx)
            G = {(i, j - 1): c for (i, j), c in G.items()}
            continue
        r, s = max(fx), max(gx)
        if r > s:
            F, G, fx, gx, r, s = G, F, gx, fx, s, r
        G = {e: fx[r] * c for e, c in G.items()}
        for (i, j), c in F.items():
            G[i + s - r, j] = G.get((i + s - r, j), 0) - gx[s] * c
        G = _primitive(G)


def plane_milnor(f):
    """mu of a plane curve {(i, j): int or Fraction} with a singular point
    at the origin: I_0(f_x, f_y), None when the singularity is not
    isolated.  Denominators are cleared first, which leaves mu as it is."""
    scale = lcm(*(Fraction(c).denominator for c in f.values()))
    f = {e: int(Fraction(c) * scale) for e, c in f.items()}
    fx = {(i - 1, j): i * c for (i, j), c in f.items() if i}
    fy = {(i, j - 1): j * c for (i, j), c in f.items() if j}
    return intersection_multiplicity(fx, fy)
