"""Newton polytopes/polyhedra, membership witnesses, FM cross-validation."""

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from fm_oracle import fm_contains
from oracles import cofactor_normal, fm_vertices, lp_vertices
from newtoncert import polytope
from newtoncert.kouchnirenko import milnor_number
from newtoncert.morse import quadratic_restriction
from newtoncert.poly import SparsePolynomial, integer_determinant, monomial, parse_polynomial
from newtoncert.polytope import (
    ConvexCombination,
    LatticePolytope,
    Separation,
    barycenter,
    contains_point,
    lattice_points,
    newton_polyhedron,
    newton_polytope,
    pair_point,
    reduce_to_vertices,
    two_delta_points,
)


# -- construction and Newton hulls -------------------------------------------


def test_polytope_validation():
    with pytest.raises(ValueError):
        LatticePolytope(2, ())
    with pytest.raises(ValueError):
        LatticePolytope(2, ((1, -1),))
    with pytest.raises(ValueError):
        LatticePolytope(2, ((1, 1, 0),))
    empty = LatticePolytope(0, ())
    assert empty.generators == ()


def test_newton_polytope_examples():
    p = parse_polynomial("x1^2 + x1*x2 + x2^2", 2)
    assert newton_polytope(p).generators == ((0, 2), (2, 0))
    assert newton_polytope(parse_polynomial("x1*x2", 2)).generators == ((1, 1),)
    q = parse_polynomial("x1*x2 + x1*x3 + x2*x3", 3)
    assert newton_polytope(q).generators == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_newton_polytope_zero_rejected():
    with pytest.raises(ValueError):
        newton_polytope(parse_polynomial("0", 2))
    with pytest.raises(ValueError):
        newton_polyhedron(parse_polynomial("x1 - x1", 2))


def test_newton_polyhedron_examples():
    p = parse_polynomial("x1^2 + x2^3", 2)
    hull = newton_polyhedron(p)
    assert hull.generators == ((0, 3), (2, 0))
    assert hull.orthant_recession
    q = parse_polynomial("x1^2 + x1^2*x2", 2)
    assert newton_polyhedron(q).generators == ((2, 0),)
    r = parse_polynomial("x1*x2 + x1^5 + x2^7", 2)
    assert newton_polyhedron(r).generators == ((0, 7), (1, 1), (5, 0))


def test_product_with_disjoint_variables():
    rng = random.Random(31)
    for _ in range(20):
        a = monomial(4, (rng.randint(1, 3), rng.randint(1, 3), 0, 0)) + monomial(
            4, (rng.randint(1, 3), 0, 0, 0)
        )
        b = monomial(4, (0, 0, rng.randint(1, 3), rng.randint(1, 3))) + monomial(
            4, (0, 0, 0, rng.randint(1, 3))
        )
        prod = a * b
        sums = {
            tuple(x + y for x, y in zip(ea, eb))
            for ea in a.support()
            for eb in b.support()
        }
        # disjoint variables: exponent sums cannot collide, so no cancellation
        assert set(prod.support()) == sums
        assert set(newton_polytope(prod).generators) <= sums


def test_reduce_to_vertices_checks_n():
    with pytest.raises(ValueError, match=r"point \(1, 2, 3\) does not have n = 2"):
        reduce_to_vertices([(1, 1), (1, 2, 3), (4,)], 2, False)
    with pytest.raises(ValueError, match=r"point \(4,\) does not have n = 2"):
        reduce_to_vertices([(4,), (1, 1)], 2, True)
    assert reduce_to_vertices([(2, 0), (0, 2), (1, 1)], 2, True) == ((0, 2), (2, 0))


def test_plain_vertices_match_fourier_motzkin():
    """Seeded plain supports of at most 9 points, n = 1..6: random ones, ones
    in 2D (the pair rule), a 3 x 3 grid on a 2-plane and 4 collinear points
    keep the vertices that Fourier-Motzkin elimination finds, which shares
    no code with the LP that a support outside 2D runs."""
    rng = random.Random(913)
    for n in [1, 2, 3, 4, 5, 6] * 15:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        base = [rng.randint(4, 7) for _ in range(n)]
        u, v = ([rng.randint(-1, 2) for _ in range(n)] for _ in range(2))
        for support in (
            [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 9))],
            [pair_point(n, i, j) for i, j in rng.sample(pairs, rng.randint(1, min(9, len(pairs))))],
            [tuple(b + s * a + t * c for b, a, c in zip(base, u, v))
             for s in range(-1, 2) for t in range(-1, 2)],
            [tuple(b + s * a for b, a in zip(base, u)) for s in range(-1, 3)],
        ):
            assert reduce_to_vertices(support, n, False) == fm_vertices(support), support


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_hull_normals_are_primitive_supporting_and_match_cofactors():
    """Every stored normal of seeded orthant hulls, n = 1..6, has gcd 1,
    vanishes on its face, is >= 0 on every generator and ray and > 0 on the
    interior ray, and is the cofactor normal oriented by that ray and
    divided by its gcd.  Only a support holding the origin stores no
    facet."""
    rng = random.Random(909)
    for n in range(1, 7):
        for _ in range(12):
            pts = sorted({tuple(rng.randint(0, 5) for _ in range(n))
                          for _ in range(rng.randint(1, 16))})
            gens = [(0,) + tuple(int(k == a) for k in range(n)) for a in range(n)]
            gens += [(1,) + p for p in pts]
            inner = [sum(col) for col in zip(*gens[: n + 1])]
            facets = polytope._hull(pts)
            assert facets or (0,) * n in pts
            for face, h in facets.items():
                assert math.gcd(*h) == 1
                assert all(_dot(h, g) == 0 for g in face)
                assert all(_dot(h, g) >= 0 for g in gens)
                assert _dot(h, inner) > 0
                c = cofactor_normal(face)
                c = c if _dot(c, inner) > 0 else tuple(-v for v in c)
                assert tuple(v // math.gcd(*c) for v in c) == h, face


def _compact_volume(facets):
    """n! times the volume under the compact facets (strictly positive w)."""
    return sum(abs(integer_determinant([g[1:] for g in face]))
               for face, h in facets.items() if min(h[1:]) > 0)


def test_hull_is_invariant_under_point_order(monkeypatch):
    """Seeded convenient and non-convenient orthant supports, n = 1..6, in
    shuffled order give facets keyed by sorted generator tuples, the same
    vertices (the LP oracle's), the same volume under the compact facets
    and the same Milnor number; only the triangulation of a non-simplicial
    compact facet may change."""
    from newtoncert import kouchnirenko

    def mu_of(f):
        try:
            return milnor_number(f)
        except ValueError as exc:  # a diagram giving 1 at a singular Hessian
            return str(exc)

    rng = random.Random(911)
    hull = polytope._hull
    for n in range(1, 7):
        for case in range(16):
            support = {tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 14))}
            support = {p for p in support if sum(p) >= 2}
            if case % 2 == 0:  # convenient: a pure power on every axis
                support |= {tuple(rng.randint(2, 6) * (k == a) for k in range(n)) for a in range(n)}
            if not support:
                continue
            pts = sorted(support)
            facets = hull(pts)
            vertices = polytope._hull_vertices(facets, n)
            assert vertices == lp_vertices(pts, n, True)
            f = SparsePolynomial(n, {p: rng.randint(1, 9) for p in pts})
            mu = mu_of(f)
            for _ in range(3):
                shuffled = hull(rng.sample(pts, len(pts)))
                assert all(list(face) == sorted(face) for face in shuffled)
                assert polytope._hull_vertices(shuffled, n) == vertices
                assert _compact_volume(shuffled) == _compact_volume(facets)
            with monkeypatch.context() as m:
                m.setattr(kouchnirenko, "_hull",
                          lambda gens: hull(rng.sample(gens, len(gens))))
                assert mu_of(f) == mu, pts


def test_degenerate_hull_facet_names_coordinates(monkeypatch):
    """A facet whose normal has no interior side stops the hull, and the
    error names the facet by its generators, not by their labels.  The
    closed-form start normals all face inward, so the test negates the
    products in the check against the interior ray, as if the first start
    normal faced outward."""
    monkeypatch.setattr(polytope, "mul", lambda a, b: -a * b)
    with pytest.raises(RuntimeError,
                       match=re.escape("degenerate hull facet ((0, 0, 1), (1, 0, 2))")):
        polytope._hull([(0, 2), (2, 0)])


def test_orthant_hull_stores_only_compact_facets():
    """Seeded orthant supports, n = 1..6: on a convenient one every stored
    facet is compact (c > 0 and w > 0), on any other no stored facet lies in
    a coordinate hyperplane (c = 0); the vertices are the LP oracle's."""
    rng = random.Random(912)
    for n in range(1, 7):
        for case in range(16):
            support = {tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 14))}
            support.discard((0,) * n)
            convenient = case % 2 == 0
            if convenient:
                support |= {tuple(rng.randint(1, 6) * (k == a) for k in range(n)) for a in range(n)}
            if not support:
                continue
            pts = sorted(support)
            facets = polytope._hull(pts)
            assert facets
            for h in facets.values():
                assert h[0] < 0
                assert min(h[1:]) > 0 or not convenient
            assert polytope._hull_vertices(facets, n) == lp_vertices(pts, n, True)


def test_orthant_support_holding_the_origin_is_the_orthant():
    """N = R^n_+ stores no facet, and its one vertex is still the origin,
    wherever the origin comes in the insertion order."""
    for n in (1, 2, 4):
        origin = (0,) * n
        pts = [tuple(3 * (k == a) for k in range(n)) for a in range(n)] + [(1,) * n, origin]
        assert polytope._hull(pts) == {}
        assert polytope._hull(pts[::-1]) == {}
        assert reduce_to_vertices(pts, n, True) == (origin,)
        f = SparsePolynomial(n, {p: 1 for p in pts})
        assert newton_polyhedron(f).generators == (origin,)


def test_orthant_hull_n1_reaches_the_empty_ridge():
    """At n = 1 the one ridge is empty; a larger power given first is
    replaced across it by the smaller one."""
    assert polytope._hull([(5,), (2,)]) == {((1, 2),): (-2, 1)}
    assert polytope._hull([(5,), (2,), (0,)]) == {}
    assert reduce_to_vertices([(5,), (2,), (7,)], 1, True) == ((2,),)


def test_hull_sum_of_squares_n24_is_fast():
    """The orthant hull of the sum of squares at n = 24, which stores one
    facet (x_1 + ... + x_24 >= 2), is bounded in time."""
    n = 24
    squares = [tuple(2 * (k == a) for k in range(n)) for a in range(n)]
    start = time.perf_counter()
    assert reduce_to_vertices(squares, n, True) == tuple(sorted(squares))
    assert time.perf_counter() - start < 1.5


def test_hull_path_polynomial_n16_is_fast():
    """x1^3 + x1*x2 + ... + x15*x16 is not convenient: its orthant hull keeps
    unbounded facets off the coordinate hyperplanes, and is bounded in time."""
    n = 16
    path = [(3,) + (0,) * (n - 1)] + [tuple(int(k in (a, a + 1)) for k in range(n))
                                      for a in range(n - 1)]
    start = time.perf_counter()
    assert reduce_to_vertices(path, n, True) == tuple(sorted(path))
    assert time.perf_counter() - start < 1.0


# -- barycenter ---------------------------------------------------------------


def test_barycenter_values():
    assert barycenter(2) == (Fraction(1), Fraction(1))
    assert barycenter(3) == (Fraction(2, 3),) * 3
    assert barycenter(4) == (Fraction(1, 2),) * 4


# -- membership with witnesses -------------------------------------------------


def test_contains_midpoint():
    M = LatticePolytope(2, ((2, 0), (0, 2)))
    res = contains_point(M, (1, 1))
    assert isinstance(res, ConvexCombination)
    assert res.value() == (Fraction(1), Fraction(1))
    assert sorted(res.weights) == [Fraction(1, 2), Fraction(1, 2)]


def test_contains_barycenter_of_triangle():
    M = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    res = contains_point(M, barycenter(3))
    assert isinstance(res, ConvexCombination)
    assert set(res.weights) == {Fraction(1, 3)}


def test_separation_certificate():
    M = LatticePolytope(2, ((2, 0),))
    res = contains_point(M, (1, 1))
    assert isinstance(res, Separation)
    # the functional is checked, not prescribed
    assert sum(c * g for c, g in zip(res.coeffs, (2, 0))) >= res.rhs
    assert sum(c * q for c, q in zip(res.coeffs, (1, 1))) < res.rhs


def test_membership_with_recession():
    M = LatticePolytope(2, ((2, 0), (0, 3)), orthant_recession=True)
    inside = contains_point(M, (2, 5))
    assert isinstance(inside, ConvexCombination)
    assert inside.recession is not None
    outside = contains_point(M, (1, 1))
    assert isinstance(outside, Separation)
    assert all(c >= 0 for c in outside.coeffs)


def test_dimension_mismatch():
    M = LatticePolytope(2, ((1, 1),))
    with pytest.raises(ValueError, match="dimension"):
        contains_point(M, (1, 1, 1))


def test_witness_validation_rules():
    with pytest.raises(ValueError):
        ConvexCombination(((1, 1),), (Fraction(1, 2),))  # weights sum != 1
    with pytest.raises(ValueError):
        ConvexCombination(((1, 1), (2, 0)), (Fraction(3, 2), Fraction(-1, 2)))


# -- Fourier-Motzkin cross-validation ------------------------------------------


def test_fm_oracle_agrees_exhaustive_small():
    for n in (2, 3):
        pts = two_delta_points(n)
        O = barycenter(n)
        for mask in range(1, 2 ** len(pts)):
            subset = tuple(pts[k] for k in range(len(pts)) if mask >> k & 1)
            M = LatticePolytope(n, subset)
            lp_says = isinstance(contains_point(M, O), ConvexCombination)
            assert lp_says == fm_contains(subset, O), (n, subset)


def test_fm_oracle_agrees_exhaustive_n4():
    n = 4
    pts = two_delta_points(n)
    O = barycenter(n)
    for mask in range(1, 2 ** len(pts)):
        subset = tuple(pts[k] for k in range(len(pts)) if mask >> k & 1)
        M = LatticePolytope(n, subset)
        lp_says = isinstance(contains_point(M, O), ConvexCombination)
        assert lp_says == fm_contains(subset, O), subset


def _substituted_membership(M, q):
    """contains_point's verdict, its witness substituted here by hand: the
    weights are >= 0, sum to 1 and give q (with a recession part >= 0), or
    the functional is >= rhs on every generator, >= 0 on the recession
    cone and < rhs at q."""
    res = contains_point(M, q)
    if isinstance(res, ConvexCombination):
        assert res.points == M.generators
        assert all(w >= 0 for w in res.weights) and sum(res.weights) == 1
        rec = res.recession if M.orthant_recession else (0,) * M.n
        assert all(v >= 0 for v in rec)
        assert tuple(
            sum(w * p[k] for p, w in zip(res.points, res.weights)) + rec[k]
            for k in range(M.n)
        ) == tuple(q)
        return True
    assert all(_dot(res.coeffs, g) >= res.rhs for g in M.generators)
    assert not M.orthant_recession or all(c >= 0 for c in res.coeffs)
    assert _dot(res.coeffs, q) < res.rhs
    return False


def test_fm_oracle_agrees_random_n5_n6():
    rng = random.Random(606)
    for n in (5, 6):
        pts = two_delta_points(n)
        for _ in range(60):
            size = rng.randint(1, 9)
            subset = tuple(sorted(rng.sample(pts, size)))
            M = LatticePolytope(n, subset)
            lp_says = _substituted_membership(M, barycenter(n))
            assert lp_says == fm_contains(subset, barycenter(n)), (n, subset)


def test_fm_oracle_agrees_on_other_query_points():
    rng = random.Random(607)
    for _ in range(40):
        n = rng.randint(2, 4)
        pts = two_delta_points(n)
        subset = tuple(sorted(rng.sample(pts, rng.randint(1, len(pts)))))
        M = LatticePolytope(n, subset)
        q = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n))
        lp_says = isinstance(contains_point(M, q), ConvexCombination)
        assert lp_says == fm_contains(subset, q), (subset, q)


def test_fm_oracle_agrees_with_recession():
    rng = random.Random(608)
    for _ in range(30):
        n = rng.randint(2, 3)
        gens = tuple(
            tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))
        )
        M = LatticePolytope(n, gens, orthant_recession=True)
        q = tuple(Fraction(rng.randint(0, 5), rng.randint(1, 2)) for _ in range(n))
        lp_says = _substituted_membership(M, q)
        assert lp_says == fm_contains(M.generators, q, orthant_recession=True)


# -- lattice point enumeration ---------------------------------------------------


def test_lattice_points_of_segment():
    M = LatticePolytope(2, ((2, 0), (0, 2)))
    assert lattice_points(M) == ((0, 2), (1, 1), (2, 0))


def test_lattice_points_match_membership():
    """The closure rule against per-pair-point LP membership: supports in
    the quadratic simplex up to n = 6, then degree >= 2 supports with the
    orthant recession, whose quadratic restriction the rule also reads."""
    rng = random.Random(55)
    for _ in range(80):
        n = rng.randint(2, 6)
        pts = two_delta_points(n)
        subset = tuple(sorted(rng.sample(pts, rng.randint(1, len(pts)))))
        M = LatticePolytope(n, subset)
        via_closure = set(lattice_points(M))
        via_lp = {
            p
            for p in pts
            if isinstance(contains_point(M, p), ConvexCombination)
        }
        assert via_closure == via_lp
    for _ in range(150):
        n = rng.randint(2, 4)
        box = [p for p in itertools.product(range(4), repeat=n) if sum(p) >= 2]
        M = LatticePolytope(n, tuple(rng.sample(box, rng.randint(1, 6))), True)
        restricted = quadratic_restriction(M)
        via_closure = set(restricted.generators) if restricted else set()
        via_lp = {
            p
            for p in two_delta_points(n)
            if isinstance(contains_point(M, p), ConvexCombination)
        }
        assert via_closure == via_lp, M


def test_pair_point_roundtrip():
    for n in (1, 2, 5):
        for i in range(n):
            for j in range(i, n):
                p = pair_point(n, i, j)
                assert sum(p) == 2
