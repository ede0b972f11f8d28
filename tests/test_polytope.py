"""Newton polytopes/polyhedra, membership witnesses, FM cross-validation."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fm_oracle import fm_contains
from oracles import affinely_independent
from newtoncert import polytope
from newtoncert.morse import quadratic_restriction
from newtoncert.poly import monomial, parse_polynomial
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


def _seeded_hull_inputs(rng, n, orthant, hulls):
    """Point lists for _hull: sorted for the orthant, else reordered so that
    the first n + 1 points are affinely independent, as _hull requires."""
    while hulls:
        pts = sorted({tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 16))})
        if not orthant:
            start = []
            for p in pts:
                if affinely_independent(start + [p]):
                    start.append(p)
            if len(start) < n + 1:
                continue
            pts = start + [p for p in pts if p not in start]
        hulls -= 1
        yield pts


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_hull_normals_are_primitive_supporting_and_match_cofactors():
    """Every stored normal of seeded plain and orthant hulls, n = 1..6, has
    gcd 1, vanishes on its face, is >= 0 on every generator and ray and
    > 0 on the interior ray, and is the cofactor normal (_normal) oriented
    by that ray and divided by its gcd."""
    rng = random.Random(909)
    for n in range(1, 7):
        for orthant in (False, True):
            for pts in _seeded_hull_inputs(rng, n, orthant, 12):
                gens = [(0,) + tuple(int(k == a) for k in range(n)) for a in range(n) if orthant]
                gens += [(1,) + p for p in pts]
                inner = [sum(col) for col in zip(*gens[: n + 1])]
                facets = polytope._hull(pts, orthant)
                assert facets
                for face, h in facets.items():
                    assert math.gcd(*h) == 1
                    assert all(_dot(h, g) == 0 for g in face)
                    assert all(_dot(h, g) >= 0 for g in gens)
                    assert _dot(h, inner) > 0
                    c = polytope._normal(face)
                    c = c if _dot(c, inner) > 0 else tuple(-v for v in c)
                    assert tuple(v // math.gcd(*c) for v in c) == h, face


def test_hull_takes_cofactors_for_the_start_simplex_only(monkeypatch):
    cofactor = polytope._normal
    calls = []

    def counted(face):
        calls.append(face)
        return cofactor(face)

    monkeypatch.setattr(polytope, "_normal", counted)
    rng = random.Random(910)
    for n in (3, 4, 5):
        for _ in range(6):
            support = {tuple(rng.randint(2, 6) if k == a else 0 for k in range(n)) for a in range(n)}
            support |= {tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(14)}
            del calls[:]
            facets = polytope._hull(sorted(support), orthant=True)
            assert len(facets) > n + 1
            assert 1 <= len(calls) <= n + 1, (n, len(calls), len(facets))


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


def test_fm_oracle_agrees_random_n5_n6():
    rng = random.Random(606)
    for n in (5, 6):
        pts = two_delta_points(n)
        for _ in range(60):
            size = rng.randint(1, 9)
            subset = tuple(sorted(rng.sample(pts, size)))
            M = LatticePolytope(n, subset)
            lp_says = isinstance(contains_point(M, barycenter(n)), ConvexCombination)
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
        lp_says = isinstance(contains_point(M, q), ConvexCombination)
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
