"""Under-diagram regions, exact volumes, Milnor numbers, face restrictions."""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from newtoncert import lp, polytope
from newtoncert.kouchnirenko import (
    INFINITE,
    UnboundedRegionError,
    face_restriction,
    milnor_number,
    under_diagram_region,
    volumes,
)
from newtoncert.poly import SparsePolynomial, parse_polynomial
from newtoncert.polytope import LatticePolytope, newton_polyhedron, reduce_to_vertices
from oracles import lp_vertices

# (n, poly, mu) on 40 seeded convenient diagrams, n = 2..5, up to 20
# vertices, each with interior points, lattice points on segments between
# generators and a generator dominating an axis intercept.  The values were
# computed by the earlier implementation, which enumerated every n-subset
# of the vertices as a candidate facet.
MILNOR_TABLE = json.loads((Path(__file__).parent / "milnor_table.json").read_text())


def _region_of(text, n):
    return under_diagram_region(newton_polyhedron(parse_polynomial(text, n)))


def _normalized_simplices(region):
    return {tuple(sorted(s)) for s in region.simplices}


def test_region_triangle():
    region = _region_of("x1^2 + x2^2", 2)
    assert region.axis_intercepts == (2, 2)
    assert _normalized_simplices(region) == {((0, 0), (0, 2), (2, 0))}


def test_region_absorbs_interior_point():
    region = _region_of("x1^2 + x1*x2 + x2^2", 2)
    assert _normalized_simplices(region) == {((0, 0), (0, 2), (2, 0))}


def test_region_two_segment_diagram():
    region = _region_of("x1^3 + x1*x2 + x2^3", 2)
    assert region.vertex_generators == ((0, 3), (1, 1), (3, 0))
    vols = volumes(region)
    assert vols.dim_volume(2) == Fraction(3)
    assert vols.dim_volume(1) == Fraction(6)


def test_region_requires_recession():
    with pytest.raises(ValueError, match="recession"):
        under_diagram_region(LatticePolytope(2, ((2, 0), (0, 2))))


def test_region_unbounded():
    with pytest.raises(UnboundedRegionError):
        _region_of("x1^2 + x1*x2", 2)


def test_volumes_examples():
    vols = volumes(_region_of("x1^2 + x2^2", 2))
    assert vols.dim_volume(2) == Fraction(2)
    assert vols.dim_volume(1) == Fraction(4)

    vols3 = volumes(_region_of("x1^3 + x2^3", 2))
    assert vols3.dim_volume(2) == Fraction(9, 2)
    assert vols3.dim_volume(1) == Fraction(6)

    vols1 = volumes(_region_of("x1^5", 1))
    assert vols1.dim_volume(1) == Fraction(5)


def test_volumes_three_vars():
    vols = volumes(_region_of("x1^2 + x2^2 + x3^2", 3))
    assert vols.dim_volume(3) == Fraction(4, 3)
    assert vols.dim_volume(2) == Fraction(6)
    assert vols.dim_volume(1) == Fraction(6)


def test_milnor_examples():
    assert milnor_number(parse_polynomial("x1^2 + x2^2", 2)) == 1
    assert milnor_number(parse_polynomial("x1^3 + x2^3", 2)) == 4
    assert milnor_number(parse_polynomial("x1^5", 1)) == 4
    assert milnor_number(parse_polynomial("x1^2 + x2^2 + x3^2", 3)) == 1


def test_milnor_infinite():
    assert milnor_number(parse_polynomial("x1^2 + x1^2*x2", 2)) == INFINITE
    assert milnor_number(parse_polynomial("x1*x2", 2)) == INFINITE


def test_milnor_rejects_constant_linear():
    with pytest.raises(ValueError):
        milnor_number(parse_polynomial("1 + x1^2", 1))
    with pytest.raises(ValueError):
        milnor_number(parse_polynomial("x1 + x2^2", 2))
    with pytest.raises(ValueError):
        milnor_number(parse_polynomial("0", 2))


def test_milnor_brieskorn_oracle():
    # mu(x^a + y^b) = (a-1)(b-1), exact
    for a in range(2, 7):
        for b in range(2, 7):
            f = parse_polynomial(f"x1^{a} + x2^{b}", 2)
            assert milnor_number(f) == (a - 1) * (b - 1)


def test_milnor_brieskorn_three_vars():
    rng = random.Random(9)
    for _ in range(8):
        a, b, c = (rng.randint(2, 5) for _ in range(3))
        f = parse_polynomial(f"x1^{a} + x2^{b} + x3^{c}", 3)
        assert milnor_number(f) == (a - 1) * (b - 1) * (c - 1)


def test_milnor_brieskorn_four_vars():
    for a, b, c, d in ((2, 2, 2, 2), (3, 2, 4, 2), (2, 3, 2, 5)):
        f = parse_polynomial(f"x1^{a} + x2^{b} + x3^{c} + x4^{d}", 4)
        assert milnor_number(f) == (a - 1) * (b - 1) * (c - 1) * (d - 1)


def test_milnor_permutation_invariance():
    rng = random.Random(44)
    for n in [2, 3, 4, 5] * 6:
        terms = {}
        for axis in range(n):
            exp = [0] * n
            exp[axis] = rng.randint(2, 5)
            terms[tuple(exp)] = 1
        for _ in range(rng.randint(0, 3)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(exp) >= 2:
                terms[exp] = rng.randint(1, 5)
        f = SparsePolynomial(n, terms)
        mu = milnor_number(f)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = SparsePolynomial(
            n, {tuple(e[perm[k]] for k in range(n)): c for e, c in terms.items()}
        )
        assert milnor_number(permuted) == mu


def test_milnor_pinned_table():
    assert len(MILNOR_TABLE) == 40
    for row in MILNOR_TABLE:
        f = parse_polynomial(row["poly"], row["n"])
        assert milnor_number(f) == row["mu"], row


def _weighted_facet(intercepts):
    """Every monomial of the facet through the points a_i e_i: weights
    w_i = d / a_i with d = lcm(a), all k >= 0 with <w, k> = d."""
    d = math.lcm(*intercepts)
    w = [d // a for a in intercepts]
    exps = [
        k for k in itertools.product(*(range(a + 1) for a in intercepts))
        if sum(a * b for a, b in zip(w, k)) == d
    ]
    return d, w, SparsePolynomial(len(w), {k: 1 for k in exps})


def test_milnor_orlik_weighted_facet():
    # Milnor-Orlik: mu = prod(d / w_i - 1) for a weighted-homogeneous
    # isolated singularity of weights w and degree d
    cases = ((2, 3, 6), (3, 4, 6), (4, 4, 4), (3, 3, 4, 6), (2, 4, 4, 4),
             (2, 3, 3, 4, 4), (3, 3, 3, 3, 3))
    for intercepts in cases:
        d, w, f = _weighted_facet(intercepts)
        assert len(f.support()) > len(w)
        expected = math.prod(Fraction(d, wi) - 1 for wi in w)
        assert milnor_number(f) == expected, intercepts


def _convenient_support(rng, n):
    pts = set()
    for k in range(n):
        e = [0] * n
        e[k] = rng.randint(2, 6)
        pts.add(tuple(e))
    for _ in range(rng.randint(0, 14)):
        p = tuple(rng.randint(0, 5) for _ in range(n))
        if sum(p) >= 2:
            pts.add(p)
    return tuple(pts)


def _plain_supports(rng, n):
    """A full-dimensional support, then lower-dimensional ones: a quadratic
    form's (in sum(x) = 2), a 2-plane, collinear points, a single point."""
    yield [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 14))]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    yield [polytope.pair_point(n, i, j) for i, j in rng.sample(pairs, rng.randint(1, len(pairs)))]
    base = [rng.randint(4, 7) for _ in range(n)]
    u, v = ([rng.randint(-1, 2) for _ in range(n)] for _ in range(2))
    yield [tuple(b + s * a + t * c for b, a, c in zip(base, u, v))
           for s in range(-1, 2) for t in range(-1, 2) if rng.random() < 0.7] or [tuple(base)]
    yield [tuple(b + s * a for b, a in zip(base, u)) for s in range(-1, 3)]
    yield [tuple(base)]


def test_region_vertices_match_lp_reduction():
    rng = random.Random(808)
    for n in [1, 2, 3, 4, 5, 6] * 10:
        N = LatticePolytope(n, _convenient_support(rng, n), orthant_recession=True)
        region = under_diagram_region(N)
        assert region.vertex_generators == lp_vertices(N.generators, n, True)
        assert reduce_to_vertices(N.generators, n, True) == region.vertex_generators
        for simplex in region.simplices:
            assert simplex[0] == (0,) * n and len(simplex) == n + 1
        # non-convenient: some axis carries no pure power
        support = [p for p in N.generators if sum(p) != max(p) or p[0] == 0]
        assert reduce_to_vertices(support, n, True) == lp_vertices(support, n, True)
        for support in _plain_supports(rng, n):
            assert reduce_to_vertices(support, n, False) == lp_vertices(support, n, False)


def test_milnor_solves_no_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("membership LP called")

    monkeypatch.setattr(polytope, "contains_point", no_lp)
    monkeypatch.setattr(lp, "solve_eq_nonneg", no_lp)
    rng = random.Random(809)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            f = SparsePolynomial(n, {p: 1 for p in _convenient_support(rng, n)})
            assert milnor_number(f) >= 1
    for row in MILNOR_TABLE[::5]:
        assert milnor_number(parse_polynomial(row["poly"], row["n"])) == row["mu"]
    assert milnor_number(parse_polynomial("x1^2 + x1*x2", 2)) == INFINITE


def test_milnor_detects_a_dropped_simplex(capsys, monkeypatch):
    from newtoncert import cli, kouchnirenko

    for row in MILNOR_TABLE[::8]:
        f = parse_polynomial(row["poly"], row["n"])
        full = under_diagram_region(newton_polyhedron(f))
        for k in range(len(full.simplices)):
            dropped = dataclasses.replace(full, simplices=full.simplices[:k] + full.simplices[k + 1:])
            monkeypatch.setattr(kouchnirenko, "under_diagram_region", lambda N: dropped)
            with pytest.raises(RuntimeError, match="does not close up"):
                milnor_number(f)
        assert cli.run(["milnor", "--n", str(row["n"]), "--poly", row["poly"]]) == 3
        assert '"internal":true' in capsys.readouterr().out
        monkeypatch.undo()
        assert milnor_number(f) == row["mu"]


def test_milnor_coefficients_do_not_matter():
    f = parse_polynomial("3*x1^2 + 5*x2^2 + 7*x1*x2", 2)
    assert milnor_number(f) == 1


def test_milnor_one_iff_generically_morse_box():
    """Empirical desk-scale check: mu = 1 exactly on generically-Morse
    supports, over bounded-diagram supports from the box {0..4}^2."""
    from newtoncert.morse import GENERICALLY_MORSE, classify_support

    rng = random.Random(73)
    box = [(a, b) for a in range(5) for b in range(5) if a + b >= 2]
    supports = set()
    for a in range(2, 5):
        for b in range(2, 5):
            supports.add(((a, 0), (0, b)))
    for _ in range(120):
        support = {
            (rng.randint(2, 4), 0),
            (0, rng.randint(2, 4)),
        }
        for _ in range(rng.randint(0, 3)):
            support.add(rng.choice(box))
        supports.add(tuple(sorted(support)))
    for support in sorted(supports):
        f = SparsePolynomial(2, {e: 1 for e in support})
        mu = milnor_number(f)
        kind = classify_support(newton_polyhedron(f)).kind
        assert (mu == 1) == (kind == GENERICALLY_MORSE), (support, mu, kind)


def test_face_restriction_examples():
    f = parse_polynomial("x1^2 + x1*x2 + x2^3", 2)
    assert face_restriction(f, (1, 1)) == parse_polynomial("x1^2 + x1*x2", 2)
    g = parse_polynomial("x1^2 + x2^2", 2)
    assert face_restriction(g, (1, 2)) == parse_polynomial("x1^2", 2)
    h = parse_polynomial("x1*x2", 2)
    assert face_restriction(h, (Fraction(1, 3), 5)) == h


def test_face_restriction_rejects_nonpositive():
    f = parse_polynomial("x1^2 + x2^2", 2)
    with pytest.raises(ValueError, match="positive"):
        face_restriction(f, (1, 0))
    with pytest.raises(ValueError, match="positive"):
        face_restriction(f, (1, -1))


def test_face_restriction_lies_on_supporting_hyperplane():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exp = tuple(rng.randint(0, 4) for _ in range(n))
            terms[exp] = rng.randint(1, 9)
        f = SparsePolynomial(n, terms)
        w = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n))
        face = face_restriction(f, w)
        values = {sum(a * b for a, b in zip(w, e)) for e in face.support()}
        assert len(values) == 1
        low = values.pop()
        assert all(
            sum(a * b for a, b in zip(w, e)) >= low for e in f.support()
        )


# -- independent grid-refinement oracle (2-D) -----------------------------------


def test_volume_matches_grid_oracle_smoke():
    from oracles import grid_area, lower_chain

    for text in ("x1^2 + x2^2", "x1^3 + x1*x2 + x2^3", "x1^4 + x1*x2^2 + x2^5"):
        f = parse_polynomial(text, 2)
        N = newton_polyhedron(f)
        vols = volumes(under_diagram_region(N))
        chain = lower_chain(f.support())
        a, b = chain[-1][0], chain[0][1]
        m = 64
        grid = grid_area(chain, m)
        assert abs(vols.dim_volume(2) - grid) <= Fraction(a + b, m)
        assert vols.dim_volume(1) == a + b
