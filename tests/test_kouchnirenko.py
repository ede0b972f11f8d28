"""Under-diagram regions, exact volumes, Milnor numbers, face restrictions."""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from newtoncert import cli, kouchnirenko, lp, morse, polytope
from newtoncert.gaussian import GaussianRational
from newtoncert.kouchnirenko import (
    INFINITE,
    UnboundedRegionError,
    UnderDiagramRegion,
    face_restriction,
    milnor_number,
    under_diagram_region,
    volumes,
)
from newtoncert.poly import SparsePolynomial, integer_determinant, is_morse, parse_polynomial
from newtoncert.polytope import LatticePolytope, newton_polyhedron, reduce_to_vertices
from oracles import (
    all_subsets_volumes,
    filtering_blocks,
    lp_vertices,
    plane_milnor,
    unsplit_milnor,
)

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
    # A1 with a non-convenient diagram: the Hessian [[0, 1], [1, 0]] is nonsingular
    assert milnor_number(parse_polynomial("x1*x2", 2)) == 1


def test_milnor_morse_from_the_hessian():
    """A nonsingular Hessian gives mu = 1 (the Morse lemma), complex and
    fractional coefficients and non-convenient diagrams included."""
    for text in ("(1+2i)*x1^2 + (3-1i)*x1*x2 + x1*x2^2", "1/3*x1^2 + 1/3*x2^2 + x1^5"):
        f = parse_polynomial(text, 2)
        assert is_morse(f)
        assert milnor_number(f) == 1


def test_no_degree_2_term_builds_no_hessian(monkeypatch):
    """milnor_number and morse share poly's Morse test (is_morse runs
    _is_morse after its degree scan), which answers False without a
    Hessian when f has no degree-2 term."""
    def no_hessian(f):
        raise AssertionError("hessian_at_zero called")

    monkeypatch.setattr("newtoncert.poly.hessian_at_zero", no_hessian)
    f = parse_polynomial("x1^3 + x2^3", 2)
    assert morse.is_morse is is_morse
    assert not is_morse(f)
    assert milnor_number(f) == 4


def test_milnor_sum_of_squares_is_fast():
    """The sum of squares splits into one-variable Morse blocks, without the
    2^n faces of the diagram simplex."""
    for n in range(1, 21):
        f = parse_polynomial(" + ".join(f"x{k}^2" for k in range(1, n + 1)), n)
        start = time.perf_counter()
        assert milnor_number(f) == 1
        assert time.perf_counter() - start < 0.1, n


@pytest.mark.parametrize("poly", [
    "x1^2 - 2*x1*x2 + x2^2 + x1^3",
    "2*x2^2 + 8*x1*x2 + 8*x1^2 + 8*x1^2*x2^3 + 5*x1^2*x2^4 + 2*x1^4*x2^4",
    "x1^2 + (0+2i)*x1*x2 - x2^2",  # (x1 + i x2)^2
])
def test_milnor_degenerate_diagram_is_an_error(poly, capsys):
    """The diagram gives 1, but the Hessian is singular, so mu >= 2."""
    f = parse_polynomial(poly, 2)
    assert not is_morse(f)
    with pytest.raises(ValueError, match="degenerate"):
        milnor_number(f)
    assert cli.run(["milnor", "--n", "2", "--poly", poly]) == 1
    assert "degenerate" in json.loads(capsys.readouterr().out)["error"]


def test_milnor_one_exactly_at_morse_points():
    """Seeded, n = 1..4: wherever milnor answers, mu = 1 exactly when the
    Hessian at the origin is nonsingular."""
    rng = random.Random(1616)
    box = {n: [e for e in itertools.product(range(4), repeat=n) if 2 <= sum(e) <= 4]
           for n in range(1, 5)}
    answers = Counter()
    for n in range(1, 5):
        for _ in range(100):
            picked = rng.sample(box[n], rng.randint(1, min(6, len(box[n]))))
            terms = {e: rng.randint(-9, 9) or 1 for e in picked}
            if rng.random() < 0.5:
                terms.update({tuple(rng.randint(2, 4) * (k == a) for k in range(n)): 1
                              for a in range(n)})
            f = SparsePolynomial(n, terms)
            try:
                mu = milnor_number(f)
            except ValueError as exc:
                assert "degenerate" in str(exc) and not is_morse(f), terms
                answers["degenerate"] += 1
                continue
            assert (mu == 1) == is_morse(f), (terms, mu)
            answers[mu == 1, mu == INFINITE] += 1
    assert answers[True, False] >= 20 and answers[False, False] >= 20, answers
    assert answers[False, True] >= 20, answers


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


GOLDEN_POOL = json.loads(
    (Path(__file__).parents[1] / "bench" / "golden" / "milnor_pool.json").read_text())["diagrams"]
DEGENERATE = ("the Newton diagram is degenerate: it gives mu = 1 at a singular Hessian, "
              "so mu >= 2")


def _diagrams():
    """Convenient polynomials of the pinned table, the golden pool and seeded
    supports with interior points (n = 2..5)."""
    for row in MILNOR_TABLE + GOLDEN_POOL:
        yield parse_polynomial(row["poly"], row["n"])
    rng = random.Random(2207)
    for n in [2, 3, 4, 5] * 6:
        yield SparsePolynomial(n, {p: 1 for p in _convenient_support(rng, n)})


def test_volumes_match_all_subsets_oracle():
    count = 0
    for f in _diagrams():
        region = under_diagram_region(newton_polyhedron(f))
        assert volumes(region) == all_subsets_volumes(region), f
        count += 1
    assert count == len(MILNOR_TABLE) + 36 + 24


def test_volumes_walk_only_faces_on_coordinate_hyperplanes(monkeypatch):
    """No determinant per simplex: its cone volume is the hull's |det|.  A
    distinct coordinate face with i points takes one determinant of the
    smaller of its i x i minor and the other points' (n - i) x (n - i)
    one, none when that is 1 x 1; the walk visits only vertex subsets whose
    points all have a zero coordinate, never the 2^n - 1 subsets of every
    simplex."""
    from newtoncert import kouchnirenko

    counts = Counter()

    def counting_determinant(rows):
        counts["determinants"] += 1
        return integer_determinant(rows)

    def counting_combinations(points, i):
        for face in itertools.combinations(points, i):
            counts["subsets"] += 1
            yield face

    monkeypatch.setattr(kouchnirenko, "integer_determinant", counting_determinant)
    monkeypatch.setattr(kouchnirenko, "combinations", counting_combinations)
    pruned = 0
    for f in _diagrams():
        region = under_diagram_region(newton_polyhedron(f))
        n = region.n
        assert region.cone_volumes == tuple(abs(integer_determinant(s[1:]))
                                            for s in region.simplices), f
        low_faces = set()
        walk = 0
        for simplex in region.simplices:
            points = sorted(simplex[1:])
            for i in range(1, n):
                for face in itertools.combinations(points, i):
                    if sum(any(p[k] for p in face) for k in range(n)) == i:
                        low_faces.add(face)
            walk += sum(math.comb(sum(0 in p for p in points), i) for i in range(1, n))
        counts.clear()
        assert volumes(region) == all_subsets_volumes(region), f
        assert counts["determinants"] == sum(min(len(face), n - len(face)) > 1
                                             for face in low_faces), f
        assert counts["subsets"] == walk, f
        pruned += walk < len(region.simplices) * (2 ** n - 1)
    assert pruned >= 60, pruned


def test_milnor_multiplies_over_blocks(monkeypatch):
    """A2 + D4 + E6 in disjoint variables, with a Morse block x6*x7 that has
    no pure power: mu = 2 * 4 * 6, one diagram per non-Morse block (E6 =
    x4^3 + x5^4 splits again)."""
    from newtoncert import kouchnirenko

    for n, text, mu in ((1, "x1^3", 2), (2, "x1^2*x2 + x2^3 + x1^4", 4), (2, "x1^3 + x2^4", 6)):
        assert milnor_number(parse_polynomial(text, n)) == mu
    diagram_calls = []
    diagram_milnor = kouchnirenko._diagram_milnor
    monkeypatch.setattr(kouchnirenko, "_diagram_milnor",
                        lambda g, a: diagram_calls.append(g.n_vars) or diagram_milnor(g, a))
    f = parse_polynomial("x1^3 + x2^2*x3 + x3^3 + x2^4 + x4^3 + x5^4 + x6*x7", 7)
    assert milnor_number(f) == 48
    assert sorted(diagram_calls) == [1, 1, 1, 2]


def test_milnor_morse_block_without_pure_power():
    """The x2*x3 block is Morse, so mu = 1 * 1 * 6; the whole diagram has no
    pure power of x3 and used to give "infinite"."""
    f = parse_polynomial("9*x1^2 + 9*x2*x3 + 5*x2^7 + 5*x4^7", 4)
    assert not is_morse(f)
    assert milnor_number(f) == 6


def test_milnor_infinite_block_decided_before_any_diagram(monkeypatch):
    """The D4 normal form x3^2*x4 + x4^3 has no pure power of x3: mu is
    infinite before the degenerate A2 block's diagram is built."""
    from newtoncert import kouchnirenko

    def no_diagram(N):
        raise AssertionError("under_diagram_region called")

    monkeypatch.setattr(kouchnirenko, "under_diagram_region", no_diagram)
    f = parse_polynomial("x1^2 - 2*x1*x2 + x2^2 + x1^3 + x3^2*x4 + x4^3", 4)
    assert milnor_number(f) == INFINITE


@pytest.mark.parametrize("n, poly", [
    (2, "x1^2 - 2*x1*x2 + x2^2 + x1^3"),
    (4, "x1^2 - 2*x1*x2 + x2^2 + x1^3 + x3^3 + x4^4"),
    (4, "x1^2 - 2*x1*x2 + x2^2 + x1^3 + x3*x4"),
])
def test_milnor_degenerate_block_is_an_error(n, poly, capsys):
    """The A2 example (x1 - x2)^2 + x1^3 gives 1 from its diagram at a
    singular Hessian, alone, next to x3^3 + x4^4 (the diagram of the whole
    f gave a wrong 6) or next to the Morse block x3*x4 (the whole f has no
    pure power of x3 and gave a wrong "infinite"): exit 1 with the same text."""
    assert cli.run(["milnor", "--n", str(n), "--poly", poly]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": DEGENERATE}


def test_milnor_sum_of_cubes_splits():
    f = parse_polynomial(" + ".join(f"x{k}^3" for k in range(1, 21)), 20)
    start = time.perf_counter()
    assert milnor_number(f) == 2 ** 20
    assert time.perf_counter() - start < 1.0


def _milnor_corpus_inputs():
    """(n, poly) of the benchmark's milnor-corpus workload, drawn by its own
    generator in a child process (bench/ has its own oracles module)."""
    code = ("import json, sys; sys.path[:0] = ['bench']; import workloads; "
            "print(json.dumps([item[:2] for _, _, items in "
            "workloads.MilnorCorpus().inputs(0) for item in items]))")
    root = Path(__file__).parents[1]
    out = subprocess.run([sys.executable, "-B", "-c", code], cwd=root, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_one_variable_block_is_its_least_exponent_minus_one(monkeypatch):
    """A non-Morse block in one variable has mu = a - 1 for its least
    exponent a, read off without a polytope: the same value as the volume
    formula on every such block of the milnor-corpus inputs and the table."""
    inputs = _milnor_corpus_inputs()
    assert len(inputs) == 108
    blocks = [g for n, text in inputs + [(r["n"], r["poly"]) for r in MILNOR_TABLE]
              for g in kouchnirenko._blocks(parse_polynomial(text, n))
              if g.n_vars == 1 and not is_morse(g)]
    assert len(blocks) >= 40
    expected = [volumes(under_diagram_region(newton_polyhedron(g))).dim_volume(1) - 1
                for g in blocks]

    def no_polytope(*args, **kwargs):
        raise AssertionError("a one-variable block built a polytope")

    monkeypatch.setattr(kouchnirenko, "LatticePolytope", no_polytope)
    assert [kouchnirenko._diagram_milnor(g, kouchnirenko._axis_intercepts(g._terms, 1))
            for g in blocks] == expected
    assert milnor_number(parse_polynomial("x1^5 + x1^9 + x2^4", 2)) == 12


def test_milnor_morse_input_builds_no_diagram(monkeypatch):
    """A Morse f gives 1 from its blocks' Hessians alone, connected, split,
    complex or at n = 40, with no hull."""
    from newtoncert import kouchnirenko

    def no_diagram(N):
        raise AssertionError("under_diagram_region called")

    monkeypatch.setattr(kouchnirenko, "under_diagram_region", no_diagram)
    for n, text in ((3, "x1^2 + x2^2 + x3^2"), (2, "x1*x2 + x1^3"),
                    (2, "(1+2i)*x1^2 + (3-1i)*x1*x2 + x1*x2^2"),
                    (4, "x1*x2 + x3*x4 + x1^5 + x3^7"),
                    (40, " + ".join(f"x{k}^2" for k in range(1, 41)))):
        assert milnor_number(parse_polynomial(text, n)) == 1


def test_no_hessian_larger_than_its_block(monkeypatch):
    """The Morse test runs per block, so the sum of squares and a cube takes
    31 Hessians of one variable, never the 31 x 31 one of the whole f."""
    from newtoncert import poly

    sizes = []
    hessian = poly.hessian_at_zero
    monkeypatch.setattr(poly, "hessian_at_zero",
                        lambda f: sizes.append(f.n_vars) or hessian(f))
    f = parse_polynomial(" + ".join([f"x{k}^2" for k in range(1, 31)] + ["x31^3"]), 31)
    assert milnor_number(f) == 2
    assert sizes and max(sizes) == 1, sizes


def test_morse_exactly_when_every_block_is():
    """Seeded, n = 1..5: the Hessian at 0 is block-diagonal over _blocks, so
    f is Morse iff each block is, with complex coefficients and variables
    in no term."""
    from newtoncert import kouchnirenko

    rng = random.Random(2323)
    coefficients = (1, -2, 3, Fraction(1, 3), GaussianRational(1, 2), GaussianRational(0, -1))
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 5)
        box = [e for e in itertools.product(range(4), repeat=n) if 2 <= sum(e) <= 3]
        picked = rng.sample(box, rng.randint(1, min(6, len(box))))
        terms = {e: rng.choice(coefficients) for e in picked}
        if rng.random() < 0.3:  # squares make Morse blocks common
            terms.update({tuple(2 * (k == a) for k in range(n)): rng.choice(coefficients)
                          for a in range(n)})
        f = SparsePolynomial(n, terms)
        blocks = kouchnirenko._blocks(f)
        assert is_morse(f) == all(is_morse(g) for g in blocks), f.render()
        seen[is_morse(f), len(blocks) > 1] += 1
        seen["absent"] += any(not any(e[k] for e in f._terms) for k in range(n))
    assert min(seen[True, True], seen[False, True], seen[True, False]) >= 20, seen
    assert seen["absent"] >= 20, seen


def test_blocks_match_the_filtering_reference():
    """Seeded, n = 1..6: the one-pass _blocks gives the blocks of the
    filtering reference, each equal to the block the checking constructor
    builds, with complex coefficients, variables in no term and a constant
    term, which belongs to no block."""
    rng = random.Random(2811)
    coefficients = (1, -2, Fraction(1, 3), GaussianRational(1, 2), GaussianRational(0, -1))
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(1, 6)
        terms = {tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)): rng.choice(coefficients)
                 for _ in range(rng.randint(1, 7))}
        f = SparsePolynomial(n, terms)
        blocks = kouchnirenko._blocks(f)
        assert blocks == filtering_blocks(f), f.render()
        assert all(g == SparsePolynomial(g.n_vars, g.terms) for g in blocks)
        split = len(blocks) > 1
        seen["split"] += split
        seen["constant"] += split and (0,) * n in f._terms
        seen["absent"] += split and any(not any(e[k] for e in f._terms) for k in range(n))
        seen["complex"] += split and any(not c.is_real for c in f._terms.values())
        seen[f"n={n}"] += 1
    assert len(seen) == 10 and min(seen.values()) >= 20, seen


def test_milnor_scans_degrees_once(monkeypatch):
    """milnor_number rejects constant and linear terms in one scan of f, and
    its blocks take poly._is_morse, which does not scan them again; the
    public is_morse still scans and raises."""
    from newtoncert import poly

    scans = []
    scan = poly._require_singular
    counted = lambda exps: scans.append(1) or scan(exps)  # noqa: E731
    monkeypatch.setattr(poly, "_require_singular", counted)
    monkeypatch.setattr(kouchnirenko, "_require_singular", counted)
    f = parse_polynomial("x1^2 + x2^3 + x3^4 + x4*x5 + x5^3", 5)
    assert len(kouchnirenko._blocks(f)) == 4
    assert milnor_number(f) == 1 * 2 * 3 * 1
    assert len(scans) == 1
    for text in ("x1^2 + x2^3 + 1", "x1^2 + x2^3 + x2"):
        g = parse_polynomial(text, 2)
        with pytest.raises(ValueError, match="constant|linear"):
            is_morse(g)
        with pytest.raises(ValueError, match="constant|linear"):
            milnor_number(g)


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
    # isolated singularity of weights w and degree d.  Every point but the
    # intercepts lies on their simplex, and the unsplit hull agrees.
    cases = ((2, 3, 6), (3, 4, 6), (4, 4, 4), (3, 3, 4, 6), (2, 4, 4, 4),
             (2, 3, 3, 4, 4), (3, 3, 3, 3, 3), (2, 2, 3, 3, 4, 4))
    for intercepts in cases:
        d, w, f = _weighted_facet(intercepts)
        assert len(f.support()) > len(w)
        expected = math.prod(Fraction(d, wi) - 1 for wi in w)
        assert milnor_number(f) == unsplit_milnor(f) == expected, intercepts


def _below_on_above(rng, n, parts):
    """A convenient support with intercepts a_k e_k, lcm L and weights
    w_k = L / a_k: points below the simplex <w, p> = L that join the axes
    of each part (and no two parts), mixed points on it and points above
    it, one of them on every axis.  No mixed point has degree 2, so the
    Hessian is singular.  Returns the support and which kinds it holds."""
    a = [rng.randint(4, 6 if n <= 4 else 5) for _ in range(n)]
    top = math.lcm(*a)
    w = [top // x for x in a]
    support = {tuple(a[k] * (j == k) for j in range(n)) for k in range(n)}
    for part in parts:
        for k, l in zip(part, part[1:]):  # 2/a_k + 1/a_l < 1: below
            support.add(tuple(2 * (j == k) + (j == l) for j in range(n)))
        for _ in range(rng.randint(0, 2) if len(part) > 1 else 0):
            p = [0] * n
            for k in rng.sample(part, rng.randint(2, len(part))):
                p[k] = rng.randint(1, a[k] - 1)
            if sum(map(int.__mul__, w, p)) < top and sum(p) > 2:
                support.add(tuple(p))
    on = [tuple(c * (j == k) + (top - w[k] * c) // w[l] * (j == l) for j in range(n))
          for k, l in itertools.permutations(range(n), 2) for c in range(1, a[k])
          if (top - w[k] * c) % w[l] == 0]
    support.update(rng.sample(on, min(len(on), rng.randint(0, 3))))
    support.add(tuple(x // 2 + 1 for x in a))  # joins every axis, above
    for _ in range(rng.randint(0, 3)):
        support.add(tuple(rng.randint(0, x) + x // 2 + 1 for x in a))
    mixed = [sum(map(int.__mul__, w, p)) for p in support if sum(c > 0 for c in p) > 1]
    return support, {"on": top in mixed, "mixed above": max(mixed) > top}


def _answer(milnor, f):
    try:
        return milnor(f)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def test_milnor_matches_the_unsplit_hull(monkeypatch):
    """Seeded, n = 2..6: split at the intercept simplex or not, milnor_number
    gives the unsplit hull's mu or its error type, on supports whose points
    below the simplex join all the axes (one hull in n variables), some of
    them (one hull per part of two or more) or none (no hull)."""
    dims = []
    build = kouchnirenko.under_diagram_region
    monkeypatch.setattr(kouchnirenko, "under_diagram_region",
                        lambda N: dims.append(N.n) or build(N))
    rng = random.Random(2727)
    seen = Counter()
    for n in (2, 3, 4, 5, 6):
        for case in range(12):
            axes = list(range(n))
            rng.shuffle(axes)
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1))) if case % 3 else []
            parts = [axes[i:j] for i, j in zip([0] + cuts, cuts + [n])]
            support, kinds = _below_on_above(rng, n, parts)
            f = SparsePolynomial(n, {p: rng.randint(1, 9) for p in support})
            dims.clear()
            mu = _answer(milnor_number, f)
            assert sorted(dims) == sorted(len(part) for part in parts if len(part) > 1), parts
            assert mu == _answer(unsplit_milnor, f), (n, sorted(support))
            shape = ("unsplit" if len(parts) == 1 else
                     "no hull" if all(len(part) == 1 for part in parts) else "split")
            seen[shape] += 1
            seen["on"] += kinds["on"]
            seen["mixed above"] += kinds["mixed above"]
            seen["mu > 1"] += isinstance(mu, int) and mu > 1
    assert min(seen["unsplit"], seen["split"], seen["no hull"], seen["on"]) >= 10, seen
    assert seen["mixed above"] == seen["unsplit"] + seen["split"] + seen["no hull"], seen
    assert seen["mu > 1"] == 60, seen


def test_split_diagrams_take_no_hull_and_no_determinant(monkeypatch):
    """A product term above the intercept simplex, or every other point on
    it, leaves a diagram that splits into one-variable factors."""
    def no_region(N):
        raise AssertionError("under_diagram_region called")

    def no_determinant(rows):
        raise AssertionError("integer_determinant called")

    monkeypatch.setattr(kouchnirenko, "under_diagram_region", no_region)
    monkeypatch.setattr(kouchnirenko, "integer_determinant", no_determinant)
    joined = " + ".join([f"x{k}^3" for k in range(1, 17)] + ["*".join(f"x{k}" for k in range(1, 17))])
    assert milnor_number(parse_polynomial(joined, 16)) == 2 ** 16
    d, w, f = _weighted_facet((3, 3, 4, 6))
    assert len(f.support()) > 4
    assert milnor_number(f) == math.prod(Fraction(d, wi) - 1 for wi in w) == 60


def test_unsplit_diagram_takes_one_hull_below_the_simplex(monkeypatch):
    """A golden n = 4 diagram whose points below the simplex join all four
    axes: one region, built from the intercepts and the points below."""
    regions = []
    build = kouchnirenko.under_diagram_region
    monkeypatch.setattr(kouchnirenko, "under_diagram_region",
                        lambda N: regions.append(N.generators) or build(N))
    checked = 0
    for row in GOLDEN_POOL:
        f = parse_polynomial(row["poly"], row["n"])
        if row["n"] != 4 or is_morse(f):
            continue
        a = kouchnirenko._axis_intercepts(f.support(), 4)
        top = math.lcm(*a)
        w = [top // x for x in a]
        intercepts = {tuple(a[k] * (j == k) for j in range(4)) for k in range(4)}
        below = {p for p in f.support() if sum(map(int.__mul__, w, p)) < top}
        if len(below) + 4 == len(f.support()):
            continue
        regions.clear()
        assert milnor_number(f) == row["mu"]
        assert len(regions) == 1 and set(regions[0]) <= below | intercepts, row["poly"]
        checked += 1
    assert checked >= 6, checked


PLANE_NORMAL_FORMS = (
    [(f"A{k}", {(k + 1, 0): 1, (0, 2): 1}, k) for k in range(1, 13)]
    + [(f"D{k}", {(2, 1): 1, (0, k - 1): 1}, k) for k in range(4, 13)]
    + [("E6", {(3, 0): 1, (0, 4): 1}, 6), ("E7", {(3, 0): 1, (1, 3): 1}, 7),
       ("E8", {(3, 0): 1, (0, 5): 1}, 8), ("X9", {(4, 0): 1, (2, 2): 1, (0, 4): 1}, 9),
       ("J10", {(3, 0): 1, (2, 2): 1, (0, 6): 1}, 10)])


def test_plane_oracle_on_normal_forms():
    """I_0(f_x, f_y) on A_k, D_k (k <= 12), E6-E8, X9 and J10; milnor agrees
    where the diagram is convenient (D_k and E7 have no pure power of x)."""
    for name, f, mu in PLANE_NORMAL_FORMS:
        assert plane_milnor(f) == mu, name
        convenient = any(not j for i, j in f) and any(not i for i, j in f)
        assert milnor_number(SparsePolynomial(2, f)) == (mu if convenient else INFINITE), name
    assert plane_milnor({(2, 0): 1, (1, 1): 2, (0, 2): 1}) is None  # (x + y)^2
    assert plane_milnor({(3, 0): Fraction(1, 3), (0, 2): Fraction(-1, 2)}) == 2
    # degenerate diagrams: nu <= mu (Kouchnirenko), or the diagram is refused
    squared = {(4, 0): 1, (2, 2): 2, (0, 4): 1, (5, 0): 1}  # (x^2 + y^2)^2 + x^5
    assert plane_milnor(squared) == 11 and milnor_number(SparsePolynomial(2, squared)) == 9
    a2 = {(2, 0): 1, (1, 1): -2, (0, 2): 1, (3, 0): 1}  # (x - y)^2 + x^3
    assert plane_milnor(a2) == 2
    with pytest.raises(ValueError, match="degenerate"):
        milnor_number(SparsePolynomial(2, a2))


def test_plane_oracle_matches_milnor_on_generic_curves():
    """Seeded convenient plane curves with large random coefficients: every
    mixed term on or above the segment between the intercepts (the diagram
    splits into two one-variable factors) or some below it (one hull)."""
    rng = random.Random(1313)
    seen = Counter()
    for case in range(80):
        a, b = rng.randint(4, 9), rng.randint(4, 9)
        f = {(a, 0): rng.randint(1, 10 ** 4), (0, b): rng.randint(1, 10 ** 4)}
        split = case % 2 == 0
        if not split:
            f[2, 1] = rng.randint(1, 10 ** 4)  # below: 2/a + 1/b < 1
        for _ in range(rng.randint(1, 5)):
            i, j = rng.randint(1, a), rng.randint(1, b)
            if i + j > 2 and (i * b + j * a >= a * b) == split:
                f[i, j] = rng.choice((-1, 1)) * rng.randint(1, 10 ** 4)
        mu = plane_milnor(f)
        assert milnor_number(SparsePolynomial(2, f)) == mu, f
        seen[split] += 1
        seen["split", split] += mu == (a - 1) * (b - 1)
    assert seen["split", True] == seen[True] == 40, seen
    assert seen["split", False] < 40, seen


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
    assert milnor_number(parse_polynomial("x1^2 + x1*x2", 2)) == 1  # Hessian det -1


def test_milnor_detects_a_dropped_simplex(capsys, monkeypatch):
    from newtoncert import kouchnirenko

    for row in MILNOR_TABLE[::8]:
        f = parse_polynomial(row["poly"], row["n"])
        full = under_diagram_region(newton_polyhedron(f))
        for k in range(len(full.simplices)):
            simplices = full.simplices[:k] + full.simplices[k + 1:]
            cones = full.cone_volumes[:k] + full.cone_volumes[k + 1:]
            dropped = UnderDiagramRegion(full.n, full.vertex_generators, full.axis_intercepts,
                                         simplices, cones)
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
