"""Parser, canonical printer, quadratic part, Hessian and determinant tests."""

import itertools
import random
from fractions import Fraction

import pytest

from newtoncert.gaussian import GR_ONE, GR_ZERO, GaussianRational
from newtoncert.poly import (
    ParseError,
    QuadraticForm,
    SparsePolynomial,
    determinant,
    hessian_at_zero,
    integer_determinant,
    monomial,
    parse_polynomial,
    quadratic_part,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


# -- parsing ----------------------------------------------------------------


def test_parse_basic():
    p = parse_polynomial("x1^2 + 2*x1*x2", 2)
    assert p.terms == {(2, 0): gr(1), (1, 1): gr(2)}


def test_parse_cancellation_gives_zero():
    p = parse_polynomial("x1*x2 - x1*x2", 2)
    assert p.is_zero()
    assert p.terms == {}


def test_parse_three_vars():
    p = parse_polynomial("3*x1^2*x2 - x3^2", 3)
    assert p.terms == {(2, 1, 0): gr(3), (0, 0, 2): gr(-1)}


def test_parse_rational_and_complex_coefficients():
    p = parse_polynomial("1/2*x1 + (2/3-1/5i)*x2 + (0+1i)", 2)
    assert p.coefficient((1, 0)) == gr(Fraction(1, 2))
    assert p.coefficient((0, 1)) == gr(Fraction(2, 3), Fraction(-1, 5))
    assert p.coefficient((0, 0)) == gr(0, 1)


def test_parse_leading_sign_and_repeated_factors():
    p = parse_polynomial("-x1*x1 + x2^2", 2)
    assert p.terms == {(2, 0): gr(-1), (0, 2): gr(1)}


def test_parse_constant_only():
    assert parse_polynomial("7", 3).terms == {(0, 0, 0): gr(7)}
    assert parse_polynomial("0", 2).is_zero()


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x1 + @", 2)
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_polynomial("x1 +", 2)
    with pytest.raises(ParseError):
        parse_polynomial("2x1", 2)  # missing '*'
    # '²' is a digit to str.isdigit but not to int(): a positioned ParseError
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x1^\u00b2 + x2^3", 2)
    assert str(exc.value) == "unexpected character '\u00b2' (at position 3)"
    assert exc.value.position == 3


def test_parse_variable_index_errors():
    with pytest.raises(ParseError, match="exceeds"):
        parse_polynomial("x3", 2)
    with pytest.raises(ParseError, match="exceeds"):
        parse_polynomial("x0 + x1", 2)


def test_parse_negative_exponent():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_polynomial("x1^-2", 2)


def test_parse_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("1/0*x1", 1)


# -- canonical printer ------------------------------------------------------


def _random_poly(rng, n_vars, complex_coeffs=False):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exp = tuple(rng.randint(0, 4) for _ in range(n_vars))
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if complex_coeffs else 0
        coeff = GaussianRational(re, im)
        if coeff:
            terms[exp] = coeff
    return SparsePolynomial(n_vars, terms)


def test_render_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        p = _random_poly(rng, n, complex_coeffs=rng.random() < 0.5)
        assert parse_polynomial(p.render(), n) == p, p.render()


def test_render_examples():
    p = parse_polynomial("x1^2 + 2*x1*x2", 2)
    assert p.render() == "2*x1*x2 + x1^2"
    assert parse_polynomial("0", 2).render() == "0"
    q = SparsePolynomial(2, {(0, 2): gr(-1), (1, 0): gr(0, 1)})
    assert q.render() == "-x2^2 + (0+1i)*x1"


# -- arithmetic helpers ------------------------------------------------------


def test_add_mul_calc():
    x = monomial(2, (1, 0))
    y = monomial(2, (0, 1))
    p = (x + y) * (x + y)
    assert p.terms == {(2, 0): gr(1), (1, 1): gr(2), (0, 2): gr(1)}


def _merged(pairs):
    """Dict oracle: sum the coefficients of each exponent, drop zero sums."""
    out = {}
    for exp, c in pairs:
        out[exp] = out.get(exp, GR_ZERO) + c
    return {exp: c for exp, c in out.items() if c}


def test_like_terms_combined_once():
    """The constructor combines like terms, for the parser, + and * alike."""
    e = (1, 0)
    assert SparsePolynomial(2, [(e, 1), (e, -1), (e, 2)]).terms == {e: gr(2)}
    x1, x2 = monomial(2, (1, 0)), monomial(2, (0, 1))
    assert (x1 + x2) * (x1 - x2) == parse_polynomial("x1^2 - x2^2", 2)
    assert (x1 + x2) + (-x1 - x2) == SparsePolynomial(2)
    assert parse_polynomial("x1 + x2 - x1", 2).terms == {(0, 1): GR_ONE}
    assert parse_polynomial("x1 - x1", 2).is_zero()
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 3)
        pairs = [[(tuple(rng.randint(0, 2) for _ in range(n)),
                   gr(rng.randint(-2, 2), rng.randint(-1, 1))) for _ in range(rng.randint(0, 8))]
                 for _ in range(2)]
        p, q = (SparsePolynomial(n, ps) for ps in pairs)
        assert p.terms == _merged(pairs[0])
        assert (p + q).terms == _merged(pairs[0] + pairs[1])
        assert (p * q).terms == _merged(
            (tuple(map(sum, zip(ea, eb))), ca * cb)
            for ea, ca in p.terms.items() for eb, cb in q.terms.items())
        assert parse_polynomial(p.render(), n) == p


# -- quadratic part and Hessian ---------------------------------------------


def test_quadratic_part_examples():
    b = quadratic_part(parse_polynomial("x1*x2 + x2^3", 2))
    assert b.rows == ((GR_ZERO, gr(Fraction(1, 2))), (gr(Fraction(1, 2)), GR_ZERO))
    b2 = quadratic_part(parse_polynomial("x1^2 + x2^2", 2))
    assert b2.rows == ((GR_ONE, GR_ZERO), (GR_ZERO, GR_ONE))
    b3 = quadratic_part(parse_polynomial("x1^3 + x2^3", 2))
    assert all(v == GR_ZERO for row in b3.rows for v in row)


def test_quadratic_part_rejects_constant_and_linear():
    with pytest.raises(ValueError, match="constant"):
        quadratic_part(parse_polynomial("1 + x1^2", 1))
    with pytest.raises(ValueError, match="linear"):
        quadratic_part(parse_polynomial("x1 + x1^2", 1))


def test_hessian_examples():
    h = hessian_at_zero(parse_polynomial("x1*x2", 2))
    assert h.rows == ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO))
    h2 = hessian_at_zero(parse_polynomial("x1^2 + x2^2", 2))
    assert h2.rows == ((gr(2), GR_ZERO), (GR_ZERO, gr(2)))
    h3 = hessian_at_zero(parse_polynomial("x1^2 + x1*x2 + x2^3", 2))
    assert h3.rows == ((gr(2), GR_ONE), (GR_ONE, GR_ZERO))
    assert determinant(h3) == gr(-1)


def test_hessian_is_twice_quadratic_part_random(monkeypatch):
    """The Hessian is filled from the degree-2 terms in one pass, without
    quadratic_part, and equals its double on seeded forms with complex and
    fractional coefficients plus higher terms, sparse (n = 1..4) and dense
    (n = 1..8)."""
    from newtoncert import poly

    rng = random.Random(99)
    cases = []
    for _ in range(100):
        n = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(exp) < 2:
                continue
            terms[exp] = gr(rng.randint(-5, 5), rng.randint(-5, 5))
        cases.append(SparsePolynomial(n, terms))
    for n in range(1, 9):
        for _ in range(8):
            terms = {tuple((k == i) + (k == j) for k in range(n)):
                     gr(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-3, 3))
                     for i in range(n) for j in range(i, n) if rng.random() < 0.7}
            terms[tuple(rng.randint(0, 3) for _ in range(n - 1)) + (3,)] = gr(1, 1)
            cases.append(SparsePolynomial(n, terms))
    parts = [quadratic_part(f) for f in cases]

    def no_quadratic_part(f):
        raise AssertionError("quadratic_part called")

    monkeypatch.setattr(poly, "quadratic_part", no_quadratic_part)
    two = gr(2)
    for f, b in zip(cases, parts):
        h = hessian_at_zero(f)
        n = f.n_vars
        assert h == QuadraticForm(n, tuple(tuple(two * v for v in row) for row in b.rows))
        assert determinant(h) == gr(2**n) * determinant(b)
        assert bool(determinant(h)) == bool(determinant(b))


# -- determinants ------------------------------------------------------------


def _det_expansion(rows, one=GR_ONE):
    """Naive permutation-expansion oracle over the ring of `one`."""
    n = len(rows)
    total = one - one
    for sigma in itertools.permutations(range(n)):
        if not all(rows[i][sigma[i]] for i in range(n)):
            continue  # a zero term
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            k, length = start, 0
            while not seen[k]:
                seen[k] = True
                k = sigma[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = one
        for i in range(n):
            prod = prod * rows[i][sigma[i]]
        total = total + (prod if sign > 0 else -prod)
    return total


def test_determinant_examples():
    assert determinant(QuadraticForm(2, ((gr(0), gr(1)), (gr(1), gr(0))))) == gr(-1)
    eye = QuadraticForm(3, tuple(tuple(gr(int(i == j)) for j in range(3)) for i in range(3)))
    assert determinant(eye) == GR_ONE
    ones = QuadraticForm(3, tuple(tuple(gr(int(i != j)) for j in range(3)) for i in range(3)))
    # brute-force oracle value, frozen: 2
    assert _det_expansion(ones.rows) == gr(2)
    assert determinant(ones) == gr(2)


def test_determinant_matches_expansion_oracle():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[GR_ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = GaussianRational(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                )
                rows[i][j] = rows[j][i] = v
        form = QuadraticForm(n, tuple(tuple(r) for r in rows))
        assert determinant(form) == _det_expansion(form.rows)
    # real rational forms, whose denominators are cleared before the int
    # loop, also against the loop on their Q(i) entries; an index repeated
    # by the draw repeats a row, so the form is singular
    # (QuadraticForm rejects n = 0)
    singular = 0
    for _ in range(80):
        n = rng.randint(1, 7)
        m = n if rng.random() < 0.6 else rng.randint(1, n)
        a = [[GR_ZERO] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                if rng.random() < 0.7:
                    a[i][j] = a[j][i] = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        idx = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
        rng.shuffle(idx)
        form = QuadraticForm(n, tuple(tuple(a[p][q] for q in idx) for p in idx))
        det = determinant(form)
        assert type(det) is GaussianRational
        assert det == _det_expansion(form.rows) == GR_ZERO + integer_determinant(form.rows)
        singular += not det
    assert singular >= 20


def test_integer_determinant_empty_matrix():
    assert integer_determinant([]) == 1


def test_integer_determinant_matches_general_path():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-20, 20)
        form = QuadraticForm(n, tuple(tuple(gr(v) for v in row) for row in rows))
        assert determinant(form) == gr(integer_determinant(rows))
        assert gr(integer_determinant(rows)) == _det_expansion(form.rows)
    # sparse, non-symmetric: rows whose pivot-column entry is 0 skip the
    # multiplier product, zero leading pivots force row swaps; each matrix
    # runs again with Gaussian-rational entries on the same zero pattern
    swaps = zero_columns = nonzero = 0
    for _ in range(150):
        n = rng.randint(0, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for cell in rng.sample(range(n * n), (n * n + 1) // 2 + rng.randint(0, n * n // 4)):
            rows[cell // n][cell % n] = 0
        if n and rng.random() < 0.3:
            rows[0][0] = 0
        if n > 1 and rng.random() < 0.2:
            c = rng.randrange(n)
            for row in rows:
                row[c] = 0
        det = integer_determinant(rows)
        assert det == _det_expansion(rows, 1)
        scaled = [[gr(Fraction(v, rng.randint(1, 3)), rng.randint(-2, 2)) if v else GR_ZERO
                   for v in row] for row in rows]
        assert GR_ZERO + integer_determinant(scaled) == _det_expansion(scaled)
        nonzero += det != 0
        swaps += n > 1 and det != 0 and rows[0][0] == 0
        zero_columns += n > 1 and not all(any(col) for col in zip(*rows))
    assert min(nonzero, swaps, zero_columns) >= 10


def test_quadratic_form_validation():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(2, ((gr(1), gr(2)), (gr(3), gr(1))))


def test_form_as_polynomial_roundtrip():
    f = parse_polynomial("x1^2 + 3*x1*x2 - x2^2 + x2^4", 2)
    b = quadratic_part(f)
    assert quadratic_part(b.as_polynomial()) == b
