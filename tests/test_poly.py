"""Parser, canonical printer, quadratic part, Hessian and determinant tests."""

import itertools
import json
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import dense_bareiss

from newtoncert import poly
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
from newtoncert.polytope import LatticePolytope, pair_point
from newtoncert.stencil import certify, sample_entries, stencil_of


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


# -- one pattern match per term, _Parser as the reference --------------------


def _reference(text, n):
    """The recursive-descent parser's terms, or the ParseError it raises."""
    try:
        return poly._Parser(poly._tokenize(text), n).parse()
    except ParseError as exc:
        return exc


def test_term_pattern_classes_are_the_tokenizers():
    """\\s and \\d in _TERM accept exactly what the tokenizer skips as space
    and reads as digits, over all of Unicode."""
    chars = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]
    assert re.findall(r"\d", chars) == [c for c in chars if c.isdecimal()]


SPACES = " " * 100_000
# "_" stands for SPACES; a text with "@" must fail at the "@"
LONG_RUNS = [
    "_x1^2 + x2^2", "(_1+2i)*x1", "(-_1_+_2_i_)*x1", "1_/_2*x1", "(1/2_-_1_/_3i)*x1",
    "x1_+_x2", "x1_-_x2", "_-_x1 + x2", "3_*_x1", "x1_*_x2", "x1_^_2 + x2", "x_1", "x1^2_",
    "_@", "x1_@", "x1 +_@", "(_@", "(-_@", "(1_@", "(1+_@", "(1+2_@", "(1+2i_@", "1_/_@",
    "2_*_@", "x1_^_@", "x_@", "-_@", "x1_x2_@",
]


@pytest.mark.parametrize("template", LONG_RUNS)
def test_parse_is_linear_in_whitespace(template):
    """100,000 spaces at each place a token may be followed by whitespace:
    the same answer as with one space, or the ParseError at the stray
    character, each in well under a second (a pattern with two adjacent
    \\s* would backtrack for minutes)."""
    text = template.replace("_", SPACES)
    start = time.perf_counter()
    if "@" in template:
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, 2)
        assert exc.value.position == text.index("@")
    else:
        assert parse_polynomial(text, 2) == parse_polynomial(template.replace("_", " "), 2)
    assert time.perf_counter() - start < 1.0


def _int_text(rng, lo, hi):
    """An integer in lo..hi, and now and then one outside it."""
    text = str(rng.randint(lo, hi) if rng.random() < 0.97 else rng.choice((0, hi + 1)))
    roll = rng.random()
    if roll < 0.05:
        return "0" + text
    if roll < 0.08:  # ARABIC-INDIC digits: decimal to int() and to \d
        return "".join(chr(0x660 + int(d)) for d in text)
    return text


def _rational_tokens(rng):
    num = [_int_text(rng, 0, 12)]
    return num + ["/", _int_text(rng, 1, 9)] if rng.random() < 0.3 else num


def _term_tokens(rng, n):
    coef = []
    if rng.random() < 0.6:
        if rng.random() < 0.35:
            coef = ["("] + ["-"] * (rng.random() < 0.3) + _rational_tokens(rng)
            if rng.random() < 0.8:
                coef += [rng.choice("+-")] + _rational_tokens(rng) + ["i"]
            coef += [")"]
        else:
            coef = _rational_tokens(rng)
    factors = []
    for _ in range(rng.randint(0 if coef else 1, 3)):
        factor = ["x", _int_text(rng, 1, n)]
        if rng.random() < 0.5:
            factor += ["^", _int_text(rng, 0, 5)]
        factors.append(factor)
    tokens = coef + ["*"] * bool(coef and factors)
    for k, factor in enumerate(factors):
        tokens += ["*"] * bool(k) + factor
    return tokens


def _near_valid_text(rng, n):
    """A rendering of random terms with random whitespace between tokens,
    then 0-2 random character edits."""
    tokens = [rng.choice("+-")] * (rng.random() < 0.3) + _term_tokens(rng, n)
    for _ in range(rng.randint(0, 3)):
        tokens += [rng.choice("+-")] + _term_tokens(rng, n)
    space = ("", "", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003 ")
    chars = list("".join(tok + rng.choice(space) for tok in tokens))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        k = rng.randrange(len(chars) + 1)
        edit = rng.choice("x i+-*/^()0129@\u00b2\u0663\u00a0X.")
        roll = rng.random()
        if roll < 0.4 or k == len(chars):
            chars.insert(k, edit)
        elif roll < 0.7:
            del chars[k]
        else:
            chars[k] = edit
    return "".join(chars)


def test_term_pattern_reads_what_the_parser_reads():
    """Seeded: on 20,000 near-valid texts, _match_terms returns the parser's
    terms exactly when _Parser accepts the text, and parse_polynomial raises
    _Parser's ParseError, text and position, when it does not."""
    rng = random.Random(2810)
    seen = Counter()
    for _ in range(20_000):
        n = rng.randint(1, 4)
        text = _near_valid_text(rng, n)
        expected = _reference(text, n)
        terms = poly._match_terms(text, n)
        if isinstance(expected, ParseError):
            assert terms is None, text
            with pytest.raises(ParseError) as exc:
                parse_polynomial(text, n)
            assert (str(exc.value), exc.value.position) == (str(expected), expected.position)
            seen["invalid"] += 1
        else:
            assert terms == expected, text
            assert parse_polynomial(text, n) == SparsePolynomial(n, expected)
            seen["valid"] += 1
            seen["complex"] += "i" in text
    assert min(seen.values()) >= 4_000, seen


def test_valid_text_takes_no_tokenizer(monkeypatch):
    """Every valid text of the pinned Milnor table, the golden CLI corpus and
    500 renderings is read by _TERM matches alone."""
    root = Path(__file__).resolve().parents[1]
    texts = [(row["n"], row["poly"])
             for row in json.loads((root / "tests" / "milnor_table.json").read_text())]
    for entry in json.loads((root / "bench" / "golden" / "cli_pool.json").read_text())["requests"]:
        argv = entry["argv"]
        if "--poly" in argv and {"milnor", "morse", "newton", "face"} & set(argv):
            text, n = argv[argv.index("--poly") + 1], int(argv[argv.index("--n") + 1])
            if not isinstance(_reference(text, n), ParseError):
                texts.append((n, text))
    rng = random.Random(2812)
    for _ in range(500):
        n = rng.randint(1, 4)
        texts.append((n, _random_poly(rng, n, complex_coeffs=rng.random() < 0.5).render()))
    expected = [SparsePolynomial(n, _reference(text, n)) for n, text in texts]

    def no_tokenizer(text):
        raise AssertionError(f"valid text sent to the tokenizer: {text!r}")

    monkeypatch.setattr(poly, "_tokenize", no_tokenizer)
    assert len(texts) > 580
    assert [parse_polynomial(text, n) for n, text in texts] == expected


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
    """_combine merges like terms, for the constructor, the parser, + and *."""
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
    # sparse, non-symmetric: rows whose pivot-column entry is 0 are left
    # stale, zero leading pivots force row swaps, zero columns end the loop
    # early; each matrix runs again with Gaussian-rational entries on the
    # same zero pattern
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


def _closure_stencil_matrices(rng):
    """(matrix, has a perfect matching) drawn as the --seed evidence draws
    them: a support of pair points in 2Delta, either a permutation's cycles
    or pairs confined by a Hall violation (rows R see only columns C,
    |C| < |R|), plus random pairs; its stencil; seeded entries."""
    for n in range(2, 13):
        for verdict in ("matching", "cover") * 8:
            idx = list(range(n))
            rng.shuffle(idx)
            density = rng.choice((0.15, 0.25, 0.6, 0.75))
            if verdict == "matching":
                pairs = {(min(a, b), max(a, b)) for a, b in zip(idx, idx[1:] + idx[:1])}
                pool = list(itertools.combinations_with_replacement(range(n), 2))
            else:
                r = rng.randint(1, (n + 1) // 2)
                R, C = set(idx[:r]), set(idx[r:2 * r - 1])
                pool = [(i, j) for i, j in itertools.combinations_with_replacement(range(n), 2)
                        if not {i, j} & R or (i in R and j in C) or (j in R and i in C)]
                pairs = set()
            pairs |= {p for p in pool if rng.random() < density}
            if not pairs:
                pairs.add(rng.choice(pool))
            M = LatticePolytope(n, tuple(sorted(pair_point(n, i, j) for i, j in pairs)))
            matrix = sample_entries(stencil_of(M), rng.randrange(2**31))
            assert certify(M).kind == verdict
            yield matrix, verdict == "matching"


def _permuted(rng, rows):
    """rows with their rows and their columns shuffled."""
    n = len(rows)
    p, q = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[rows[p[i]][q[j]] for j in range(n)] for i in range(n)]


def _pattern_matrices(rng):
    """Zero patterns that the sparse loop treats differently from a dense one."""
    def draw():
        return rng.choice([-1, 1]) * rng.randint(1, 10**6)

    for n in range(1, 11):
        # Hall violation: k columns nonzero in only k - 1 rows
        k = rng.randint(1, n)
        rows = [[draw() if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
        for i in range(k - 1, n):
            for j in range(k):
                rows[i][j] = 0
        yield _permuted(rng, rows)
        # block-diagonal and block-triangular
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        block = [next(b for b, c in enumerate(cuts + [n]) if i < c) for i in range(n)]
        for upper in (False, True):
            yield _permuted(rng, [[draw() if block[i] == block[j]
                                   or (upper and block[i] < block[j] and rng.random() < 0.5)
                                   else 0 for j in range(n)] for i in range(n)])
        # diagonal and tridiagonal, as given
        yield [[draw() if i == j else 0 for j in range(n)] for i in range(n)]
        yield [[draw() if abs(i - j) <= 1 else 0 for j in range(n)] for i in range(n)]
        # two cyclic diagonals: every column holds two nonzeros, so the
        # columns keep their order; step 0 updates row n - d, whose entries
        # in columns 1..d-1 are 0, so that row stays stale until step d
        for d in range(2, n):
            yield [[draw() if j in (i, (i + d) % n) else 0 for j in range(n)] for i in range(n)]


def _as_gaussian(rng, rows):
    return [[gr(Fraction(v, rng.randint(1, 3)), rng.randint(-2, 2)) if v else GR_ZERO
             for v in row] for row in rows]


def test_integer_determinant_matches_dense_bareiss():
    """The lazy sparse loop against the dense loop it replaced, and against
    the permutation expansion up to n = 7, on int and Q(i) entries.  A
    singular matrix gives the int 0 either way."""
    rng = random.Random(2025)
    verdicts = Counter()
    for rows, matching in _closure_stencil_matrices(rng):
        det = integer_determinant(rows)
        assert det == dense_bareiss(rows)
        assert (det != 0) == matching
        if len(rows) <= 7:
            assert det == _det_expansion(rows, 1)
        verdicts[matching] += 1
    assert verdicts == {True: 88, False: 88}
    singular = 0
    for rows in _pattern_matrices(rng):
        det = integer_determinant(rows)
        assert det == dense_bareiss(rows)
        if len(rows) <= 7:
            assert det == _det_expansion(rows, 1)
        g = _as_gaussian(rng, rows)
        gdet = integer_determinant(g)
        assert GR_ZERO + gdet == GR_ZERO + dense_bareiss(g)
        if len(rows) <= 7:
            assert GR_ZERO + gdet == _det_expansion(g)
        if not det:
            assert type(det) is int and type(gdet) is int and gdet == 0
            singular += 1
    assert singular >= 10
    assert integer_determinant([]) == 1


def _entry_updates(rows):
    """integer_determinant(rows) and the number of entries it wrote, counted
    as the exact quotients // taken on its entries (one per entry written)."""
    updates = [0]

    class Counted(int):
        def __mul__(self, other):
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __sub__(self, other):
            return Counted(int(self) - int(other))

        def __floordiv__(self, other):
            updates[0] += 1
            return Counted(int(self) // int(other))

        def __neg__(self):
            return Counted(-int(self))

    det = integer_determinant([[Counted(v) for v in row] for row in rows])
    return det, updates[0]


def test_integer_determinant_work_is_sparse():
    """Entry updates, with no clock: a dense elimination writes about n^3/3
    entries on any of these."""
    rng = random.Random(7)
    n = 200
    diagonal = [[rng.randint(1, 9) if i == j else 0 for j in range(n)] for i in range(n)]
    det, updates = _entry_updates(diagonal)
    assert det == math.prod(diagonal[i][i] for i in range(n))
    assert updates < n  # each pivot scaled once, no row updated
    tridiagonal = [[rng.randint(1, 9) if abs(i - j) <= 1 else 0 for j in range(n)]
                   for i in range(n)]
    det, updates = _entry_updates(tridiagonal)
    assert det == dense_bareiss(tridiagonal)
    assert updates <= 2 * n * n  # O(n) row updates of at most n entries each
    m = 30
    zero_column = [[rng.randint(1, 9) if j != 17 else 0 for j in range(m)] for _ in range(m)]
    assert _entry_updates(zero_column) == (0, 0)


def test_quadratic_form_validation():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(2, ((gr(1), gr(2)), (gr(3), gr(1))))


def test_form_as_polynomial_roundtrip():
    f = parse_polynomial("x1^2 + 3*x1*x2 - x2^2 + x2^4", 2)
    b = quadratic_part(f)
    assert quadratic_part(b.as_polynomial()) == b
