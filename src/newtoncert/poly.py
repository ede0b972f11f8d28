"""Sparse multivariate polynomials with exact Gaussian-rational coefficients.

A polynomial in n variables is a finite map from exponent tuples to nonzero
GaussianRational coefficients:

    x1^2*x2 + 3  ->  {(2, 1): 1, (0, 0): 3}      (n_vars = 2)

The zero polynomial has an empty term map.  Variables are written x1..xn
in the text grammar:

    poly   := term (('+'|'-') term)*
    term   := [coef '*'] factor ('*' factor)*   | coef
    factor := 'x' INT ['^' INT]
    coef   := INT ['/' INT] | '(' INT ['/' INT] ['+'|'-' INT ['/' INT] 'i'] ')'

The parser additionally accepts a leading sign on the first term and a
signed real part inside parenthesised complex coefficients, so that every
canonical rendering parses back to the same polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from ._record import Record
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, exact_fraction

Exponent = Tuple[int, ...]


class ParseError(ValueError):
    """Syntax or validity error in polynomial text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _coerce_coeff(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(exact_fraction(value))


class SparsePolynomial(Record):
    """Immutable sparse polynomial; zero coefficients are never stored.

    terms maps exponents to coefficients or lists (exponent, coefficient)
    pairs; like terms are combined here and nowhere else."""

    __match_args__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: Union[Mapping, Iterable[Tuple]] = ()):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        clean: Dict[Exponent, GaussianRational] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != n_vars:
                raise ValueError(f"exponent {exp} has wrong length for n_vars={n_vars}")
            if any(not isinstance(e, int) or e < 0 for e in exp):
                raise ValueError(f"exponent {exp} must consist of nonnegative integers")
            c = _coerce_coeff(coeff)
            if exp in clean:
                c = clean[exp] + c
            if c:
                clean[exp] = c
            else:
                clean.pop(exp, None)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "_terms", clean)

    @property
    def terms(self) -> Dict[Exponent, GaussianRational]:
        return dict(self._terms)

    def support(self) -> Tuple[Exponent, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, exp: Exponent) -> GaussianRational:
        return self._terms.get(tuple(exp), GR_ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __hash__(self):
        # The term dict is unhashable; equal polynomials have equal term sets.
        return hash((self.n_vars, frozenset(self._terms.items())))

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        return SparsePolynomial(self.n_vars, [*self._terms.items(), *other._terms.items()])

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.n_vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        return SparsePolynomial(self.n_vars, [
            (tuple(a + b for a, b in zip(ea, eb)), ca * cb)
            for ea, ca in self._terms.items() for eb, cb in other._terms.items()])

    def render(self) -> str:
        """Canonical text form: terms in lexicographic exponent order."""
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms):
            sign, body = _render_term(exp, self._terms[exp])
            if not parts:
                parts.append(body if sign > 0 else "-" + body)
            else:
                parts.append((" + " if sign > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"SparsePolynomial({self.n_vars}, {self.render()!r})"


def monomial(n_vars: int, exp: Exponent, coeff=1) -> SparsePolynomial:
    """The single-term polynomial coeff * x^exp."""
    return SparsePolynomial(n_vars, {tuple(exp): coeff})


def _render_term(exp: Exponent, c: GaussianRational):
    factors = "*".join(
        f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exp) if e
    )
    if c.is_real:
        sign = 1 if c.re > 0 else -1
        mag = abs(c.re)
        if factors and mag == 1:
            return sign, factors
        body = str(mag) + (f"*{factors}" if factors else "")
        return sign, body
    imag_sign = "+" if c.im > 0 else "-"
    coef = f"({c.re}{imag_sign}{abs(c.im)}i)"
    return 1, coef + (f"*{factors}" if factors else "")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SYMBOLS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            tokens.append(("int", int(text[start:pos]), start))
            continue
        if ch == "x":
            tokens.append(("x", None, pos))
            pos += 1
            continue
        if ch == "i":
            tokens.append(("i", None, pos))
            pos += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, None, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, n_vars: int):
        self.tokens = tokens
        self.idx = 0
        self.n_vars = n_vars

    def peek(self):
        return self.tokens[self.idx][0]

    def pos(self):
        return self.tokens[self.idx][2]

    def take(self, kind):
        tok = self.tokens[self.idx]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.idx += 1
        return tok

    def parse(self) -> List[Tuple[Exponent, GaussianRational]]:
        """The (exponent, signed coefficient) pair of each term, in order."""
        terms = []
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take(self.peek())[0] == "-" else 1
        while True:
            coeff, exp = self.parse_term()
            terms.append((exp, coeff if sign > 0 else -coeff))
            if self.peek() == "end":
                return terms
            op = self.peek()
            if op not in ("+", "-"):
                raise ParseError(f"expected '+' or '-', found {op!r}", self.pos())
            self.take(op)
            sign = -1 if op == "-" else 1

    def parse_term(self):
        exps = [0] * self.n_vars
        coeff = GR_ONE
        if self.peek() in ("int", "("):
            coeff = self.parse_coef()
            if self.peek() != "*":
                if self.peek() == "x":
                    raise ParseError("expected '*' between coefficient and variable", self.pos())
                return coeff, tuple(exps)
            self.take("*")
            self.parse_factor(exps)
        else:
            self.parse_factor(exps)
        while self.peek() == "*":
            self.take("*")
            self.parse_factor(exps)
        return coeff, tuple(exps)

    def parse_factor(self, exps):
        self.take("x")
        _, index, pos = self.take("int")
        if index < 1 or index > self.n_vars:
            raise ParseError(f"variable index {index} exceeds n_vars={self.n_vars}", pos)
        power = 1
        if self.peek() == "^":
            self.take("^")
            if self.peek() == "-":
                raise ParseError("negative exponent", self.pos())
            _, power, _ = self.take("int")
        exps[index - 1] += power

    def parse_rational(self) -> Fraction:
        _, num, _ = self.take("int")
        if self.peek() == "/":
            self.take("/")
            _, den, pos = self.take("int")
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(num, den)
        return Fraction(num)

    def parse_coef(self) -> GaussianRational:
        if self.peek() == "int":
            return GaussianRational(self.parse_rational())
        self.take("(")
        neg = False
        if self.peek() == "-":
            self.take("-")
            neg = True
        re = self.parse_rational()
        if neg:
            re = -re
        im = Fraction(0)
        if self.peek() in ("+", "-"):
            s = -1 if self.take(self.peek())[0] == "-" else 1
            mag = self.parse_rational()
            self.take("i")
            im = s * mag
        self.take(")")
        return GaussianRational(re, im)


def parse_polynomial(text: str, n_vars: int) -> SparsePolynomial:
    """Parse polynomial text in variables x1..xn; combines like terms."""
    if n_vars < 1:
        raise ValueError("n_vars must be positive")
    parser = _Parser(_tokenize(text), n_vars)
    return SparsePolynomial(n_vars, parser.parse())


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


class QuadraticForm(Record):
    """A symmetric n x n matrix of GaussianRational entries."""

    __match_args__ = ("n", "rows")

    def __init__(self, n: int, rows: Tuple[Tuple[GaussianRational, ...], ...]):
        if n < 1:
            raise ValueError("n must be positive")
        rows = tuple(tuple(_coerce_coeff(v) for v in row) for row in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix must be n x n")
        for i in range(n):
            for j in range(i):
                if rows[i][j] is not rows[j][i] and rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i}, {j})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def as_polynomial(self) -> SparsePolynomial:
        """The quadratic polynomial sum_ij B_ij x_i x_j."""
        terms: Dict[Exponent, GaussianRational] = {}
        for i in range(self.n):
            for j in range(i, self.n):
                c = self.rows[i][j]
                if not c:
                    continue
                exp = [0] * self.n
                exp[i] += 1
                exp[j] += 1
                terms[tuple(exp)] = c if i == j else c + c
        return SparsePolynomial(self.n, terms)


def _require_singular(exponents: Iterable[Exponent]):
    """Reject a constant or linear exponent: no singularity at the origin."""
    degrees = {sum(exp) for exp in exponents}
    if 0 in degrees:
        raise ValueError("nonzero constant term: input does not vanish at 0")
    if 1 in degrees:
        raise ValueError("nonzero linear term: input has no singularity at 0")


def quadratic_part(f: SparsePolynomial) -> QuadraticForm:
    """The symmetric form B with B(x) equal to the degree-2 part of f.

    Diagonal entries are the x_i^2 coefficients; off-diagonal entries are
    half the x_i*x_j coefficient, so that sum_ij B_ij x_i x_j reproduces f.
    B is half the Hessian at the origin.
    """
    _require_singular(f._terms)
    h = hessian_at_zero(f)
    return QuadraticForm(h.n, tuple(tuple(v / 2 for v in row) for row in h.rows))


def hessian_at_zero(f: SparsePolynomial) -> QuadraticForm:
    """The Hessian matrix of f at the origin (equals 2 * quadratic_part).

    Filled in one pass over the degree-2 terms: 2c on the diagonal for
    c x_i^2 and c at (i, j) and (j, i) for c x_i x_j.  Lower-degree terms
    are not checked here; quadratic_part and is_morse reject them first.
    """
    n = f.n_vars
    rows = [[GR_ZERO] * n for _ in range(n)]
    for exp, c in f._terms.items():
        if sum(exp) != 2:
            continue
        idx = [i for i, e in enumerate(exp) if e]
        if len(idx) == 1:
            rows[idx[0]][idx[0]] = c + c
        else:
            i, j = idx
            rows[i][j] = rows[j][i] = c
    return QuadraticForm(n, tuple(map(tuple, rows)))


def is_morse(f: SparsePolynomial) -> bool:
    """Nondegeneracy of the Hessian at the origin (exact determinant).

    False without building the Hessian when f has no degree-2 term, since
    the Hessian is then zero.  Raises ValueError on a constant or linear term.
    """
    _require_singular(f._terms)
    return any(sum(exp) == 2 for exp in f._terms) and bool(determinant(hessian_at_zero(f)))


def integer_determinant(rows: Iterable[Iterable]) -> Union[int, GaussianRational]:
    """Exact determinant by Bareiss fraction-free elimination.

    Entries are ints or GaussianRationals, whose // is exact division (Q(i)
    is a field).  Row i becomes (pv * row_i - f * row_k) // prev, an exact
    quotient; a row whose pivot-column entry f is 0, common in sparse
    matrices, skips the f products.  Entries left of the pivot column are
    never read again and are not cleared.  Whatever the entries, a singular
    matrix may give the int 0, and the empty matrix gives the int 1.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1  # the empty product
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
            if f:
                for j in range(k + 1, n):
                    mi[j] = (mi[j] * pv - f * mk[j]) // prev
            else:
                for j in range(k + 1, n):
                    mi[j] = mi[j] * pv // prev
        prev = pv
    return sign * m[n - 1][n - 1]


def determinant(form: QuadraticForm) -> GaussianRational:
    """Exact determinant by integer_determinant's Bareiss loop.  A real form
    is first cleared of denominators: its entries times the lcm L of their
    denominators are ints, whose determinant over L^n is the answer.  A
    complex form runs the loop on its Q(i) entries."""
    rows = form.rows
    if any([v.im for row in rows for v in row]):
        return GR_ZERO + integer_determinant(rows)  # the loop may return an int
    L = lcm(*[v.re.denominator for row in rows for v in row])
    ints = [[v.re.numerator * (L // v.re.denominator) for v in row] for row in rows]
    return GaussianRational(Fraction(integer_determinant(ints), L ** form.n))
