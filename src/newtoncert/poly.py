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
canonical rendering parses back to the same polynomial.  Whitespace may
separate any two tokens but cannot split an INT.

The grammar is regular, so parse_polynomial reads a whole signed term per
match of one pattern, _TERM.  Text that it does not read to the end, or
that names a variable outside x1..xn or divides by zero, goes to the
tokenizer and the recursive-descent _Parser, which name the first error
and its position.  Each whitespace run in _TERM has one way to match, so a
failed match backtracks in time linear in the text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import itemgetter
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
    pairs.  The constructor checks them; _valid takes pairs already known
    to be valid.  Both combine like terms in _combine and nowhere else."""

    __match_args__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: Union[Mapping, Iterable[Tuple]] = ()):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        checked = []
        for exp, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            exp = tuple(exp)
            if len(exp) != n_vars:
                raise ValueError(f"exponent {exp} has wrong length for n_vars={n_vars}")
            if any(not isinstance(e, int) or e < 0 for e in exp):
                raise ValueError(f"exponent {exp} must consist of nonnegative integers")
            checked.append((exp, _coerce_coeff(coeff)))
        self._combine(n_vars, checked)

    @classmethod
    def _valid(cls, n_vars: int, items: Iterable[Tuple[Exponent, GaussianRational]]):
        """The polynomial of (exponent tuple, GaussianRational) pairs that
        are known to be valid, built without checking them."""
        f = object.__new__(cls)
        f._combine(n_vars, items)
        return f

    def _combine(self, n_vars: int, items):
        """Set the fields: like terms summed, zero coefficients dropped."""
        clean: Dict[Exponent, GaussianRational] = {}
        for exp, c in items:
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
        return SparsePolynomial._valid(self.n_vars, [*self._terms.items(), *other._terms.items()])

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._valid(self.n_vars, [(e, -c) for e, c in self._terms.items()])

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        return SparsePolynomial._valid(self.n_vars, [
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
        if ch.isdecimal():  # exactly the digits int() reads; isdigit() also takes '²'
            start = pos
            while pos < len(text) and text[pos].isdecimal():
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


# One signed term: groups 1 sign, 2-3 real coefficient, 4-9 complex
# coefficient (sign of the real part, real part, sign and size of the
# imaginary part), 10 the factors after a coefficient, 11 the factors of a
# term without one.  \s and \d match exactly what str.isspace and
# str.isdecimal (the tokenizer's tests) accept.  An optional sign takes its
# trailing whitespace inside its group, so no two \s* ever meet.
_Q = r"(\d+)(?:\s*/\s*(\d+))?"
_XS = r"x\s*\d+(?:\s*\^\s*\d+)?(?:\s*\*\s*x\s*\d+(?:\s*\^\s*\d+)?)*"
_TERM = (rf"\s*(?:([-+])\s*)?(?:(?:{_Q}|\(\s*(?:(-)\s*)?{_Q}\s*(?:([-+])\s*{_Q}\s*i\s*)?\))"
         rf"(?:\s*\*\s*({_XS}))?|({_XS}))\s*")
_FACTOR = r"x\s*(\d+)(?:\s*\^\s*(\d+))?"


def _fraction(num: str, den) -> Fraction:
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _match_terms(text: str, n_vars: int):
    """The (exponent, signed coefficient) pair of each term, one _TERM match
    per term, or None when the text is not read to the end, a variable
    index is outside 1..n_vars or a denominator is zero."""
    match = re.compile(_TERM).match  # compiled on the first parse, then re's cache
    factors = re.compile(_FACTOR).findall
    terms = []
    pos = 0
    while pos < len(text) or not terms:
        m = match(text, pos)
        if m is None or pos and not m[1]:
            return None
        sign, num, den, neg, re_num, re_den, im_sign, im_num, im_den, xs, bare = m.groups()
        pos = m.end()
        exps = [0] * n_vars
        for index, power in factors(xs or bare or ""):
            k = int(index)
            if not 0 < k <= n_vars:
                return None
            exps[k - 1] += int(power or 1)
        try:
            if num:
                coeff = GaussianRational(_fraction(num, den))
            elif re_num:
                real = _fraction(re_num, re_den)
                imag = _fraction(im_num, im_den) if im_num else Fraction(0)
                coeff = GaussianRational(-real if neg else real, -imag if im_sign == "-" else imag)
            else:
                coeff = GR_ONE
        except ZeroDivisionError:
            return None
        terms.append((tuple(exps), -coeff if sign == "-" else coeff))
    return terms


def parse_polynomial(text: str, n_vars: int) -> SparsePolynomial:
    """Parse polynomial text in variables x1..xn; combines like terms.

    _match_terms reads valid text; _Parser reads the rest, to raise its
    positioned ParseError."""
    if n_vars < 1:
        raise ValueError("n_vars must be positive")
    terms = _match_terms(text, n_vars)
    if terms is None:
        terms = _Parser(_tokenize(text), n_vars).parse()
    return SparsePolynomial._valid(n_vars, terms)


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
    return _is_morse(f)


def _is_morse(f: SparsePolynomial) -> bool:
    """is_morse for an f already known to have no constant or linear term."""
    return any(sum(exp) == 2 for exp in f._terms) and bool(determinant(hessian_at_zero(f)))


def integer_determinant(rows: Iterable[Iterable]) -> Union[int, GaussianRational]:
    """Exact determinant by Bareiss fraction-free elimination, with lazy rows.

    Entries are ints or GaussianRationals, whose // is exact division (Q(i)
    is a field).  Let P_k be the pivot of step k and P_-1 = 1.  A row last
    updated at step s holds minors over P_s.  At step k, a row whose
    pivot-column entry f is nonzero becomes (x * P_k - f * y) // P_s, where
    y is the pivot row brought up to date as y * P_(k-1) // P_s; both
    quotients are exact by Sylvester's identity.  A row with f = 0 is not
    touched and keeps its s, so a sparse matrix pays only for the rows it
    eliminates.  Columns are taken sparsest first (nonzero count in the
    input, ties by index, the permutation's sign folded in; with two
    columns or fewer the order saves nothing and is not counted), and a
    pivot column with no nonzero among the remaining rows returns 0 at
    once: a zero pattern with no perfect matching is mostly caught at an
    early column.  Entries left of the pivot column are never read again
    and are not cleared.  Whatever the entries, a singular matrix gives the
    int 0 and the empty matrix gives the int 1.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1  # the empty product
    sign = 1
    if n > 2:
        zero = m[0][0] * 0  # 0, or a GaussianRational zero that list.count matches
        counts = [n - col.count(zero) for col in zip(*m)]
        if counts != sorted(counts):
            order = sorted(range(n), key=counts.__getitem__)
            take = itemgetter(*order)
            m = [list(take(row)) for row in m]
            for k in range(n):  # sort order back by swaps, one sign flip each
                j = order[k]
                while j != k:
                    order[k], order[j] = order[j], j
                    j = order[k]
                    sign = -sign
    den = [1] * n  # den[i] = P_s for the step s that last updated row i
    prev = 1
    for k in range(n - 1):
        for pivot in range(k, n):
            if m[pivot][k]:
                break
        else:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            den[k], den[pivot] = den[pivot], den[k]
            sign = -sign
        mk = m[k]
        dk = den[k]
        stale = dk != prev
        pv = mk[k] * prev // dk if stale else mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            if f:
                if stale:  # the pivot row's tail, once per step and only when read
                    for j in range(k + 1, n):
                        mk[j] = mk[j] * prev // dk
                    stale = False
                di = den[i]
                for j in range(k + 1, n):
                    mi[j] = (mi[j] * pv - f * mk[j]) // di
                den[i] = pv
        prev = pv
    last = m[n - 1][n - 1]
    if not last:
        return 0
    if den[n - 1] != prev:
        last = last * prev // den[n - 1]
    return last if sign > 0 else -last


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
