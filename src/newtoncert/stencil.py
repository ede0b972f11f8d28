"""Stencils, bipartite matchings, vertex covers and nondegeneracy certificates.

The stencil of a polytope M inside the quadratic simplex is the symmetric
0/1 matrix marking which pair points e_i + e_j lie in M; it is exactly the
zero pattern forced on quadratic forms supported in M.  A permutation
hitting only 1-entries certifies that the determinant is not identically
zero on that space; a row/column cover of size < n yields a half-space
separating the barycenter and certifies that every such form is
degenerate.  certify works on pair indices throughout: the stencil is the
pair closure of the generators, one maximum matching gives either the
permutation or (Koenig's theorem) the cover, and both are checked by
integer substitution.  The Fraction witness of a matching,
(1/n) * sum(e_i + e_sigma(i)), is never built: the count of index uses
in certify proves that it averages to the barycenter.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from ._record import Record
from .polytope import (
    LatticePolytope,
    _pair_closure,
    _require_in_two_delta,
    in_pair_hull,
    pair_point,
)

if TYPE_CHECKING:
    from .poly import QuadraticForm

MAX_SIGN_ENUMERATION = 8
_BIT = {0: 0, 1: 1}  # equal keys (False, True, 0.0, Fraction(1)) map to the int


class Stencil(Record):
    """Symmetric n x n 0/1 matrix of admitted quadratic monomials."""

    __match_args__ = ("n", "bits")

    def __init__(self, n: int, bits: Tuple[Tuple[int, ...], ...]):
        if n < 1:
            raise ValueError("n must be positive")
        if len(bits) != n or any([len(r) != n for r in bits]):
            raise ValueError("bits must be n x n")
        try:  # a lookup, not int(): 0.5 or 1.9 must not truncate to a bit
            bits = tuple([tuple([_BIT[v] for v in row]) for row in bits])
        except (KeyError, TypeError):
            raise ValueError("bits must be 0/1") from None
        if bits != tuple(zip(*bits)):
            raise ValueError("stencil must be symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "bits": [list(r) for r in self.bits]}


class HalfSpace(Record):
    """The constraint <coeffs, x> >= rhs."""

    __match_args__ = ("coeffs", "rhs")

    def contains(self, point: Sequence) -> bool:
        return sum(c * x for c, x in zip(self.coeffs, point)) >= self.rhs

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self.coeffs), "rhs": self.rhs}


class MatchingCertificate(Record):
    """Permutation sigma (0-indexed) with every (i, sigma(i)) a stencil one."""

    __match_args__ = ("sigma",)
    kind = "matching"

    def to_json_dict(self) -> dict:
        return {"kind": "matching", "sigma": [s + 1 for s in self.sigma]}


class CoverCertificate(Record):
    """Row set I and column set J covering all ones, |I|+|J| < n."""

    __match_args__ = ("I", "J", "halfspace")
    kind = "cover"

    def to_json_dict(self) -> dict:
        return {
            "kind": "cover",
            "I": [i + 1 for i in self.I],
            "J": [j + 1 for j in self.J],
            "halfspace": self.halfspace.to_json_dict(),
        }


Certificate = Union[MatchingCertificate, CoverCertificate]


def stencil_of(M: LatticePolytope) -> Stencil:
    """bits[i][j] = 1 exactly when e_i + e_j lies in M: the pair closure of
    the generators (a generator, or the midpoint of two diagonal ones)."""
    _require_in_two_delta(M)
    return Stencil(M.n, _pair_closure(M))


def _max_matching(rows):
    """Deterministic augmenting-path maximum matching on 0/1 rows.

    Rows are scanned in order; from each unmatched row the search takes a
    free column if it has one, else tries the columns in index order
    through their matched rows, with one seen set per root row.  The
    search keeps its path on an explicit stack, so a path through every
    row does not recurse.
    """
    n = len(rows)
    adj = [[c for c, bit in enumerate(row) if bit] for row in rows]
    match_row = [-1] * n
    match_col = [-1] * n
    size = 0
    for root in range(n):
        seen = set()
        path = []  # frames [row, its untried columns, the column it tries]
        r = root
        while r >= 0:
            c = next((c for c in adj[r] if match_col[c] < 0), -1)  # free: not in seen
            if c >= 0:  # flip the path: each row takes the column it tried
                match_row[r], match_col[c] = c, r
                for r, _, c in path:
                    match_row[r], match_col[c] = c, r
                size += 1
                break
            path.append([r, iter(adj[r]), -1])
            r = -1
            while path and r < 0:
                frame = path[-1]
                c = next((c for c in frame[1] if c not in seen), -1)
                if c < 0:
                    path.pop()
                else:
                    seen.add(c)
                    frame[2] = c
                    r = match_col[c]
    return match_row, match_col, size


def find_matching(S: Stencil) -> Optional[Tuple[int, ...]]:
    """A permutation through 1-entries, or None when no perfect matching exists."""
    match_row, _, size = _max_matching(S.bits)
    if size < S.n:
        return None
    sigma = tuple(match_row)
    if sorted(sigma) != list(range(S.n)):
        raise RuntimeError("matching is not a permutation")
    for i, j in enumerate(sigma):
        if not S.bits[i][j]:
            raise RuntimeError(f"matching uses zero stencil entry ({i}, {j})")
    return sigma


def min_vertex_cover(S: Stencil) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Deficient row/column cover from the alternating-reachability sets.

    Only defined when no perfect matching exists; the returned sets cover
    every 1-entry and satisfy |I| + |J| = max matching size < n.
    """
    match_row, match_col, size = _max_matching(S.bits)
    if size == S.n:
        raise ValueError("stencil has a perfect matching; no deficient cover exists")
    return _cover_from_matching(S.bits, match_row, match_col, size)


def _cover_from_matching(rows, match_row, match_col, size):
    """Koenig's cover from a maximum matching of size < n on the 0/1 rows.

    Rows reachable by alternating paths from the unmatched rows are left
    out of I, their columns form J; |I| + |J| equals the matching size.
    """
    n = len(rows)
    reach_row = [False] * n
    reach_col = [False] * n
    queue = [r for r in range(n) if match_row[r] < 0]
    for r in queue:
        reach_row[r] = True
    head = 0
    while head < len(queue):
        r = queue[head]
        head += 1
        for c in range(n):
            if rows[r][c] and not reach_col[c]:
                reach_col[c] = True
                r2 = match_col[c]
                if r2 >= 0 and not reach_row[r2]:
                    reach_row[r2] = True
                    queue.append(r2)
    I = tuple([r for r in range(n) if not reach_row[r]])
    J = tuple([c for c in range(n) if reach_col[c]])
    _check_cover(rows, I, J)
    if len(I) + len(J) != size:
        raise RuntimeError("cover size does not match the matching size")
    return I, J


def _check_cover(rows, I: Sequence[int], J: Sequence[int]):
    iset, jset = set(I), set(J)
    for i, row in enumerate(rows):
        for j, bit in enumerate(row):
            if bit and i not in iset and j not in jset:
                raise RuntimeError(f"cover misses stencil entry ({i}, {j})")


def separating_halfspace(I: Sequence[int], J: Sequence[int], n: int) -> HalfSpace:
    """The half-space sum_{I} x_l + sum_{J} x_l >= 2 induced by a cover.

    It excludes the barycenter, since <coeffs, O> = 2 * sum(coeffs) / n and
    sum(coeffs) = |I| + |J| < n (else ValueError).  It contains every pair
    point e_i + e_j whose two index slots are covered (i in I or j in J,
    and j in I or i in J), since coeffs[i] + coeffs[j] >= 2 in each of the
    four cases.  Neither fact needs a check; certify substitutes the
    half-space into the generators.
    """
    iset, jset = set(I), set(J)
    if len(iset) + len(jset) >= n:
        raise ValueError("cover too large: half-space would not exclude the barycenter")
    coeffs = tuple([(1 if l in iset else 0) + (1 if l in jset else 0) for l in range(n)])
    return HalfSpace(coeffs, 2)


def certify(M: LatticePolytope) -> Certificate:
    """Matching certificate iff the barycenter lies in M, else a cover.

    One maximum matching on the pair closure's rows decides: perfect, it
    is the permutation; deficient, Koenig's cover is read from it.  Each
    answer is checked once before it is returned.  A matching must use
    every index exactly twice in its pairs (i, sigma(i)), which is
    n * O = sum_i (e_i + e_sigma(i)) and makes sigma a permutation, and
    each pair point must lie in M by one lookup (in_pair_hull).  A cover
    must meet every 1-entry and have the matching's size
    (_cover_from_matching), and its half-space must contain every
    generator of M; it excludes the barycenter by construction.
    """
    _require_in_two_delta(M)
    n = M.n
    rows = _pair_closure(M)
    match_row, match_col, size = _max_matching(rows)
    if size == n:
        sigma = tuple(match_row)
        uses = [0] * n
        for i, j in enumerate(sigma):
            uses[i] += 1
            uses[j] += 1
        if uses != [2] * n:
            raise RuntimeError("matching witness does not average to the barycenter")
        gens = set(M.generators)
        for i, j in enumerate(sigma):
            p = pair_point(n, i, j)
            if not in_pair_hull(p, gens):
                raise RuntimeError(f"matching point {p} lies outside the polytope")
        return MatchingCertificate(sigma)
    I, J = _cover_from_matching(rows, match_row, match_col, size)
    hs = separating_halfspace(I, J, n)
    for g in M.generators:
        if not hs.contains(g):
            raise RuntimeError("cover half-space misses a generator")
    return CoverCertificate(I, J, hs)


def permutation_sign(sigma: Sequence[int]) -> int:
    """Sign via cycle decomposition."""
    seen = [False] * len(sigma)
    sign = 1
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = sigma[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _pair_multiset(sigma: Sequence[int]):
    return tuple(sorted(tuple(sorted((i, j))) for i, j in enumerate(sigma)))


def sign_consistency(sigma0: Sequence[int], n: int) -> bool:
    """All permutations with the same unordered-pair multiset share the sign.

    Enumerates the symmetric group, so n is capped at 8.
    """
    sigma0 = tuple(sigma0)
    if sorted(sigma0) != list(range(n)):
        raise ValueError("sigma0 is not a permutation of 0..n-1")
    if n > MAX_SIGN_ENUMERATION:
        raise ValueError(f"enumeration limited to n <= {MAX_SIGN_ENUMERATION}")
    target = _pair_multiset(sigma0)
    s0 = permutation_sign(sigma0)
    return all(
        permutation_sign(sigma) == s0
        for sigma in itertools.permutations(range(n))
        if _pair_multiset(sigma) == target
    )


def sample_entries(S: Stencil, seed: int) -> Tuple[Tuple[int, ...], ...]:
    """Symmetric integer matrix with the stencil's zero pattern.

    Nonzero entries are drawn deterministically from the seed, uniform on
    the nonzero integers in [-10^6, 10^6].  The draw order is the --seed
    contract: the upper triangle is read row by row (i <= j), and each
    admitted entry (i, j) takes, from random.Random(seed).getrandbits, a
    magnitude 1 + r for the first 20-bit draw r below 10^6, then a sign,
    negative when the first 2-bit draw below 2 is 1.  This is the stream
    of randint(1, 10**6) followed by randint(0, 1) in CPython 3.11; it is
    pinned in tests/sample_table.json.
    """
    getrandbits = random.Random(seed).getrandbits
    n = S.n
    rows = [[0] * n for _ in range(n)]
    for i, (row, bits) in enumerate(zip(rows, S.bits)):
        for j in range(i, n):
            if bits[j]:
                value = getrandbits(20)
                while value >= 1000000:
                    value = getrandbits(20)
                sign = getrandbits(2)
                while sign >= 2:
                    sign = getrandbits(2)
                row[j] = rows[j][i] = -1 - value if sign else value + 1
    return tuple([tuple(r) for r in rows])


def sample_generic_form(M: LatticePolytope, seed: int) -> QuadraticForm:
    """Seeded generic quadratic form supported on M's stencil."""
    from .gaussian import GaussianRational
    from .poly import QuadraticForm

    S = stencil_of(M)
    rows = sample_entries(S, seed)
    return QuadraticForm(
        S.n, tuple(tuple(GaussianRational(Fraction(v)) for v in row) for row in rows)
    )
