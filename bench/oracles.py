"""The benchmark's own answer checks.

Nothing here imports newtoncert: every check is a separate, small
implementation of the mathematics, so a defect in the program cannot hide
behind the same defect in its checker.  Points are integer tuples and
indices are 0-based throughout.
"""

from __future__ import annotations

import random
from math import prod

P = 2**31 - 1


def pair_point(n, i, j):
    p = [0] * n
    p[i] += 1
    p[j] += 1
    return tuple(p)


def closure_pairs(n, support):
    """Unordered pairs (i, j), i <= j, whose point e_i + e_j lies in conv(S).

    For S inside the quadratic simplex a pair point is in the hull exactly
    when it is in S, or it is the midpoint of the two diagonal points
    2e_i and 2e_j, both in S.
    """
    pairs = set()
    diagonals = []
    for p in support:
        idx = [k for k, c in enumerate(p) for _ in range(c)]
        pairs.add((idx[0], idx[1]))
        if idx[0] == idx[1]:
            diagonals.append(idx[0])
    for a in diagonals:
        for b in diagonals:
            if a < b:
                pairs.add((a, b))
    return pairs


def closure_bits(n, support):
    """The symmetric 0/1 matrix of admitted entries."""
    bits = [[0] * n for _ in range(n)]
    for i, j in closure_pairs(n, support):
        bits[i][j] = bits[j][i] = 1
    return tuple(tuple(row) for row in bits)


def kuhn_matching(bits):
    """Perfect matching row -> column through 1-entries (Kuhn 1955), or None."""
    n = len(bits)
    match_col = [-1] * n

    def augment(r, seen):
        for c in range(n):
            if bits[r][c] and not seen[c]:
                seen[c] = True
                if match_col[c] < 0 or augment(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if not augment(r, [False] * n):
            return None
    sigma = [0] * n
    for c, r in enumerate(match_col):
        sigma[r] = c
    return tuple(sigma)


def rank(points):
    """Rank of pair points of the quadratic simplex over the rationals.

    Rows have Euclidean norm at most 2, so by Hadamard's bound every
    nonzero minor of up to 12 rows is below 2**12 and stays nonzero modulo
    the prime P; elimination modulo P therefore gives the exact rank.
    """
    if points and len(points[0]) > 12:
        raise ValueError("the modular rank is exact only up to n = 12")
    rows = [list(p) for p in points]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % P), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, P)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % P
            if f:
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def certificate_errors(n, support, cert):
    """Reasons a certificate fails the closure-rule check (empty when sound).

    cert is {"kind": "matching", "sigma": [...]} or {"kind": "cover", "I",
    "J", "coeffs", "rhs"}, 0-based.  The verdict must also agree with the
    benchmark's own matching search on the closure stencil.
    """
    bits = closure_bits(n, support)
    expect = "matching" if kuhn_matching(bits) is not None else "cover"
    errors = []
    if cert["kind"] != expect:
        errors.append(f"verdict {cert['kind']} but the closure stencil gives {expect}")
    if cert["kind"] == "matching":
        sigma = list(cert["sigma"])
        if sorted(sigma) != list(range(n)):
            errors.append("sigma is not a permutation")
        elif any(not bits[i][s] for i, s in enumerate(sigma)):
            errors.append("sigma uses an entry the closure rule does not admit")
    elif cert["kind"] == "cover":
        I, J = set(cert["I"]), set(cert["J"])
        if len(I) + len(J) >= n:
            errors.append("cover is not deficient")
        if any(bits[i][j] and i not in I and j not in J
               for i in range(n) for j in range(n)):
            errors.append("cover misses an admitted entry")
        coeffs, rhs = cert["coeffs"], cert["rhs"]
        if any(sum(c * x for c, x in zip(coeffs, g)) < rhs for g in support):
            errors.append("half-space misses a generator")
        if 2 * sum(coeffs) >= n * rhs:
            errors.append("half-space contains the barycenter")
    else:
        errors.append(f"unknown certificate kind {cert['kind']!r}")
    return errors


def reference_entries(bits, seed):
    """The seeded sample stream, drawn in the documented order.

    Row by row over the upper triangle, each admitted entry is a magnitude
    randint(1, 10**6) and then a sign randint(0, 1) from random.Random(seed).
    randint(a, b) is a + r for the first getrandbits(k) draw r below
    b - a + 1, k being the bit length of b - a + 1; drawing that way
    directly is several times faster and gives the same stream.
    """
    getrandbits = random.Random(seed).getrandbits
    n = len(bits)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if bits[i][j]:
                value = getrandbits(20)
                while value >= 10**6:
                    value = getrandbits(20)
                value += 1
                sign = getrandbits(2)
                while sign >= 2:
                    sign = getrandbits(2)
                rows[i][j] = rows[j][i] = -value if sign else value
    return tuple(tuple(r) for r in rows)


def milnor_orlik(q):
    """mu of a weighted-homogeneous isolated singularity with d / w_i = q_i."""
    return prod(v - 1 for v in q)


def lower_chain(points):
    """Vertices of the Newton diagram of 2-D points, x increasing."""
    pts = sorted(set(points))
    pts = [p for p in pts
           if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)]
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


def milnor_plane(points):
    """mu = 2 * area - (a + b) + 1 for a convenient plane diagram.

    The area under the diagram is a shoelace sum over the closed polygon
    origin -> (a, 0) -> chain backwards -> (0, b).
    """
    chain = lower_chain(points)
    (x0, b), (a, y1) = chain[0], chain[-1]
    if x0 != 0 or y1 != 0:
        raise ValueError("diagram is not convenient")
    poly = [(0, 0)] + chain[::-1]
    twice_area = sum(x1 * y2 - x2 * y1_
                     for (x1, y1_), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    return twice_area - (a + b) + 1
