"""Stencils, matchings, covers, half-spaces, certificates and sampling."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from newtoncert import lp, polytope, stencil
from newtoncert.gaussian import GaussianRational
from newtoncert.morse import GENERICALLY_MORSE, NEVER_MORSE, classify_support
from newtoncert.poly import determinant, integer_determinant
from newtoncert.polytope import (
    ConvexCombination,
    LatticePolytope,
    barycenter,
    contains_point,
    lattice_points,
    pair_point,
    two_delta_points,
)
from newtoncert.stencil import (
    CoverCertificate,
    MatchingCertificate,
    Stencil,
    _max_matching,
    certify,
    certify_via_minimal,
    find_matching,
    min_vertex_cover,
    permutation_sign,
    sample_entries,
    sample_generic_form,
    separating_halfspace,
    sign_consistency,
    stencil_of,
    witness_O_from_matching,
)


def _stencil(n, ones):
    bits = [[0] * n for _ in range(n)]
    for i, j in ones:
        bits[i][j] = bits[j][i] = 1
    return Stencil(n, tuple(tuple(r) for r in bits))


def _stencil_from_points(n, points):
    return _stencil(
        n,
        [
            ((idx := [k for k, c in enumerate(p) if c])[0], idx[-1])
            for p in points
        ],
    )


# -- stencil extraction --------------------------------------------------------


def test_stencil_of_triangle():
    M = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    S = stencil_of(M)
    assert S.bits == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_stencil_of_single_diagonal():
    M = LatticePolytope(2, ((2, 0),))
    assert stencil_of(M).bits == ((1, 0), (0, 0))


def test_stencil_of_segment_includes_midpoint():
    M = LatticePolytope(2, ((2, 0), (0, 2)))
    assert stencil_of(M).bits == ((1, 1), (1, 1))


def test_stencil_requires_quadratic_simplex():
    with pytest.raises(ValueError, match="quadratic simplex"):
        stencil_of(LatticePolytope(2, ((1, 0),)))


def test_stencil_symmetry_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Stencil(2, ((0, 1), (0, 0)))
    with pytest.raises(ValueError, match="n must be positive"):
        Stencil(0, ())
    for bits in (((1,),), ((1, 0), (0,)), ((1, 0), (0, 1), (0, 0))):
        with pytest.raises(ValueError, match="bits must be n x n"):
            Stencil(2, bits)
    with pytest.raises(ValueError, match="bits must be 0/1"):
        Stencil(2, ((1, 2), (2, 1)))
    # the checks run in order: shape before values, values before symmetry
    with pytest.raises(ValueError, match="bits must be n x n"):
        Stencil(2, ((2, 0),))
    with pytest.raises(ValueError, match="bits must be 0/1"):
        Stencil(2, ((0, 2), (0, 0)))
    assert Stencil(2, [[True, 0], [0, 1]]).bits == ((1, 0), (0, 1))
    # a fractional entry is no bit: int() would truncate 0.5 and 1.9 to 0 and 1
    for bits in (((0.5, 1.9), (1, 0)), ((1, 0), (0, 0.5)), ((1.0, 0), (0, 1e-9))):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            Stencil(2, bits)
    with pytest.raises(ValueError, match="bits must be n x n"):
        Stencil(2, ((0.5,),))
    assert Stencil(2, ((1.0, 0.0), (0.0, 1))).bits == ((1, 0), (0, 1))


# -- matching and cover ----------------------------------------------------------


def test_find_matching_examples():
    S = _stencil(3, [(0, 1), (0, 2), (1, 2)])
    sigma = find_matching(S)
    assert sigma is not None
    assert all(S.bits[i][sigma[i]] for i in range(3))

    identity = _stencil(3, [(0, 0), (1, 1), (2, 2)])
    assert find_matching(identity) == (0, 1, 2)

    assert find_matching(_stencil(2, [(0, 0)])) is None


def test_min_vertex_cover_examples():
    S = _stencil(3, [(0, 0), (0, 1), (0, 2)])
    I, J = min_vertex_cover(S)
    assert (I, J) == ((0,), (0,))

    S2 = _stencil(2, [(0, 0)])
    I2, J2 = min_vertex_cover(S2)
    assert len(I2) + len(J2) == 1

    # ones confined to rows/cols {0, 1}
    S3 = _stencil(4, [(0, 1), (0, 0), (1, 1)])
    I3, J3 = min_vertex_cover(S3)
    assert len(I3) + len(J3) <= 2
    assert set(I3) | set(J3) <= {0, 1}


def test_min_vertex_cover_rejects_perfect_matching():
    S = _stencil(2, [(0, 1)])
    with pytest.raises(ValueError, match="perfect matching"):
        min_vertex_cover(S)


def test_koenig_duality_random():
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(1, 6)
        ones = {
            tuple(sorted((rng.randrange(n), rng.randrange(n))))
            for _ in range(rng.randint(0, n * n))
        }
        S = _stencil(n, ones)
        _, _, size = _max_matching(S.bits)
        if size == n:
            assert find_matching(S) is not None
        else:
            I, J = min_vertex_cover(S)
            assert len(I) + len(J) == size


def test_matching_relabeling_equivariance():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(2, 6)
        ones = {
            tuple(sorted((rng.randrange(n), rng.randrange(n))))
            for _ in range(rng.randint(1, n * n))
        }
        S = _stencil(n, ones)
        perm = list(range(n))
        rng.shuffle(perm)
        bits = tuple(
            tuple(S.bits[perm[i]][perm[j]] for j in range(n)) for i in range(n)
        )
        S2 = Stencil(n, bits)
        sigma = find_matching(S)
        sigma2 = find_matching(S2)
        assert (sigma is None) == (sigma2 is None)
        if sigma is None:
            continue
        # the conjugated answer is a valid matching of the relabeled stencil
        inv = [0] * n
        for k, v in enumerate(perm):
            inv[v] = k
        conjugated = [inv[sigma[perm[i]]] for i in range(n)]
        assert all(S2.bits[i][conjugated[i]] for i in range(n))
        assert all(S2.bits[i][sigma2[i]] for i in range(n))


# -- half-spaces ------------------------------------------------------------------


def test_separating_halfspace_examples():
    hs = separating_halfspace((0,), (0,), 3)
    assert hs.coeffs == (2, 0, 0) and hs.rhs == 2
    center = barycenter(3)
    assert sum(c * x for c, x in zip(hs.coeffs, center)) == Fraction(4, 3)

    hs2 = separating_halfspace((0, 1), (), 3)
    assert hs2.coeffs == (1, 1, 0)
    assert hs2.contains((1, 1, 0))

    hs3 = separating_halfspace((), (), 1)
    assert hs3.coeffs == (0,) and hs3.rhs == 2


def test_separating_halfspace_rejects_large_cover():
    with pytest.raises(ValueError, match="cover too large"):
        separating_halfspace((0, 1), (2,), 3)


# -- certificates ------------------------------------------------------------------


def test_certify_matching_triangle():
    M = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    cert = certify(M)
    assert isinstance(cert, MatchingCertificate)
    assert cert.to_json_dict() == {"kind": "matching", "sigma": [2, 3, 1]}
    # 2e_1 and the path e_i + e_{i+1}: the greedy pass matches row 0 to its
    # loop and each later row but the last in pairs, so the last row's
    # augmenting path runs back through every row
    n = 1000
    path = [pair_point(n, 0, 0)] + [pair_point(n, i, i + 1) for i in range(n - 1)]
    assert certify(LatticePolytope(n, tuple(path))).sigma == tuple(i ^ 1 for i in range(n))


def test_certify_cover_example():
    M = LatticePolytope(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    cert = certify(M)
    assert isinstance(cert, CoverCertificate)
    assert cert.to_json_dict() == {
        "kind": "cover",
        "I": [1],
        "J": [1],
        "halfspace": {"coeffs": [2, 0, 0], "rhs": 2},
    }
    # all generators satisfy the half-space, the barycenter violates it
    for g in M.generators:
        assert cert.halfspace.contains(g)
    assert not cert.halfspace.contains(barycenter(3))


def test_certify_single_point():
    M = LatticePolytope(2, ((1, 1),))
    cert = certify(M)
    assert isinstance(cert, MatchingCertificate)
    assert cert.sigma == (1, 0)


def test_certify_via_minimal_agrees_on_examples():
    cases = [
        LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1))),
        LatticePolytope(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1))),
        LatticePolytope(2, ((1, 1),)),
        LatticePolytope(2, ((2, 0), (0, 2))),
        LatticePolytope(4, ((0, 2, 0, 0), (0, 0, 0, 2), (1, 0, 1, 0))),
    ]
    for M in cases:
        assert certify(M).kind == certify_via_minimal(M).kind
        cert = certify_via_minimal(M)
        if isinstance(cert, MatchingCertificate):
            S = stencil_of(M)
            assert all(S.bits[i][cert.sigma[i]] for i in range(M.n))
    covers = 0
    for n in (1, 2, 3, 4):
        pts = two_delta_points(n)
        for mask in range(1, 2 ** len(pts)):
            M = LatticePolytope(n, tuple(p for k, p in enumerate(pts) if mask >> k & 1))
            cert = certify(M)
            if isinstance(cert, CoverCertificate):
                assert certify_via_minimal(M) == cert
                covers += 1
    assert covers == 296


def test_certify_via_minimal_walks_odd_cycles():
    """An odd cycle is walked from its smallest index towards its smaller
    neighbour; a single edge beside it is a transposition."""
    tri = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    assert certify_via_minimal(tri).sigma == (1, 2, 0)
    n, cycle = 7, (0, 3, 6, 2, 5)
    pts = [pair_point(n, cycle[t], cycle[(t + 1) % 5]) for t in range(5)]
    M = LatticePolytope(n, tuple(pts) + (pair_point(n, 1, 4),))
    assert certify_via_minimal(M).sigma == (3, 4, 5, 6, 1, 0, 2)


def test_witness_from_matching():
    comb = witness_O_from_matching((1, 0), 2)
    assert comb.points == ((1, 1), (1, 1))
    assert comb.value() == (Fraction(1), Fraction(1))

    comb2 = witness_O_from_matching((0, 1, 2), 3)
    assert comb2.points == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert comb2.value() == barycenter(3)

    comb3 = witness_O_from_matching((1, 2, 0), 3)
    assert comb3.value() == barycenter(3)


# -- sign consistency ---------------------------------------------------------------


def test_sign_consistency_examples():
    assert sign_consistency((1, 2, 0), 3)
    assert sign_consistency((1, 0), 2)
    assert sign_consistency((1, 0, 3, 2), 4)


def test_sign_consistency_exhaustive_small():
    for n in (1, 2, 3, 4):
        for sigma in itertools.permutations(range(n)):
            assert sign_consistency(sigma, n)


def test_sign_consistency_rejects_large_n():
    with pytest.raises(ValueError, match="limited"):
        sign_consistency(tuple(range(9)), 9)


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1


# -- generic sampling ---------------------------------------------------------------


def test_sample_zero_stencil():
    S = _stencil(2, [])
    assert sample_entries(S, 5) == ((0, 0), (0, 0))


def test_sample_antidiagonal_det():
    M = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    for seed in range(5):
        form = sample_generic_form(M, seed)
        a = form.rows[0][1].re
        b = form.rows[0][2].re
        c = form.rows[1][2].re
        assert determinant(form) == GaussianRational(2 * a * b * c)
        assert determinant(form)


def test_sample_determinism():
    M = LatticePolytope(2, ((2, 0), (0, 2)))
    assert sample_generic_form(M, 42) == sample_generic_form(M, 42)
    assert sample_generic_form(M, 42) != sample_generic_form(M, 43)


def test_sample_entries_range_and_pattern():
    S = _stencil(3, [(0, 1), (2, 2)])
    rows = sample_entries(S, 9)
    for i in range(3):
        for j in range(3):
            if S.bits[i][j]:
                assert rows[i][j] != 0 and abs(rows[i][j]) <= 10**6
            else:
                assert rows[i][j] == 0
            assert rows[i][j] == rows[j][i]


def test_pinned_sample_table():
    """The --seed stream and its determinants on 200 pinned stencils.

    Stencil rows are stored as 0/1 strings, determinants as decimal
    strings.  The table in sample_table.json was written by:

        rng = random.Random(20261019)
        for k in range(200):
            n = k % 12 + 1
            density = 0.0 if k % 25 == 0 else rng.choice((0.25, 0.5, 0.75, 1.0))
            bits = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < density:
                        bits[i][j] = bits[j][i] = 1
            if rng.random() < 0.3:  # an empty row and column
                e = rng.randrange(n)
                for j in range(n):
                    bits[e][j] = bits[j][e] = 0
            seed = rng.choice((0, 1, -7, rng.randrange(2**31), rng.randrange(2**64)))
            rows = sample_entries(Stencil(n, bits), seed)

    recording rows and integer_determinant(rows).  A nonzero determinant
    is also checked against a perfect matching of the stencil.
    """
    table = json.loads((Path(__file__).parent / "sample_table.json").read_text())
    nonzero = empty_rows = 0
    for case in table:
        n = case["n"]
        S = Stencil(n, tuple(tuple(map(int, r)) for r in case["stencil"]))
        rows = sample_entries(S, case["seed"])
        assert rows == tuple(tuple(r) for r in case["matrix"])
        det = integer_determinant(rows)
        assert str(det) == case["det"]
        assert (det != 0) == (find_matching(S) is not None)
        nonzero += det != 0
        empty_rows += not all(any(r) for r in S.bits)
    assert len(table) == 200 and {c["n"] for c in table} == set(range(1, 13))
    assert min(nonzero, 200 - nonzero) >= 80 and empty_rows >= 50


def test_certified_sampling_dichotomy_public_path():
    """certify + sample_generic_form + determinant through the public API."""
    matching_side = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    cover_side = LatticePolytope(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    assert isinstance(certify(matching_side), MatchingCertificate)
    assert isinstance(certify(cover_side), CoverCertificate)
    for seed in range(100):
        assert determinant(sample_generic_form(matching_side, seed))
        assert not determinant(sample_generic_form(cover_side, seed))


def test_one_variable_certificates():
    M = LatticePolytope(1, ((2,),))
    cert = certify(M)
    assert cert.sigma == (0,)
    assert certify_via_minimal(M).sigma == (0,)


def test_random_certify_larger_dimensions():
    from newtoncert.polytope import (
        ConvexCombination,
        contains_point,
        two_delta_points,
    )

    rng = random.Random(99)
    for n in (6, 7):
        pts = two_delta_points(n)
        for _ in range(25):
            subset = tuple(sorted(rng.sample(pts, rng.randint(1, 14))))
            M = LatticePolytope(n, subset)
            cert = certify(M)
            member = isinstance(
                contains_point(M, barycenter(n)), ConvexCombination
            )
            assert (cert.kind == "matching") == member


def test_certify_and_classify_solve_no_lp(monkeypatch):
    """On supports of degree >= 2 the stencil, the lattice points, the
    certificate and the Morse verdict come from the pair indices: no LP, no
    list of all pair points, no Fraction witness and no barycenter."""

    def forbidden(*args):
        raise AssertionError("certify path left index space")

    rng = random.Random(404)
    box = [p for p in itertools.product(range(4), repeat=3) if 2 <= sum(p) <= 3]
    cases = []
    for _ in range(60):
        n = rng.randint(2, 9)
        pts = two_delta_points(n)
        M = LatticePolytope(n, tuple(rng.sample(pts, rng.randint(1, len(pts)))))
        N = LatticePolytope(3, tuple(rng.sample(box, rng.randint(1, 8))), True)
        cases.append((M, N))
    for module, name in (
        (polytope, "two_delta_points"),
        (polytope, "contains_point"),
        (stencil, "witness_O_from_matching"),
        (stencil, "barycenter"),
        (lp, "solve_eq_nonneg"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    kinds = set()
    for M, N in cases:
        kinds.add(certify(M).kind)
        stencil_of(M)
        lattice_points(M)
        kinds.add(classify_support(N).kind)
    assert kinds == {"matching", "cover", GENERICALLY_MORSE, NEVER_MORSE}


def _recheck_certificate(n, gens, cert):
    """Check a certificate from its definition, with nothing from newtoncert."""
    if cert["kind"] == "matching":
        sigma = [s - 1 for s in cert["sigma"]]
        assert sorted(sigma) == list(range(n))
        for i, j in enumerate(sigma):
            i, j = min(i, j), max(i, j)
            # e_i + e_j is a generator or the midpoint of 2e_i and 2e_j
            assert (i, j) in gens or {(i, i), (j, j)} <= gens
    else:
        I, J = cert["I"], cert["J"]
        coeffs, rhs = cert["halfspace"]["coeffs"], cert["halfspace"]["rhs"]
        assert len(I) + len(J) < n and rhs == 2
        assert all(coeffs[i] + coeffs[j] >= rhs for i, j in gens)
        # <coeffs, O> = 2 * sum(coeffs) / n < 2
        assert sum(coeffs) < n


def test_pinned_certify_table():
    """certify, stencil_of and lattice_points on 300 pinned supports.

    Each point e_i + e_j is stored as its pair [i, j], i <= j, 0-indexed;
    stencil rows as 0/1 strings.  The supports are rich in diagonal points,
    so the closure adds midpoints in most of them.  The table was written
    from

        rng = random.Random(20261018)
        for k in range(300):
            n = k % 12 + 1
            pts = two_delta_points(n)
            diagonal = [p for p in pts if 2 in p]
            mixed = [p for p in pts if 2 not in p]
            support = rng.sample(diagonal, rng.randint(1, n)) + rng.sample(
                mixed, rng.randint(0, min(len(mixed), 2 * n))
            )
            M = LatticePolytope(n, tuple(support))

    recording certify(M).to_json_dict(), the rows of stencil_of(M).bits and
    decode_pair of each generator and of each point of lattice_points(M).
    """
    table = json.loads((Path(__file__).parent / "certify_table.json").read_text())
    kinds = Counter()
    for case in table:
        n = case["n"]
        gens = {tuple(g) for g in case["generators"]}
        M = LatticePolytope(n, tuple(pair_point(n, i, j) for i, j in gens))
        cert = certify(M).to_json_dict()
        assert cert == case["certificate"]
        assert ["".join(map(str, r)) for r in stencil_of(M).bits] == case["stencil"]
        assert lattice_points(M) == tuple(
            pair_point(n, i, j) for i, j in case["lattice_points"]
        )
        _recheck_certificate(n, gens, cert)
        kinds[cert["kind"]] += 1
    assert len(table) == 300 and min(kinds["matching"], kinds["cover"]) >= 100


def test_certify_kind_is_lp_membership_exhaustive():
    """certify says matching exactly when the exact LP puts O in M (n <= 4)."""
    for n in (1, 2, 3, 4):
        pts = two_delta_points(n)
        center = barycenter(n)
        for mask in range(1, 2 ** len(pts)):
            M = LatticePolytope(n, tuple(p for k, p in enumerate(pts) if mask >> k & 1))
            member = isinstance(contains_point(M, center), ConvexCombination)
            assert (certify(M).kind == "matching") == member


def test_certify_runs_one_max_matching(monkeypatch):
    """Both verdicts come from a single maximum matching (Koenig's theorem)."""
    calls = []
    real = stencil._max_matching

    def counted(S):
        calls.append(S)
        return real(S)

    monkeypatch.setattr(stencil, "_max_matching", counted)
    rng = random.Random(7)
    kinds = set()
    for _ in range(40):
        n = rng.randint(1, 8)
        pts = two_delta_points(n)
        M = LatticePolytope(n, tuple(rng.sample(pts, rng.randint(1, len(pts)))))
        calls.clear()
        kinds.add(certify(M).kind)
        assert len(calls) == 1
    assert kinds == {"matching", "cover"}
