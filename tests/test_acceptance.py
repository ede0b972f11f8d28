"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run as  pytest tests/test_acceptance.py -v -s  to watch the lines appear.
Every tolerance is exact (zero); the only numeric bound is the stated
discretization bound of the grid-refinement volume oracle.
"""

import itertools
import random
import time
from fractions import Fraction

from oracles import affinely_independent, certify_via_minimal, grid_area, lower_chain

from newtoncert.kouchnirenko import milnor_number, under_diagram_region, volumes
from newtoncert.morse import (
    NEVER_MORSE,
    classify_support,
    genericity_gap_demo,
    is_morse,
)
from newtoncert.poly import SparsePolynomial, integer_determinant, parse_polynomial
from newtoncert.polytope import (
    ConvexCombination,
    LatticePolytope,
    barycenter,
    contains_point,
    lattice_points,
    minimal_subpolytope,
    two_delta_points,
)
from newtoncert.stencil import (
    Stencil,
    certify,
    find_matching,
    min_vertex_cover,
    sample_entries,
    separating_halfspace,
    sign_consistency,
)


def _report(num, description, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{detail}")
    assert ok, f"criterion {num} failed: {description}{detail}"


def _supports(n):
    """All nonempty subsets of the quadratic-simplex lattice points."""
    pts = two_delta_points(n)
    for mask in range(1, 2 ** len(pts)):
        yield tuple(pts[k] for k in range(len(pts)) if mask >> k & 1)


def _stencil_for(n, support):
    bits = [[0] * n for _ in range(n)]
    for p in support:
        idx = [k for k, c in enumerate(p) if c]
        i, j = (idx[0], idx[0]) if len(idx) == 1 else (idx[0], idx[1])
        bits[i][j] = bits[j][i] = 1
    return Stencil(n, tuple(tuple(r) for r in bits))


DIMENSIONS = (2, 3, 4, 5)


def test_criterion_1_dichotomy_exhaustive():
    t0 = time.time()
    total = mismatches = 0
    for n in DIMENSIONS:
        center = barycenter(n)
        # the empty support has no matching and no hull; vacuously consistent
        assert find_matching(Stencil(n, tuple(tuple(0 for _ in range(n)) for _ in range(n)))) is None
        for support in _supports(n):
            S = _stencil_for(n, support)
            sigma = find_matching(S)
            member = isinstance(
                contains_point(LatticePolytope(n, support), center), ConvexCombination
            )
            if (sigma is not None) != member:
                mismatches += 1
            total += 1
    elapsed = time.time() - t0
    _report(
        1,
        "matching exists iff exact-LP membership of the barycenter (n = 2..5)",
        mismatches == 0 and elapsed < 120,
        f" [{total} supports, {mismatches} mismatches, {elapsed:.1f}s]",
    )


def test_criterion_2_certificate_soundness():
    t0 = time.time()
    total = failures = 0
    for n in DIMENSIONS:
        center = barycenter(n)
        for support in _supports(n):
            S = _stencil_for(n, support)
            sigma = find_matching(S)
            ok = True
            if sigma is not None:
                ok = sorted(sigma) == list(range(n)) and all(
                    S.bits[i][sigma[i]] for i in range(n)
                )
            else:
                I, J = min_vertex_cover(S)
                hs = separating_halfspace(I, J, n)
                iset, jset = set(I), set(J)
                ok = len(I) + len(J) < n
                ok = ok and all(
                    i in iset or j in jset
                    for i in range(n)
                    for j in range(n)
                    if S.bits[i][j]
                )
                ok = ok and all(hs.contains(g) for g in support)
                ok = ok and sum(
                    c * x for c, x in zip(hs.coeffs, center)
                ) < hs.rhs
            if not ok:
                failures += 1
            total += 1
    _report(
        2,
        "every matching hits ones; every cover is deficient, covering, separating",
        failures == 0,
        f" [{total} certificates, {failures} failures, {time.time()-t0:.1f}s]",
    )


def test_criterion_3_generic_determinants():
    t0 = time.time()
    total = failures = 0
    seeds = range(100)
    for n in DIMENSIONS:
        for support in _supports(n):
            S = _stencil_for(n, support)
            has_matching = find_matching(S) is not None
            for seed in seeds:
                rows = sample_entries(S, seed)
                det = integer_determinant([list(r) for r in rows])
                if (det != 0) != has_matching:
                    failures += 1
                total += 1
    _report(
        3,
        "100/100 sampled dets nonzero on matching supports, zero on cover supports",
        failures == 0,
        f" [{total} samples, {failures} failures, {time.time()-t0:.1f}s]",
    )


def test_criterion_4_two_routes_agree():
    t0 = time.time()
    total = disagreements = 0
    for n in (2, 3, 4):
        for support in _supports(n):
            M = LatticePolytope(n, support)
            if certify(M).kind != certify_via_minimal(M).kind:
                disagreements += 1
            total += 1
    _report(
        4,
        "matching-search and minimal-reduction certificates agree (n <= 4)",
        disagreements == 0,
        f" [{total} supports, {disagreements} disagreements, {time.time()-t0:.1f}s]",
    )


def test_criterion_5_minimal_structure():
    t0 = time.time()
    total = failures = 0
    for n in (2, 3, 4):
        center = barycenter(n)
        for support in _supports(n):
            M = LatticePolytope(n, support)
            if not isinstance(contains_point(M, center), ConvexCombination):
                continue
            mm = minimal_subpolytope(M)
            pts = lattice_points(mm)
            ok = set(pts) == set(mm.generators)
            ok = ok and affinely_independent(pts)  # simplex
            ok = ok and len(pts) <= n
            ok = ok and sum(1 for p in pts if max(p) == 2) <= 1
            ok = ok and isinstance(contains_point(mm, center), ConvexCombination)
            ok = ok and all(any(p[c] for p in pts) for c in range(n))
            if not ok:
                failures += 1
            total += 1
    _report(
        5,
        "minimal sub-polytopes: simplex, <= n points, <= 1 diagonal, all axes used",
        failures == 0,
        f" [{total} minimal polytopes, {failures} failures, {time.time()-t0:.1f}s]",
    )


def test_criterion_6_sign_consistency_exhaustive():
    t0 = time.time()
    total = failures = 0
    for n in range(1, 7):
        for sigma in itertools.permutations(range(n)):
            if not sign_consistency(sigma, n):
                failures += 1
            total += 1
    elapsed = time.time() - t0
    _report(
        6,
        "sign consistency for every permutation, n <= 6",
        failures == 0 and elapsed < 60,
        f" [{total} permutations, {failures} failures, {elapsed:.1f}s]",
    )


def _box_supports_2d():
    """Supports from the box {0..4}^2 with every point of degree >= 2:
    all singletons and pairs exhaustively, plus seeded larger draws."""
    box = [
        (a, b) for a in range(5) for b in range(5) if a + b >= 2
    ]
    for p in box:
        yield (p,)
    for pair in itertools.combinations(box, 2):
        yield pair
    rng = random.Random(170)
    for _ in range(300):
        size = rng.randint(3, 8)
        yield tuple(sorted(rng.sample(box, size)))


def test_criterion_7_morse_classification_box():
    t0 = time.time()
    total = failures = 0
    rng = random.Random(171)
    for support in _box_supports_2d():
        M = LatticePolytope(2, support, orthant_recession=True)
        verdict = classify_support(M)
        if verdict.kind == NEVER_MORSE:
            for _ in range(50):
                coeffs = {
                    exp: rng.choice((-1, 1)) * rng.randint(1, 999) for exp in support
                }
                f = SparsePolynomial(2, coeffs)
                if is_morse(f):
                    failures += 1
        else:
            try:
                genericity_gap_demo(M, range(100))
            except RuntimeError:  # a non-Morse sample
                failures += 1
        total += 1
    _report(
        7,
        "never-Morse supports give singular Hessians; generic supports give Morse",
        failures == 0,
        f" [{total} supports, {failures} failures, {time.time()-t0:.1f}s]",
    )


def test_criterion_8_milnor_numbers():
    t0 = time.time()
    failures = []
    for a in range(2, 7):
        for b in range(2, 7):
            mu = milnor_number(parse_polynomial(f"x1^{a} + x2^{b}", 2))
            if mu != (a - 1) * (b - 1):
                failures.append((a, b, mu))
    if milnor_number(parse_polynomial("x1^2 + x2^2 + x3^2", 3)) != 1:
        failures.append("x^2+y^2+z^2")
    if milnor_number(parse_polynomial("x1^5", 1)) != 4:
        failures.append("x^5")
    elapsed = time.time() - t0
    _report(
        8,
        "Milnor numbers match the product formula and the sphere/cusp cases",
        not failures and elapsed < 10,
        f" [{25 + 2} cases, failures: {failures or 'none'}, {elapsed:.1f}s]",
    )


def test_criterion_9_volume_grid_oracle():
    t0 = time.time()
    rng = random.Random(909)
    m = 64
    failures = 0
    for _ in range(20):
        a = rng.randint(2, 8)
        b = rng.randint(2, 8)
        gens = {(a, 0), (0, b)}
        for _ in range(rng.randint(0, 3)):
            gens.add((rng.randint(1, max(1, a - 1)), rng.randint(1, max(1, b - 1))))
        N = LatticePolytope(2, tuple(gens), orthant_recession=True)
        vols = volumes(under_diagram_region(N))
        chain = lower_chain(gens)
        grid = grid_area(chain, m)
        # undercount bound: (a + b) * h <= perimeter * h
        if not (0 <= vols.dim_volume(2) - grid <= Fraction(a + b, m)):
            failures += 1
        if vols.dim_volume(1) != a + b:
            failures += 1
    _report(
        9,
        "triangulated volumes match the 1/64-grid refinement within the bound",
        failures == 0,
        f" [20 diagrams, {failures} failures, {time.time()-t0:.1f}s]",
    )
