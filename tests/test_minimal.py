"""Minimal sub-polytopes, special vertices and the coordinate reduction."""

import itertools
import random
from fractions import Fraction

import pytest
from oracles import (
    certify_via_minimal,
    is_special_vertex,
    lp_is_minimal,
    lp_minimal_descent,
    reduce_special,
)

from newtoncert import _linalg, cli, lp, polytope
from newtoncert.polytope import (
    ConvexCombination,
    LatticePolytope,
    barycenter,
    contains_point,
    is_minimal,
    lattice_points,
    minimal_subpolytope,
    pair_point,
    two_delta_points,
)
from newtoncert.stencil import certify


def _contains_o(points, n):
    M = LatticePolytope(n, tuple(points))
    return isinstance(contains_point(M, barycenter(n)), ConvexCombination)


def _brute_force_minimal(points, n):
    """Exhaustive check: no proper subset hull of the lattice points
    contains the barycenter."""
    pts = lattice_points(LatticePolytope(n, tuple(points)))
    if not _contains_o(pts, n):
        return False
    for size in range(1, len(pts)):
        for sub in itertools.combinations(pts, size):
            if _contains_o(sub, n):
                return False
    return True


def test_minimal_subpolytope_examples():
    # full quadratic simplex in 2 vars shrinks to the mixed point
    full = LatticePolytope(2, ((2, 0), (1, 1), (0, 2)))
    assert minimal_subpolytope(full).generators == ((1, 1),)
    # the off-diagonal triangle in 3 vars is already minimal
    tri = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    assert set(minimal_subpolytope(tri).generators) == set(tri.generators)
    seg = LatticePolytope(2, ((2, 0), (0, 2)))
    assert minimal_subpolytope(seg).generators == ((1, 1),)


def test_minimal_subpolytope_requires_barycenter():
    M = LatticePolytope(2, ((2, 0),))
    with pytest.raises(ValueError, match="barycenter"):
        minimal_subpolytope(M)


def test_minimal_subpolytope_requires_quadratic_simplex():
    outside = LatticePolytope(2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="quadratic simplex"):
        minimal_subpolytope(outside)


def test_two_diagonal_configuration_is_resolved():
    # hull of two diagonal points plus a mixed one: the diagonals must be
    # merged through their midpoint, never kept together
    M = LatticePolytope(4, ((0, 2, 0, 0), (0, 0, 0, 2), (1, 0, 1, 0)))
    mm = minimal_subpolytope(M)
    assert set(mm.generators) == {(0, 1, 0, 1), (1, 0, 1, 0)}
    assert is_minimal(mm)


def test_minimal_outputs_are_brute_force_minimal():
    rng = random.Random(77)
    for n in (2, 3):
        pts = two_delta_points(n)
        for mask in range(1, 2 ** len(pts)):
            subset = tuple(pts[k] for k in range(len(pts)) if mask >> k & 1)
            M = LatticePolytope(n, subset)
            if not isinstance(contains_point(M, barycenter(n)), ConvexCombination):
                continue
            mm = minimal_subpolytope(M)
            assert _brute_force_minimal(mm.generators, n), (subset, mm.generators)
            assert set(lattice_points(mm)) <= set(lattice_points(M))
    # spot checks in 4 variables
    pts4 = two_delta_points(4)
    for _ in range(25):
        subset = tuple(sorted(rng.sample(pts4, rng.randint(2, 8))))
        M = LatticePolytope(4, subset)
        if not isinstance(contains_point(M, barycenter(4)), ConvexCombination):
            continue
        mm = minimal_subpolytope(M)
        assert _brute_force_minimal(mm.generators, 4)


def test_minimal_equals_lp_descent_up_to_n4():
    """One LP with closed-form diagonal merges gives the polytope of the
    re-solving descent on every support with n <= 4."""
    for n in (1, 2, 3, 4):
        pts = two_delta_points(n)
        for mask in range(1, 2 ** len(pts)):
            subset = tuple(pts[k] for k in range(len(pts)) if mask >> k & 1)
            M = LatticePolytope(n, subset)
            expected = lp_minimal_descent(M)
            if expected is None:
                with pytest.raises(ValueError, match="barycenter"):
                    minimal_subpolytope(M)
            else:
                assert minimal_subpolytope(M) == expected, subset


def test_minimal_makes_one_lp(monkeypatch):
    """minimal_subpolytope and certify_via_minimal each solve exactly one LP
    on seeded supports with n = 2..10, inside and outside the barycenter."""
    calls = []
    solve = lp.solve_eq_nonneg

    def counted(rows, rhs):
        calls.append(1)
        return solve(rows, rhs)

    monkeypatch.setattr(lp, "solve_eq_nonneg", counted)
    rng = random.Random(1414)
    inside = 0
    for n in range(2, 11):
        pts = two_delta_points(n)
        for _ in range(8):
            size = rng.randint(2, min(3 * n, len(pts)))
            M = LatticePolytope(n, tuple(rng.sample(pts, size)))
            contains_o = certify(M).kind == "matching"
            calls.clear()
            if contains_o:
                mm = minimal_subpolytope(M)
                assert len(calls) == 1
                assert is_minimal(mm)
                assert set(mm.generators) <= set(lattice_points(M))
                inside += 1
            calls.clear()
            assert certify_via_minimal(M).kind == ("matching" if contains_o else "cover")
            assert len(calls) == 1
    assert inside >= 30


def test_minimal_takes_first_basic_solution():
    """At n = 5 the first basic solution's support, merged, is the answer,
    where repeated solves would land on another minimal polytope."""
    M = LatticePolytope(5, ((0, 0, 0, 0, 2), (0, 0, 0, 2, 0), (0, 0, 2, 0, 0),
                            (0, 1, 0, 1, 0), (0, 1, 1, 0, 0), (1, 0, 0, 0, 1)))
    mm = minimal_subpolytope(M)
    assert mm.generators == ((0, 0, 0, 2, 0), (0, 1, 1, 0, 0), (1, 0, 0, 0, 1))
    assert lp_minimal_descent(M).generators == (
        (0, 0, 2, 0, 0), (0, 1, 0, 1, 0), (1, 0, 0, 0, 1))
    assert is_minimal(mm)


def test_minimal_checks_merged_weights_by_substitution(monkeypatch):
    """A wrong basic solution, a valid combination off the barycenter, is
    caught before anything is returned, merged or not."""
    M = LatticePolytope(2, ((2, 0), (1, 1), (0, 2)))
    for wrong in (ConvexCombination(((0, 2),), (1,)),
                  ConvexCombination(((0, 2), (2, 0)), (Fraction(1, 4), Fraction(3, 4)))):
        monkeypatch.setattr(polytope, "contains_point", lambda P, q, wrong=wrong: wrong)
        with pytest.raises(RuntimeError, match="merged weights do not give the barycenter"):
            minimal_subpolytope(M)


def test_minimal_checks_merged_support_by_pair_graph(monkeypatch, capsys):
    """A merged support that the pair-graph walk rejects is an internal
    error, which the minimal subcommand reports with exit code 3."""
    monkeypatch.setattr(polytope, "_minimal_permutation", lambda M: None)
    M = LatticePolytope(2, ((2, 0), (1, 1), (0, 2)))
    with pytest.raises(RuntimeError, match="merged support is not minimal"):
        minimal_subpolytope(M)
    assert cli.run(["minimal", "--n", "2", "--points", "2,0;1,1;0,2"]) == 3
    assert capsys.readouterr().out == '{"error":"merged support is not minimal","internal":true}\n'


def test_is_minimal_matches_brute_force():
    """The pair-graph reading equals the LP-plus-rank definition on every
    support with n <= 4, and the exhaustive subset search for n <= 3."""
    for n in (1, 2, 3, 4):
        pts = two_delta_points(n)
        for mask in range(1, 2 ** len(pts)):
            subset = tuple(pts[k] for k in range(len(pts)) if mask >> k & 1)
            M = LatticePolytope(n, subset)
            assert is_minimal(M) == lp_is_minimal(M), subset
            if n <= 3:
                assert is_minimal(M) == _brute_force_minimal(subset, n), subset


def _random_minimal(n, rng):
    """Pair points of a random minimal polytope in 2D: the indices split
    into single edges, odd cycles and at most one loop."""
    while True:
        idx = rng.sample(range(n), n)
        pts, loop = [], False
        while idx:
            sizes = [k for k in range(2, len(idx) + 1) if k == 2 or k % 2]
            if not loop:
                sizes.append(1)
            if not sizes:
                break
            k = rng.choice(sizes)
            part, idx = idx[:k], idx[k:]
            loop = loop or k == 1
            if k <= 2:
                pts.append(pair_point(n, part[0], part[-1]))
            else:
                pts += [pair_point(n, part[t], part[(t + 1) % k]) for t in range(k)]
        if not idx:
            return LatticePolytope(n, tuple(pts))


def test_is_minimal_and_reduce_special_solve_no_lp(monkeypatch):
    """On minimal polytopes up to n = 8, is_minimal, the permutation read
    off the pair graph and the special-vertex reduction (the oracle copy,
    on is_minimal and lattice_points) run no LP and no rank."""

    def forbidden(*args):
        raise AssertionError("minimality left the pair graph")

    rng = random.Random(1313)
    cases = [_random_minimal(n, rng) for n in range(1, 9) for _ in range(12)]
    monkeypatch.setattr(lp, "solve_eq_nonneg", forbidden)
    monkeypatch.setattr(_linalg, "_echelon", forbidden)
    reduced = 0
    for M in cases:
        assert is_minimal(M), M.generators
        sigma = polytope._minimal_permutation(M)
        assert sorted(sigma) == list(range(M.n))
        assert {pair_point(M.n, i, j) for i, j in enumerate(sigma)} == set(M.generators)
        for v in lattice_points(M):
            if is_special_vertex(M, v):
                red, _ = reduce_special(M, v)
                assert is_minimal(red)
                reduced += 1
        # one more pair point always breaks minimality
        extra = [p for p in two_delta_points(M.n) if p not in M.generators]
        if extra:
            assert not is_minimal(LatticePolytope(M.n, M.generators + (rng.choice(extra),)))
    assert reduced > 0


def test_special_vertex_examples():
    M = LatticePolytope(3, ((1, 1, 0), (0, 0, 2)))
    assert is_special_vertex(M, (1, 1, 0))
    assert is_special_vertex(M, (0, 0, 2))
    M2 = LatticePolytope(3, ((1, 1, 0), (1, 0, 1)))
    assert not is_special_vertex(M2, (1, 1, 0))


def test_special_vertex_requires_membership():
    M = LatticePolytope(3, ((1, 1, 0), (0, 0, 2)))
    with pytest.raises(ValueError, match="lattice point"):
        is_special_vertex(M, (0, 1, 1))


def test_special_vertex_index_symmetry_for_minimal():
    # for minimal polytopes the defining index can be taken on either slot
    for n in (2, 3, 4):
        pts = two_delta_points(n)
        for mask in range(1, 2 ** len(pts)):
            subset = tuple(pts[k] for k in range(len(pts)) if mask >> k & 1)
            M = LatticePolytope(n, subset)
            if not is_minimal(M):
                continue
            L = lattice_points(M)
            for v in L:
                idx = [k for k, c in enumerate(v) if c]
                i, j = (idx[0], idx[0]) if len(idx) == 1 else (idx[0], idx[1])
                via_i = all(p[i] == 0 for p in L if p != v)
                via_j = all(p[j] == 0 for p in L if p != v)
                assert via_i == via_j, (subset, v)


def test_reduce_special_examples():
    M = LatticePolytope(3, ((1, 1, 0), (0, 0, 2)))
    red, dropped = reduce_special(M, (0, 0, 2))
    assert red.generators == ((1, 1),)
    assert dropped == (2,)

    M2 = LatticePolytope(4, ((1, 1, 0, 0), (0, 0, 1, 1)))
    red2, dropped2 = reduce_special(M2, (0, 0, 1, 1))
    assert red2.generators == ((1, 1),)
    assert dropped2 == (2, 3)

    M3 = LatticePolytope(2, ((1, 1),))
    red3, dropped3 = reduce_special(M3, (1, 1))
    assert red3.n == 0 and red3.generators == ()
    assert dropped3 == (0, 1)


def test_reduce_special_preconditions():
    not_minimal = LatticePolytope(2, ((2, 0), (1, 1), (0, 2)))
    with pytest.raises(ValueError, match="not minimal"):
        reduce_special(not_minimal, (1, 1))
    M = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    with pytest.raises(ValueError, match="special"):
        reduce_special(M, (1, 1, 0))


def test_reduce_special_roundtrip():
    """Re-adjoining the dropped pair point to a minimal reduced polytope
    gives back a minimal polytope (both directions of the reduction)."""
    for n in (3, 4):
        pts = two_delta_points(n)
        for mask in range(1, 2 ** len(pts)):
            subset = tuple(pts[k] for k in range(len(pts)) if mask >> k & 1)
            M = LatticePolytope(n, subset)
            if not is_minimal(M):
                continue
            for v in lattice_points(M):
                if not is_special_vertex(M, v):
                    continue
                red, dropped = reduce_special(M, v)
                assert is_minimal(red)
                # rebuild: embed reduced points and re-adjoin v
                keep = [c for c in range(n) if c not in dropped]
                rebuilt = []
                for p in red.generators:
                    q = [0] * n
                    for c, val in zip(keep, p):
                        q[c] = val
                    rebuilt.append(tuple(q))
                rebuilt.append(v)
                assert is_minimal(LatticePolytope(n, tuple(rebuilt)))
