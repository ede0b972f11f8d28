"""Morse classification of supports and concrete Hessian tests."""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from newtoncert import cli, morse
from newtoncert.morse import (
    GENERICALLY_MORSE,
    NEVER_MORSE,
    classify_support,
    genericity_gap_demo,
    is_morse,
    quadratic_restriction,
)
from newtoncert.poly import SparsePolynomial, monomial, parse_polynomial
from newtoncert.polytope import LatticePolytope, newton_polyhedron
from newtoncert.stencil import CoverCertificate, MatchingCertificate


def test_classify_examples():
    v = classify_support(newton_polyhedron(parse_polynomial("x1^2 + x2^2", 2)))
    assert v.kind == GENERICALLY_MORSE
    assert isinstance(v.certificate, MatchingCertificate)
    assert v.certificate.sigma == (0, 1)

    v2 = classify_support(newton_polyhedron(parse_polynomial("x1^2 + x2^3", 2)))
    assert v2.kind == NEVER_MORSE
    assert isinstance(v2.certificate, CoverCertificate)

    v3 = classify_support(
        newton_polyhedron(parse_polynomial("x1*x2 + x1^5 + x2^7", 2))
    )
    assert v3.kind == GENERICALLY_MORSE


def test_classify_support_without_quadratic_points():
    M = newton_polyhedron(parse_polynomial("x1^3 + x2^3", 2))
    v = classify_support(M)
    assert v.kind == NEVER_MORSE
    assert v.certificate.I == () and v.certificate.J == ()


def test_classify_plain_polytope_input():
    M = LatticePolytope(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    assert classify_support(M).kind == GENERICALLY_MORSE


def test_is_morse_examples():
    assert is_morse(parse_polynomial("x1*x2 + x2^3", 2))
    assert not is_morse(parse_polynomial("x1^2 + x2^3", 2))
    assert is_morse(parse_polynomial("x1^2 + x2^2 + x3^2", 3))


def test_is_morse_complex_coefficients():
    f = parse_polynomial("(0+1i)*x1*x2 + (1/2-1i)*x2^2 + x1^3", 2)
    assert is_morse(f)  # det H = -(i)^2 = 1
    g = parse_polynomial("(0+1i)*x1^2 + x1^3", 1)
    assert is_morse(g)


def test_one_variable_classification():
    assert classify_support(
        newton_polyhedron(parse_polynomial("x1^2", 1))
    ).kind == GENERICALLY_MORSE
    v = classify_support(newton_polyhedron(parse_polynomial("x1^3", 1)))
    assert v.kind == NEVER_MORSE
    assert not is_morse(parse_polynomial("x1^3", 1))
    assert is_morse(parse_polynomial("x1^2", 1))


def test_is_morse_rejects_nonsingular_input():
    with pytest.raises(ValueError):
        is_morse(parse_polynomial("1 + x1^2", 1))
    with pytest.raises(ValueError):
        is_morse(parse_polynomial("x1 + x1^2", 1))


def test_verdict_depends_only_on_two_jet():
    rng = random.Random(314)
    for _ in range(60):
        n = rng.randint(2, 3)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exp = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(exp) != 2:
                continue
            terms[exp] = rng.randint(-9, 9)
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            continue
        f = SparsePolynomial(n, terms)
        higher = f
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(exp) >= 3:
                higher = higher + monomial(n, exp, rng.randint(-9, 9))
        assert is_morse(f) == is_morse(higher)


def test_classify_relabeling_invariance():
    rng = random.Random(2718)
    from newtoncert.polytope import two_delta_points

    for _ in range(40):
        n = rng.randint(2, 4)
        pts = two_delta_points(n)
        subset = [rng.choice(pts) for _ in range(rng.randint(1, 5))]
        M = LatticePolytope(n, tuple(subset))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = LatticePolytope(
            n, tuple(tuple(p[perm[k]] for k in range(n)) for p in subset)
        )
        assert classify_support(M).kind == classify_support(relabeled).kind


def test_quadratic_restriction():
    M = newton_polyhedron(parse_polynomial("x1^2 + x2^3", 2))
    r = quadratic_restriction(M)
    assert r.generators == ((2, 0),)
    assert quadratic_restriction(
        newton_polyhedron(parse_polynomial("x1^3 + x2^4", 2))
    ) is None


def test_verdict_and_sample_list_no_lattice_points(capsys, monkeypatch):
    """classify_support and morse --seed read the hull of the degree-2
    generators through its pair closure, never its list of pair points."""

    def forbidden(*args):
        raise AssertionError("morse listed the lattice points")

    monkeypatch.setattr(morse, "lattice_points", forbidden)
    monkeypatch.delenv("NEWTON_CERTIFY_SEED", raising=False)
    M = newton_polyhedron(parse_polynomial("x1^2 + x2^2 + x3^2 + x1^5*x2", 3))
    assert classify_support(M).kind == GENERICALLY_MORSE
    assert classify_support(
        newton_polyhedron(parse_polynomial("x1^2 + x1*x2^3 + x2^7", 2))).kind == NEVER_MORSE
    assert cli.run(["--seed", "5", "morse", "--n", "3", "--poly", "x1^2 + x2^2 + x3^2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == GENERICALLY_MORSE and doc["sample"]["nonzero"]


def test_morse_n1000_under_one_gib():
    """morse at MAX_N holds n^2 memory, not n^3: it answers with the child's
    address space capped at 1 GiB.  On the sum of squares the matching is
    the identity; on x1^2 plus the path x_i*x_{i+1} the last row's
    augmenting path runs back through all 1,000 rows."""
    n = 1000
    squares = " + ".join(f"x{i}^2" for i in range(1, n + 1))
    path = " + ".join(["x1^2"] + [f"x{i}*x{i + 1}" for i in range(1, n)])
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("NEWTON_CERTIFY_SEED", None)
    for poly, sigma in ((squares, list(range(1, n + 1))),
                        (path, [(i ^ 1) + 1 for i in range(n)])):
        proc = subprocess.run([sys.executable, "-m", "newtoncert.cli", "morse", "--n", str(n),
                               "--poly", poly], env=env, preexec_fn=limit, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-500:]
        doc = json.loads(proc.stdout)
        assert doc["kind"] == GENERICALLY_MORSE
        assert doc["certificate"]["sigma"] == sigma


def test_degree_below_two_rejected():
    """A constant or linear generator means no singularity at 0: no verdict."""
    for text, n, message in (
        ("x1 + x1^2 + x2*x3^3 + x2^2*x3", 3, "nonzero linear term"),
        ("x1 + x2^2", 2, "nonzero linear term"),
        ("1 + x2^2", 2, "nonzero constant term"),
    ):
        M = newton_polyhedron(parse_polynomial(text, n))
        with pytest.raises(ValueError, match=message):
            classify_support(M)
        with pytest.raises(ValueError, match=message):
            quadratic_restriction(M)
    plain = LatticePolytope(2, ((1, 0), (0, 2)))
    with pytest.raises(ValueError, match="nonzero linear term"):
        classify_support(plain)


def test_genericity_gap_demo():
    M = newton_polyhedron(parse_polynomial("x1*x2 + x1^5 + x2^7", 2))
    assert genericity_gap_demo(M, [1, 2, 3]) is None

    full = LatticePolytope(2, ((2, 0), (1, 1), (0, 2)))
    assert genericity_gap_demo(full, range(10)) is None

    diag = LatticePolytope(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert genericity_gap_demo(diag, [1]) is None


def test_genericity_gap_demo_raises_on_non_morse_sample(monkeypatch):
    """A non-Morse sample is an internal error that names its seed."""
    monkeypatch.setattr(morse, "is_morse", lambda f: False)
    full = LatticePolytope(2, ((2, 0), (1, 1), (0, 2)))
    with pytest.raises(RuntimeError, match=r"not Morse \(seed 7\)"):
        genericity_gap_demo(full, [7, 8])


def test_genericity_gap_demo_rejects_never_morse():
    M = newton_polyhedron(parse_polynomial("x1^2 + x2^3", 2))
    with pytest.raises(ValueError, match="not generically Morse"):
        genericity_gap_demo(M, [1])


def test_box_supports_three_vars():
    """Never-Morse verdicts force singular Hessians over {0..4}^3 supports:
    all single monomials plus seeded multi-monomial draws."""
    rng = random.Random(808)
    box = [
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if a + b + c >= 2
    ]
    supports = [(p,) for p in box]
    for _ in range(50):
        supports.append(tuple(sorted(rng.sample(box, rng.randint(2, 5)))))
    for support in supports:
        M = LatticePolytope(3, support, orthant_recession=True)
        verdict = classify_support(M)
        if verdict.kind == NEVER_MORSE:
            for _ in range(10):
                coeffs = {
                    e: rng.choice((-1, 1)) * rng.randint(1, 99) for e in support
                }
                assert not is_morse(SparsePolynomial(3, coeffs)), support
        else:
            assert genericity_gap_demo(M, range(20)) is None
