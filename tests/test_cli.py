"""CLI surface: JSON shapes, exit codes, determinism, seeding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from newtoncert.cli import MAX_N, run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_certify_matching_golden(capsys):
    code, out = _capture(capsys, ["certify", "--n", "3", "--points", "1,1,0;1,0,1;0,1,1"])
    assert code == 0
    assert out == '{"kind":"matching","sigma":[2,3,1]}\n'


def test_certify_cover(capsys):
    code, out = _capture(capsys, ["certify", "--n", "3", "--points", "2,0,0;1,1,0;1,0,1"])
    assert code == 0
    assert json.loads(out) == {
        "kind": "cover",
        "I": [1],
        "J": [1],
        "halfspace": {"coeffs": [2, 0, 0], "rhs": 2},
    }


def test_morse_never(capsys):
    code, out = _capture(capsys, ["morse", "--n", "2", "--poly", "x1^2 + x2^3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "never_morse"
    assert doc["certificate"]["kind"] == "cover"


def test_morse_generic(capsys):
    code, out = _capture(capsys, ["morse", "--n", "2", "--poly", "x1^2 + x2^2"])
    assert code == 0
    assert json.loads(out)["kind"] == "generically_morse"


def test_milnor_golden(capsys):
    code, out = _capture(capsys, ["milnor", "--n", "2", "--poly", "x1^3 + x2^3"])
    assert code == 0
    assert out == '{"mu":4,"conditional":true}\n'


def test_milnor_infinite(capsys):
    code, out = _capture(capsys, ["milnor", "--n", "2", "--poly", "x1^2 + x1^2*x2"])
    assert code == 0
    assert json.loads(out) == {"mu": "infinite", "conditional": True}


def test_newton_polyhedron_and_polytope(capsys):
    code, out = _capture(capsys, ["newton", "--n", "2", "--poly", "x1*x2 + x1^5 + x2^7"])
    assert code == 0
    assert json.loads(out) == {
        "n": 2,
        "generators": [[0, 7], [1, 1], [5, 0]],
        "orthant_recession": True,
    }
    code, out = _capture(
        capsys, ["newton", "--n", "2", "--poly", "x1^2 + x1*x2 + x2^2", "--polytope"]
    )
    assert json.loads(out) == {
        "n": 2,
        "generators": [[0, 2], [2, 0]],
        "orthant_recession": False,
    }


def test_contains_o_witness(capsys):
    code, out = _capture(capsys, ["contains-o", "--n", "3", "--points", "1,1,0;1,0,1;0,1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["contains"] is True
    assert doc["combination"]["weights"] == ["1/3", "1/3", "1/3"]


def test_contains_o_separation(capsys):
    code, out = _capture(capsys, ["contains-o", "--n", "2", "--points", "2,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["contains"] is False
    assert "separation" in doc


def test_contains_o_from_polynomial(capsys):
    code, out = _capture(capsys, ["contains-o", "--n", "2", "--poly", "x1^2 + x2^3"])
    assert json.loads(out)["contains"] is False


def test_stencil(capsys):
    code, out = _capture(capsys, ["stencil", "--n", "2", "--points", "2,0;0,2"])
    assert code == 0
    assert json.loads(out) == {"n": 2, "bits": [[1, 1], [1, 1]]}


def test_minimal(capsys):
    code, out = _capture(capsys, ["minimal", "--n", "2", "--points", "2,0;1,1;0,2"])
    assert code == 0
    assert json.loads(out) == {
        "n": 2,
        "generators": [[1, 1]],
        "orthant_recession": False,
    }


def test_face(capsys):
    code, out = _capture(
        capsys, ["face", "--n", "2", "--poly", "x1^2 + x1*x2 + x2^3", "--w", "1,1"]
    )
    assert code == 0
    assert json.loads(out) == {"poly": "x1*x2 + x1^2"}


def test_face_rational_covector(capsys):
    code, out = _capture(
        capsys, ["face", "--n", "2", "--poly", "x1^2 + x2^2", "--w", "1,1/2"]
    )
    assert json.loads(out) == {"poly": "x2^2"}


def test_face_covector_zero_denominator(capsys):
    code, out = _capture(
        capsys, ["face", "--n", "2", "--poly", "x1^2", "--w", "1/0,1"]
    )
    assert code == 1
    assert json.loads(out) == {"error": "covector entry '1/0' has a zero denominator"}


def test_domain_error_exit_1(capsys):
    code, out = _capture(capsys, ["milnor", "--n", "2", "--poly", "x1^2 + "])
    assert code == 1
    assert "error" in json.loads(out)


def test_bad_variable_index_exit_1(capsys):
    code, out = _capture(capsys, ["newton", "--n", "2", "--poly", "x3^2"])
    assert code == 1
    assert "exceeds" in json.loads(out)["error"]


LINEAR = "nonzero linear term: input has no singularity at 0"
CONSTANT = "nonzero constant term: input does not vanish at 0"
ZERO = "the zero polynomial has no Newton polyhedron"
MILNOR_MESSAGE = {ZERO: "zero polynomial"}


@pytest.mark.parametrize(
    "n, poly, message",
    [
        ("3", "x1 + x1^2 + x2*x3^3 + x2^2*x3", LINEAR),
        ("2", "x1 + x2^2", LINEAR),
        ("2", "1 + x2^2", CONSTANT),
        ("2", "x1 - x1", ZERO),
    ],
)
def test_morse_without_singularity_exit_1(capsys, n, poly, message):
    morse = _capture(capsys, ["morse", "--n", n, "--poly", poly])
    milnor = _capture(capsys, ["milnor", "--n", n, "--poly", poly])
    assert morse == (1, '{"error":"%s"}\n' % message)
    assert milnor == (1, '{"error":"%s"}\n' % MILNOR_MESSAGE.get(message, message))


@pytest.mark.parametrize("seed", [[], ["--seed", "5"]])
def test_morse_runs_no_lp(capsys, monkeypatch, seed):
    def no_lp(rows, rhs):
        raise AssertionError("morse ran an LP")

    monkeypatch.setattr("newtoncert.lp.solve_eq_nonneg", no_lp)
    monkeypatch.delenv("NEWTON_CERTIFY_SEED", raising=False)
    for poly, kind in (("x1^2 + x2^2 + x1^5*x2", "generically_morse"),
                       ("x1^2 + x1*x2^3 + x2^7", "never_morse")):
        code, out = _capture(capsys, [*seed, "morse", "--n", "2", "--poly", poly])
        doc = json.loads(out)
        assert code == 0 and doc["kind"] == kind
        assert ("sample" in doc) == bool(seed and kind == "generically_morse")


def test_newton_runs_no_lp(capsys, monkeypatch):
    from newtoncert import lp, polytope
    from newtoncert.poly import parse_polynomial

    def no_lp(*args):
        raise AssertionError("a Newton hull ran an LP")

    solve = lp.solve_eq_nonneg
    monkeypatch.setattr(lp, "solve_eq_nonneg", no_lp)
    monkeypatch.setattr(polytope, "contains_point", no_lp)
    f = parse_polynomial("x1*x2 + x1^5 + x2^7 + x1^2*x2^3*x3 + x3^4", 3)
    corners = ((0, 0, 4), (0, 7, 0), (1, 1, 0), (5, 0, 0))
    assert polytope.newton_polyhedron(f).generators == corners
    assert polytope.newton_polytope(f).generators == tuple(sorted(corners + ((2, 3, 1),)))
    # a quadratic form: its support lies in sum(x) = 2, and x1*x3 is a midpoint
    q = parse_polynomial("x1^2 + x1*x2 + x2*x3 + x3^2 + x1*x3", 3)
    assert polytope.newton_polytope(q).generators == ((0, 0, 2), (0, 1, 1), (1, 1, 0), (2, 0, 0))
    assert polytope.reduce_to_vertices([(2, 0), (1, 1), (0, 2)], 2, False) == ((0, 2), (2, 0))
    for flag in ([], ["--polytope"]):
        code, out = _capture(capsys, ["newton", "--n", "2", "--poly", "x1*x2 + x1^5 + x2^7", *flag])
        assert code == 0 and json.loads(out)["generators"] == [[0, 7], [1, 1], [5, 0]]

    calls = []
    monkeypatch.undo()
    monkeypatch.setattr(lp, "solve_eq_nonneg", lambda *args: calls.append(1) or solve(*args))
    code, out = _capture(capsys, ["contains-o", "--n", "2", "--poly", "x1*x2 + x1^5 + x2^7"])
    assert code == 0 and json.loads(out)["contains"] is True
    assert len(calls) == 1  # the barycenter membership only


def test_oversize_n_rejected_before_parsing(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("an oversize request reached the computation")

    for name in ("polytope._pair_closure", "stencil._pair_closure",
                 "cli.parse_polynomial", "cli._parse_points"):
        monkeypatch.setattr("newtoncert." + name, never)
    too_many = str(MAX_N + 1)
    message = '{"error":"--n %s exceeds the limit of %d variables"}\n' % (too_many, MAX_N)
    for argv in (["morse", "--n", too_many, "--poly", "x1^2"],
                 ["milnor", "--n", too_many, "--poly", "x1^2"],
                 ["newton", "--n", too_many, "--poly", "x1^2"],
                 ["face", "--n", too_many, "--poly", "x1^2", "--w", "1"],
                 ["contains-o", "--n", too_many, "--poly", "x1^2"],
                 ["certify", "--n", too_many, "--points", "2"],
                 ["stencil", "--n", too_many, "--points", "2"],
                 ["minimal", "--n", too_many, "--points", "2"]):
        assert _capture(capsys, argv) == (1, message), argv


def test_internal_failure_exit_3(capsys, monkeypatch):
    def broken(M):
        raise RuntimeError("cover half-space misses a generator")

    monkeypatch.setattr("newtoncert.cli.certify", broken)
    code, out = _capture(capsys, ["certify", "--n", "2", "--points", "2,0"])
    assert code == 3
    assert out == '{"error":"cover half-space misses a generator","internal":true}\n'


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 2


def test_byte_identical_reruns(capsys):
    argv = ["certify", "--n", "4", "--points", "1,1,0,0;0,0,1,1;2,0,0,0"]
    first = _capture(capsys, argv)
    for _ in range(3):
        assert _capture(capsys, argv) == first


def test_seed_flag_adds_sample(capsys):
    argv = ["--seed", "7", "certify", "--n", "3", "--points", "1,1,0;1,0,1;0,1,1"]
    code, out = _capture(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["sample"]["seed"] == 7
    assert doc["sample"]["nonzero"] is True


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("NEWTON_CERTIFY_SEED", "11")
    code, out = _capture(capsys, ["morse", "--n", "2", "--poly", "x1^2 + x2^2"])
    doc = json.loads(out)
    assert doc["sample"]["seed"] == 11


@pytest.mark.parametrize("argv, env", [
    (["--seed", "abc"], None),
    ([], "abc"),
    ([], "1.5"),
])
def test_non_integer_seed_is_a_usage_error(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("NEWTON_CERTIFY_SEED", raising=False)
    else:
        monkeypatch.setenv("NEWTON_CERTIFY_SEED", env)
    with pytest.raises(SystemExit) as exc:
        run(argv + ["certify", "--n", "2", "--points", "2,0;0,2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid int value" in err
    if env is not None:
        assert "NEWTON_CERTIFY_SEED" in err and repr(env) in err


def test_without_seed_no_sample(capsys, monkeypatch):
    monkeypatch.delenv("NEWTON_CERTIFY_SEED", raising=False)
    code, out = _capture(capsys, ["morse", "--n", "2", "--poly", "x1^2 + x2^2"])
    assert "sample" not in json.loads(out)


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden" / "cli_pool.json"


def test_golden_cli_pool(capsys, monkeypatch):
    """Every request of the golden CLI corpus: same exit code, same stdout bytes."""
    monkeypatch.delenv("NEWTON_CERTIFY_SEED", raising=False)
    with open(GOLDEN) as fh:
        requests = json.load(fh)["requests"]
    assert len(requests) == 92
    for entry in requests:
        try:
            code = run(entry["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert (code, capsys.readouterr().out) == (entry["code"], entry["stdout"]), entry["argv"]


def test_cli_import_pulls_in_no_code_generation_modules():
    """Every request pays the package import: the records are plain classes,
    so importing the CLI brings in neither dataclasses nor what it imports.
    -S keeps an environment's .pth imports from hiding such a module."""
    banned = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import newtoncert.cli, sys; print([m for m in {banned!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
