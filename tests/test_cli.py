"""CLI surface: JSON shapes, exit codes, determinism, seeding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from newtoncert import cli
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
    # A1 with a non-convenient diagram: mu = 1 from the nonsingular Hessian
    code, out = _capture(capsys, ["milnor", "--n", "2", "--poly", "x1*x2"])
    assert code == 0
    assert out == '{"mu":1,"conditional":true}\n'


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


@pytest.mark.parametrize("w, entry", [
    ("nan,1", "nan"), ("", ""), ("abc,1", "abc"), ("1/2/3,1", "1/2/3"),
])
def test_face_covector_not_rational(capsys, w, entry):
    code, out = _capture(capsys, ["face", "--n", "2", "--poly", "x1^2", "--w", w])
    assert code == 1
    assert json.loads(out) == {"error": f"covector entry {entry!r} is not a rational number"}


def test_face_covector_exponent_rejected_before_fraction(capsys, monkeypatch):
    # Fraction("1e2000000") would build a 2,000,000-digit integer, so an
    # exponent is refused before any Fraction exists
    import fractions

    def forbidden(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions, "Fraction", forbidden)
    for text, entry in (("1e2000000,1", "1e2000000"), (" 2E3 ,1", "2E3")):
        with pytest.raises(ValueError, match=f"covector entry '{entry}' has an exponent"):
            cli._parse_covector(text)
    monkeypatch.undo()
    code, out = _capture(capsys, ["face", "--n", "2", "--poly", "x1^2 + x2^3", "--w", "1e2,1"])
    assert code == 1
    assert json.loads(out) == {"error": "covector entry '1e2' has an exponent"}


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
    """A Newton polyhedron, and the Newton polytope of a support in 2D, run
    no LP; any other Newton polytope runs one membership per support
    point."""
    from newtoncert import lp, polytope
    from newtoncert.poly import parse_polynomial

    def no_lp(*args):
        raise AssertionError("a Newton hull ran an LP")

    solve, contains = lp.solve_eq_nonneg, polytope.contains_point
    monkeypatch.setattr(lp, "solve_eq_nonneg", no_lp)
    monkeypatch.setattr(polytope, "contains_point", no_lp)
    f = parse_polynomial("x1*x2 + x1^5 + x2^7 + x1^2*x2^3*x3 + x3^4", 3)
    corners = ((0, 0, 4), (0, 7, 0), (1, 1, 0), (5, 0, 0))
    assert polytope.newton_polyhedron(f).generators == corners
    # a quadratic form: its support lies in sum(x) = 2, and x1*x3 is a midpoint
    q = parse_polynomial("x1^2 + x1*x2 + x2*x3 + x3^2 + x1*x3", 3)
    assert polytope.newton_polytope(q).generators == ((0, 0, 2), (0, 1, 1), (1, 1, 0), (2, 0, 0))
    assert polytope.newton_polyhedron(q).generators == ((0, 0, 2), (0, 1, 1), (1, 1, 0), (2, 0, 0))
    assert polytope.reduce_to_vertices([(2, 0), (1, 1), (0, 2)], 2, False) == ((0, 2), (2, 0))
    for flag in ([], ["--polytope"]):
        code, out = _capture(capsys, ["newton", "--n", "2", "--poly", "x1^2 + x1*x2 + x2^2", *flag])
        assert code == 0 and json.loads(out)["generators"] == [[0, 2], [2, 0]]
    code, out = _capture(capsys, ["newton", "--n", "2", "--poly", "x1*x2 + x1^5 + x2^7"])
    assert code == 0 and json.loads(out)["generators"] == [[0, 7], [1, 1], [5, 0]]

    calls = []
    monkeypatch.undo()
    monkeypatch.setattr(polytope, "contains_point", lambda *args: calls.append(1) or contains(*args))
    assert polytope.newton_polytope(f).generators == tuple(sorted(corners + ((2, 3, 1),)))
    assert len(calls) == 5  # one per support point
    del calls[:]
    code, out = _capture(capsys, ["newton", "--n", "2", "--poly", "x1*x2 + x1^5 + x2^7",
                                  "--polytope"])
    assert code == 0 and json.loads(out)["generators"] == [[0, 7], [1, 1], [5, 0]]
    assert len(calls) == 3

    calls = []
    monkeypatch.undo()
    monkeypatch.setattr(lp, "solve_eq_nonneg", lambda *args: calls.append(1) or solve(*args))
    code, out = _capture(capsys, ["contains-o", "--n", "2", "--poly", "x1*x2 + x1^5 + x2^7"])
    assert code == 0 and json.loads(out)["contains"] is True
    assert len(calls) == 1  # the barycenter membership only


def test_oversize_n_rejected_before_parsing(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("an out-of-range request reached the computation")

    for name in ("polytope._pair_closure", "stencil._pair_closure",
                 "poly.parse_polynomial", "cli._parse_points"):
        monkeypatch.setattr("newtoncert." + name, never)
    too_many = str(MAX_N + 1)
    messages = {
        too_many: '{"error":"--n %s exceeds the limit of %d variables"}\n' % (too_many, MAX_N),
        "0": '{"error":"--n 0 is below 1: there must be at least one variable"}\n',
        "-1": '{"error":"--n -1 is below 1: there must be at least one variable"}\n',
    }
    for n, message in messages.items():
        for argv in (["morse", "--n", n, "--poly", "x1^2"],
                     ["milnor", "--n", n, "--poly", "x1^2"],
                     ["newton", "--n", n, "--poly", "x1^2"],
                     ["face", "--n", n, "--poly", "x1^2", "--w", "1"],
                     ["contains-o", "--n", n, "--poly", "x1^2"],
                     ["certify", "--n", n, "--points", "2"],
                     ["stencil", "--n", n, "--points", "2"],
                     ["minimal", "--n", n, "--points", "2"]):
            assert _capture(capsys, argv) == (1, message), argv


def test_internal_failure_exit_3(capsys, monkeypatch):
    def broken(M):
        raise RuntimeError("cover half-space misses a generator")

    monkeypatch.setattr("newtoncert.stencil.certify", broken)
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


# one real request per subcommand, and a usage error
REQUESTS = {
    "newton": ["newton", "--n", "2", "--poly", "x1*x2 + x1^5 + x2^7", "--polytope"],
    "contains-o": ["contains-o", "--n", "3", "--points", "1,1,0;1,0,1;0,1,1"],
    "stencil": ["stencil", "--n", "2", "--points", "2,0;0,2"],
    "certify": ["certify", "--n", "3", "--points", "1,1,0;1,0,1;0,1,1"],
    "minimal": ["minimal", "--n", "2", "--points", "2,0;1,1;0,2"],
    "morse": ["morse", "--n", "2", "--poly", "x1^2 + x2^2"],
    "milnor": ["milnor", "--n", "2", "--poly", "x1^3 + x2^3"],
    "face": ["face", "--n", "2", "--poly", "x1^2 + x1*x2 + x2^3", "--w", "1,1"],
}
USAGE_ERROR = ["not-a-command"]
HELP = ROOT / "tests" / "cli_help.json"


def test_help_text_pinned(capsys, monkeypatch):
    """--help of the top level and of every subcommand at 80 columns, twice
    over in one process: the parser is built once and reused."""
    monkeypatch.setenv("COLUMNS", "80")
    with open(HELP) as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(["", *REQUESTS])
    for _ in range(2):
        for command, text in pinned.items():
            with pytest.raises(SystemExit) as exc:
                run([*command.split(), "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == text, command


def _request_modules(argv, code):
    """Every module a fresh `python -S -m newtoncert.cli` request imports, read
    from -X importtime.  -S keeps an environment's .pth imports from hiding a
    module; the request must end with the exit code given."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("NEWTON_CERTIFY_SEED", None)
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "newtoncert.cli",
                           *argv], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, (argv, proc.stdout, proc.stderr)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _package_modules(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("newtoncert.")}


def test_cli_import_pulls_in_no_code_generation_modules():
    """The records are plain classes, so no request brings in dataclasses
    nor what it imports."""
    banned = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    for argv, code in [*((argv, 0) for argv in REQUESTS.values()), (USAGE_ERROR, 2)]:
        modules = _request_modules(argv, code)
        assert "newtoncert" in modules, argv
        assert not banned & modules, argv


def test_request_loads_only_its_subcommand_modules():
    """A request imports the modules its subcommand calls, and no others."""
    for command in ("certify", "stencil"):
        loaded = _package_modules(_request_modules(REQUESTS[command], 0))
        assert not {"kouchnirenko", "morse", "lp", "poly", "gaussian", "_linalg"} & loaded, \
            (command, loaded)
    morse_milnor = ["milnor", "--n", "2", "--poly", "x1*x2 + x1^3"]  # mu 1 from the Hessian
    for argv in (REQUESTS["newton"], REQUESTS["milnor"], REQUESTS["face"], morse_milnor):
        loaded = _package_modules(_request_modules(argv, 0))
        assert not {"stencil", "morse"} & loaded, (argv, loaded)
    for command in ("minimal", "contains-o"):
        loaded = _package_modules(_request_modules(REQUESTS[command], 0))
        assert not {"poly", "kouchnirenko", "morse", "stencil"} & loaded, (command, loaded)
    loaded = _package_modules(_request_modules(REQUESTS["morse"], 0))
    assert not {"kouchnirenko", "lp"} & loaded, loaded
    assert _package_modules(_request_modules(USAGE_ERROR, 2)) <= {"cli"}
