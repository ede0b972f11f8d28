"""Batch command-line front end; every subcommand emits one JSON document.

Exit codes: 0 success, 1 domain error (with {"error": ...} on stdout),
2 usage error, 3 failed internal self-check (with {"error": ...,
"internal": true} on stdout; this is a bug, not a bad input).  Variables
and certificate indices are 1-based in the surface format.  --n below 1
or above MAX_N is a domain error, raised before the input is parsed.  A
seed that is not an integer, from --seed or from NEWTON_CERTIFY_SEED, is
a usage error.

A request imports only the modules its subcommand calls: this module
imports nothing from the package at its top, and _dispatch imports per
subcommand.  The argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

SEED_ENV = "NEWTON_CERTIFY_SEED"
MAX_N = 1000  # pair closures and covers take n^2 time and memory


def _parse_points(text: str, n: int):
    from .polytope import LatticePolytope

    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = tuple(int(v) for v in chunk.split(","))
        if len(coords) != n:
            raise ValueError(f"point {chunk!r} does not have {n} coordinates")
        points.append(coords)
    if not points:
        raise ValueError("empty point list")
    return LatticePolytope(n, tuple(points), False)


def _parse_covector(text: str):
    from fractions import Fraction

    entries = []
    for v in text.split(","):
        v = v.strip()
        if "e" in v or "E" in v:  # Fraction("1e2000000") builds every digit
            raise ValueError(f"covector entry {v!r} has an exponent")
        try:
            entries.append(Fraction(v))
        except ZeroDivisionError:
            raise ValueError(f"covector entry {v!r} has a zero denominator") from None
    return entries


def _emit(doc: dict) -> int:
    print(json.dumps(doc, separators=(",", ":")))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newtoncert",
        description="Exact Newton polytope geometry, nondegeneracy "
        "certificates and Milnor numbers.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for generic sampling (default: env %s)" % SEED_ENV)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, poly=False, points=False, flags=()):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=int, required=True, help="number of variables")
        if poly:
            p.add_argument("--poly", required=True, help="polynomial in x1..xn")
        if points:
            p.add_argument("--points", required=True,
                           help="semicolon-separated lattice points, e.g. '1,1,0;0,0,2'")
        for flag, helpmsg in flags:
            p.add_argument(flag, action="store_true", help=helpmsg)
        return p

    add("newton", "Newton polyhedron (or polytope) of a polynomial", poly=True,
        flags=(("--polytope", "emit the plain polytope without recession cone"),))
    p = sub.add_parser("contains-o", help="membership of the barycenter, with witness")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--points")
    group.add_argument("--poly")
    add("stencil", "stencil of a polytope in the quadratic simplex", points=True)
    add("certify", "matching or cover certificate for a support polytope", points=True)
    add("minimal", "minimal sub-polytope still containing the barycenter", points=True)
    add("morse", "never-Morse / generically-Morse classification", poly=True)
    add("milnor", "Milnor number via the Newton diagram", poly=True)
    w = add("face", "restriction of a polynomial to a diagram face", poly=True)
    w.add_argument("--w", required=True, help="positive rational covector, e.g. '1,1/2'")
    return parser


def run(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    seed = args.seed
    if seed is None and os.environ.get(SEED_ENV):
        try:
            seed = int(os.environ[SEED_ENV])
        except ValueError:
            parser.error(f"environment variable {SEED_ENV}: invalid int value: "
                         f"{os.environ[SEED_ENV]!r}")
    try:
        return _dispatch(args, seed)
    except (ValueError, ZeroDivisionError) as exc:  # poly.ParseError is a ValueError
        print(json.dumps({"error": str(exc)}, separators=(",", ":")))
        return 1
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc), "internal": True}, separators=(",", ":")))
        return 3


def _dispatch(args, seed) -> int:
    # each branch imports the modules its subcommand calls, and no others
    if args.n < 1:
        raise ValueError(f"--n {args.n} is below 1: there must be at least one variable")
    if args.n > MAX_N:
        raise ValueError(f"--n {args.n} exceeds the limit of {MAX_N} variables")
    if args.command == "newton":
        from .poly import parse_polynomial
        from .polytope import newton_polyhedron, newton_polytope

        f = parse_polynomial(args.poly, args.n)
        hull = newton_polytope(f) if args.polytope else newton_polyhedron(f)
        return _emit(hull.to_json_dict())

    if args.command == "contains-o":
        from .polytope import ConvexCombination, barycenter, contains_point

        if args.points:
            M = _parse_points(args.points, args.n)
        else:
            from .poly import parse_polynomial
            from .polytope import newton_polyhedron

            M = newton_polyhedron(parse_polynomial(args.poly, args.n))
        result = contains_point(M, barycenter(args.n))
        if isinstance(result, ConvexCombination):
            return _emit({"contains": True, "combination": result.to_json_dict()})
        return _emit({"contains": False, "separation": result.to_json_dict()})

    if args.command == "stencil":
        from .stencil import stencil_of

        M = _parse_points(args.points, args.n)
        return _emit(stencil_of(M).to_json_dict())

    if args.command == "certify":
        from .stencil import certify

        M = _parse_points(args.points, args.n)
        cert = certify(M)
        doc = cert.to_json_dict()
        if seed is not None and cert.kind == "matching":
            doc["sample"] = _sample_evidence(M, seed)
        return _emit(doc)

    if args.command == "minimal":
        from .polytope import minimal_subpolytope

        M = _parse_points(args.points, args.n)
        return _emit(minimal_subpolytope(M).to_json_dict())

    if args.command == "morse":
        from .morse import classify_support, quadratic_restriction
        from .poly import parse_polynomial
        from .polytope import LatticePolytope

        # the verdict reads only the degree-2 generators: no vertex reduction
        f = parse_polynomial(args.poly, args.n)
        if f.is_zero():
            raise ValueError("the zero polynomial has no Newton polyhedron")
        N = LatticePolytope(f.n_vars, f.support(), orthant_recession=True)
        verdict = classify_support(N)
        doc = verdict.to_json_dict()
        if seed is not None and verdict.kind == "generically_morse":
            restricted = quadratic_restriction(N)
            doc["sample"] = _sample_evidence(restricted, seed)
        return _emit(doc)

    if args.command == "milnor":
        from .kouchnirenko import INFINITE, milnor_number
        from .poly import parse_polynomial

        f = parse_polynomial(args.poly, args.n)
        mu = milnor_number(f)
        value = "infinite" if mu == INFINITE else mu
        return _emit({"mu": value, "conditional": True})

    if args.command == "face":
        from .kouchnirenko import face_restriction
        from .poly import parse_polynomial

        f = parse_polynomial(args.poly, args.n)
        restricted = face_restriction(f, _parse_covector(args.w))
        return _emit({"poly": restricted.render()})

    raise AssertionError(f"unhandled command {args.command}")


def _sample_evidence(M, seed: int) -> dict:
    from .poly import integer_determinant
    from .stencil import sample_entries, stencil_of

    det = integer_determinant(sample_entries(stencil_of(M), seed))
    return {"seed": seed, "det": str(det), "nonzero": bool(det)}


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
