"""Regenerate the golden files under bench/golden from the current program.

    python3 bench/make_golden.py

Goldens are regression references, not oracles: they record what the
program answered when they were made, for the answers the benchmark has
no independent check for (Milnor numbers at n = 3..5, CLI stdout) and for
the seeded sample stream.  Every input comes from fixed generator seeds,
so the pools do not depend on the benchmark's --seed; a run's seed only
picks the order and the mix drawn from them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import oracles
import workloads as W
from run import SRC, Program

N_PER_BUCKET = 6

# name -> (n, smallest V, largest V); V = vertices of the Newton polyhedron.
# Milnor cost grows as C(V, n): the largest n = 4 bucket reaches V = 21
# (about a second per call); n = 5 stays small so no call dominates a run.
MILNOR_BUCKETS = {
    "n3-small": (3, 10, 12),
    "n3-large": (3, 19, 21),
    "n4-small": (4, 10, 12),
    "n4-mid": (4, 15, 16),
    "n4-large": (4, 20, 21),
    "n5": (5, 10, 12),
}


def surface_diagram(n, rng):
    """Pure powers A*e_i plus points near the convex surface sum sqrt(x_i / A) = 1.

    The superlevel set of a concave function is convex, so most rounded
    points stay vertices of the Newton polyhedron.
    """
    A = rng.randint({3: 14, 4: 12, 5: 8}[n], {3: 34, 4: 24, 5: 12}[n])
    pts = {tuple(A if i == j else 0 for i in range(n)) for j in range(n)}
    for _ in range(rng.randint(5, 14 * n)):
        w = [rng.random() for _ in range(n)]
        s = sum(w)
        pts.add(tuple(round(A * (v / s) ** 2) for v in w))
    pts = sorted(p for p in pts if sum(p) >= 2)
    return W.render(n, [(rng.randint(1, 9), p) for p in pts])


def milnor_pool(prog):
    rng = random.Random("golden-milnor")
    out = []
    for bucket, (n, lo, hi) in MILNOR_BUCKETS.items():
        found = 0
        while found < N_PER_BUCKET:
            text = surface_diagram(n, rng)
            f = prog.poly.parse_polynomial(text, n)
            V = len(prog.polytope.newton_polyhedron(f).generators)
            if lo <= V <= hi:
                mu = prog.kouchnirenko.milnor_number(f)
                out.append({"bucket": bucket, "n": n, "V": V, "poly": text, "mu": mu})
                found += 1
    return out


def random_poly(n, rng):
    terms = {}
    for _ in range(rng.randint(2, 6)):
        exp = [rng.randint(0, 5) for _ in range(n)]
        if sum(exp) >= 2:
            terms[tuple(exp)] = rng.choice(["1", "2", "3", "1/2", "(1/2-3i)", "7"])
    for i in range(n):  # a pure power per axis keeps every query bounded
        exp = [0] * n
        exp[i] = rng.randint(2, 6)
        terms[tuple(exp)] = "1"
    return " + ".join(f"{c}*" + "*".join(f"x{k + 1}^{e}" for k, e in enumerate(exp) if e)
                      for exp, c in terms.items())


def points_arg(support):
    return ";".join(",".join(map(str, p)) for p in support)


def support(n, rng, verdict=None):
    kind = rng.choice([k for k in W.support_kinds(n) if verdict in (None, k[1])])
    return W.make_support(n, *kind, rng)


def cli_requests(prog):
    """(class, argv, support or None) for the request pool."""
    rng = random.Random("golden-cli")
    reqs = []
    for _ in range(5):
        n = rng.randint(2, 4)
        poly = random_poly(n, rng)
        reqs.append(("small", ["newton", "--n", str(n), "--poly", poly], None))
        reqs.append(("small", ["newton", "--n", str(n), "--poly", random_poly(n, rng),
                               "--polytope"], None))
        reqs.append(("small", ["contains-o", "--n", str(n), "--poly", random_poly(n, rng)], None))
        reqs.append(("small", ["morse", "--n", str(n), "--poly", random_poly(n, rng)], None))
        w = ",".join(rng.choice(["1", "2", "1/2", "3/4", "5"]) for _ in range(n))
        reqs.append(("small", ["face", "--n", str(n), "--poly", random_poly(n, rng), "--w", w],
                     None))
        for cmd in ("contains-o", "stencil", "certify"):
            S = support(n, rng)
            reqs.append(("small", [cmd, "--n", str(n), "--points", points_arg(S)],
                         S if cmd == "certify" else None))
        S = support(n, rng, "matching")
        reqs.append(("small", ["minimal", "--n", str(n), "--points", points_arg(S)], None))
        text, _ = W.plane_diagram(rng)
        reqs.append(("small", ["milnor", "--n", "2", "--poly", text], None))
    for _ in range(8):
        n = rng.randint(3, 6)
        S = support(n, rng, "matching")
        reqs.append(("seed", ["--seed", str(rng.randrange(10**6)), "certify", "--n", str(n),
                              "--points", points_arg(S)], S))
        n = rng.randint(2, 4)
        reqs.append(("seed", ["--seed", str(rng.randrange(10**6)), "morse", "--n", str(n),
                              "--poly", random_poly(n, rng)], None))
    for _ in range(8):
        n = rng.randint(8, 12)
        kind = rng.choice([k for k in W.SUPPORT_KINDS if k[0] in ("indep", "sparse")])
        S = W.make_support(n, *kind, rng)
        reqs.append(("large-certify", ["certify", "--n", str(n), "--points", points_arg(S)], S))
    for _ in range(4):
        n = rng.randint(3, 4)
        text, _ = W.weighted_homogeneous(n, rng)
        reqs.append(("milnor", ["milnor", "--n", str(n), "--poly", text], None))
    while sum(1 for r in reqs if r[0] == "milnor") < 8:
        n = rng.randint(3, 4)
        text = surface_diagram(n, rng)
        f = prog.poly.parse_polynomial(text, n)
        if len(prog.polytope.newton_polyhedron(f).generators) <= 12:
            reqs.append(("milnor", ["milnor", "--n", str(n), "--poly", text], None))
    reqs += [("malformed", argv, None) for argv in (
        ["certify", "--n", "3", "--points", "2,0,0;1,2,0"],
        ["certify", "--n", "2", "--points", "1,1;x,2"],
        ["milnor", "--n", "2", "--poly", "x1 + x2^2"],
        ["morse", "--n", "2", "--poly", "x1^^2"],
        ["newton", "--n", "2", "--poly", "x3^2"],
        ["minimal", "--n", "3", "--points", "2,0,0;1,1,0"],
        ["face", "--n", "2", "--poly", "x1^2 + x2^3", "--w", "0,1"],
        ["certify", "--n", "3"],
        ["frobnicate", "--n", "2"],
        ["--seed", "abc", "certify", "--n", "2", "--points", "2,0;0,2"],
    )]
    return reqs


def cli_pool(prog):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    out = []
    for cls, argv, S in cli_requests(prog):
        proc = subprocess.run([sys.executable, "-m", "newtoncert.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=600)
        entry = {"class": cls, "argv": argv, "code": proc.returncode, "stdout": proc.stdout}
        if S is not None:
            entry.update(n=int(argv[argv.index("--n") + 1]), support=[list(p) for p in S])
        out.append(entry)
    return out


def main():
    prog = Program()
    golden = W.GOLDEN
    golden.mkdir(exist_ok=True)
    digest = W.sample_probe_digest(prog.stencil.Stencil, prog.stencil.sample_entries)
    ref = W.sample_probe_digest(lambda n, bits: bits, oracles.reference_entries)
    if digest != ref:
        raise SystemExit("program sample stream differs from the reference draw order")
    docs = {
        "sample_stream.json": {"probe": "workloads.sample_probe_digest", "sha256": digest},
        "milnor_pool.json": {"diagrams": milnor_pool(prog)},
        "cli_pool.json": {"requests": cli_pool(prog)},
    }
    for name, doc in docs.items():
        with open(golden / name, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {golden / name}")


if __name__ == "__main__":
    main()
