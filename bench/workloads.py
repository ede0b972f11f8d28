"""Seeded inputs, the timed operation and the answer check of each workload.

Each workload draws strata of inputs from the seed (``inputs``, the
benchmark's own work, untimed) and then builds the program's objects from
them (``build``, timed as set-up).  A stratum holds
inputs of one shape (size, density, verdict), so their costs are alike;
the schedule interleaves strata by a smooth weighted round robin, which
keeps the mix of every prefix of the run close to the whole mix.  That is
what makes throughput and percentiles repeat across seeds and run lengths.

The program is reached only through module attributes looked up at call
time (``prog.stencil.certify``), so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from math import lcm
from pathlib import Path

import oracles

GOLDEN = Path(__file__).resolve().parent / "golden"
RSS_HOOK = Path(__file__).resolve().parent / "rss_hook"

# Sizes alternate cheap and costly so that any prefix holds a balanced mix.
N_ORDER = (2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7)

# (kind, verdict, density): "indep" generator sets are affinely independent
# (the unique-solve branch of lattice_points), the others dependent (the LP
# branch); density is the share of the remaining pair points drawn.
SUPPORT_KINDS = (
    ("indep", "matching", None),
    ("indep", "cover", None),
    ("sparse", "matching", 0.15),
    ("sparse", "cover", 0.25),
    ("dense", "matching", 0.6),
    ("dense", "cover", 0.75),
)


def support_kinds(n, kinds=SUPPORT_KINDS):
    """The kinds that exist at n: at n = 2 a cover leaves one row empty, so
    it holds a single point and cannot be affinely dependent."""
    return [k for k in kinds if not (n == 2 and k[0] != "indep" and k[1] == "cover")]


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _points(n, pairs):
    return tuple(sorted(oracles.pair_point(n, i, j) for i, j in pairs))


def _permutation_pairs(n, rng, independent):
    """Pair points e_i + e_sigma(i) of a random permutation.

    Cycles of odd length give n linearly independent points; an even cycle
    does not (a 2-cycle gives one point for two indices).
    """
    idx = list(range(n))
    rng.shuffle(idx)
    pairs = set()
    k = 0
    while k < n:
        left = n - k
        if independent:
            length = rng.choice([v for v in (1, 3, 5, 7, 9, 11) if v <= left])
        else:
            length = rng.randint(1, left)
        block = idx[k:k + length]
        k += length
        for a in range(length):
            i, j = block[a], block[(a + 1) % length]
            pairs.add((min(i, j), max(i, j)))
    return pairs


def _deficient_pairs(n, rng):
    """Pairs allowed under a Hall violation: rows R see only columns C, |C| < |R|.

    R gets no diagonal and no pair inside R, so the closure rule cannot
    add an entry in a row of R either.
    """
    r = rng.randint(1, (n + 1) // 2)
    idx = list(range(n))
    rng.shuffle(idx)
    R, C = set(idx[:r]), set(idx[r:2 * r - 1])
    return [(i, j) for i, j in all_pairs(n)
            if not ({i, j} & R) or (i in R and j in C) or (j in R and i in C)]


def make_support(n, kind, verdict, density, rng):
    """A support in the quadratic simplex with the requested verdict and branch."""
    for _ in range(500):
        if verdict == "matching":
            pairs = _permutation_pairs(n, rng, kind == "indep")
            pool = all_pairs(n)
        else:
            pool = _deficient_pairs(n, rng)
            pairs = set()
            if kind == "indep":
                pairs = set(rng.sample(pool, min(max(1, n // 2), len(pool))))
        if kind != "indep":
            rest = [p for p in pool if p not in pairs]
            pairs |= {p for p in rest if rng.random() < density}
            rng.shuffle(rest)
            while rest and (not pairs or oracles.rank(_points(n, pairs)) == len(pairs)):
                pairs.add(rest.pop())
        support = _points(n, pairs)
        if not support:
            continue
        independent = oracles.rank(support) == len(support)
        if independent != (kind == "indep"):
            continue
        bits = oracles.closure_bits(n, support)
        if (oracles.kuhn_matching(bits) is not None) != (verdict == "matching"):
            raise RuntimeError(f"support generator broke its verdict: {support}")
        return support
    raise RuntimeError(f"no {kind}-{verdict} support found at n={n}")


def schedule(strata, rng):
    """Endless smooth weighted round robin over (label, weight, items) strata.

    Items of a stratum cycle in a seeded order.
    """
    orders = []
    for _, _, items in strata:
        order = list(range(len(items)))
        rng.shuffle(order)
        orders.append(order)
    weights = [w for _, w, _ in strata]
    total = sum(weights)
    current = [0] * len(strata)
    pos = [0] * len(strata)
    while True:
        for k, w in enumerate(weights):
            current[k] += w
        best = max(range(len(strata)), key=current.__getitem__)
        current[best] -= total
        label, _, items = strata[best]
        order = orders[best]
        yield label, items[order[pos[best] % len(order)]]
        pos[best] += 1


def render(n, terms):
    """Polynomial text in the CLI grammar from (coefficient, exponent) terms."""
    parts = []
    for c, exp in terms:
        mono = "*".join(f"x{k + 1}" + (f"^{v}" if v > 1 else "")
                        for k, v in enumerate(exp) if v)
        parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts)


def facet_points(weights, d):
    """Exponents k >= 0 with sum(k_i * w_i) == d."""
    if len(weights) == 1:
        return [(d // weights[0],)] if d % weights[0] == 0 else []
    out = []
    for k in range(d // weights[0] + 1):
        out += [(k,) + rest for rest in facet_points(weights[1:], d - k * weights[0])]
    return out


# Largest d / w_i per n, and a cap on the facet monomials, keep each
# weighted-homogeneous input in the tens of milliseconds.
QMAX = {2: 12, 3: 7, 4: 5, 5: 4}
MAX_TERMS = 40


def weighted_homogeneous(n, rng):
    """A polynomial carrying every monomial of a weighted facet, and its q_i."""
    while True:
        q = [rng.randint(2, QMAX[n]) for _ in range(n)]
        d = lcm(*q)
        pts = facet_points([d // v for v in q], d)
        if len(pts) <= MAX_TERMS:
            return render(n, [(rng.randint(1, 9), p) for p in pts]), q


def plane_diagram(rng):
    """A convenient random diagram in two variables."""
    a, b = rng.randint(6, 40), rng.randint(6, 40)
    pts = {(a, 0), (0, b)}
    for _ in range(rng.randint(4, 14)):
        pts.add((rng.randint(0, a), rng.randint(0, b)))
    pts = sorted(p for p in pts if sum(p) >= 2)
    return render(2, [(rng.randint(1, 9), p) for p in pts]), pts


def load_golden(name):
    with open(GOLDEN / name) as fh:
        return json.load(fh)


class CertifySweep:
    """certify(LatticePolytope(n, S)) over seeded supports S in 2-Delta."""

    name = "certify-sweep"
    pool = 8
    # Costs grow smoothly with n and density, so few operations lie near
    # any one cost and the median of a few hundred would move by a fifth
    # between runs.  The dense n = 7 strata cost about the median of all
    # others, with as many strata cheaper as dearer; weighting them puts
    # the median inside one block of alike cost, drawn large enough that
    # a run meets each of its supports about once.  Doubling the n = 11
    # strata that are not independent does the same for the 90th
    # percentile.  Label: (weight, supports); others (1, pool).
    blocks = {"n7-dense-matching": (10, 64), "n7-dense-cover": (10, 64),
              "n11-sparse-matching": (2, 8), "n11-sparse-cover": (2, 8),
              "n11-dense-matching": (2, 8), "n11-dense-cover": (2, 8)}

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        strata = []
        for n in N_ORDER:
            for kind, verdict, density in support_kinds(n):
                label = f"n{n}-{kind}-{verdict}"
                weight, pool = self.blocks.get(label, (1, self.pool))
                items = [(n, make_support(n, kind, verdict, density, rng))
                         for _ in range(pool)]
                strata.append((label, weight, items))
        return strata

    def build(self, prog, strata):
        return [(label, w, [(n, s, prog.polytope.LatticePolytope(n, s)) for n, s in items])
                for label, w, items in strata]

    def run(self, prog, item):
        return prog.stencil.certify(item[2])

    def check(self, item, cert):
        n, support, _ = item
        doc = {"kind": cert.kind}
        if cert.kind == "matching":
            doc["sigma"] = cert.sigma
        else:
            doc.update(I=cert.I, J=cert.J, coeffs=cert.halfspace.coeffs,
                       rhs=cert.halfspace.rhs)
        return oracles.certificate_errors(n, support, doc)


class GenericSampling:
    """sample_entries + integer_determinant for K seeds per stencil."""

    name = "generic-sampling"
    pool = 8
    samples = 8

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        strata = []
        for n in N_ORDER:
            for kind, verdict, density in support_kinds(n, SUPPORT_KINDS[2:]):
                items = []
                for _ in range(self.pool):
                    support = make_support(n, kind, verdict, density, rng)
                    bits = oracles.closure_bits(n, support)
                    seeds = tuple(rng.randrange(2**31) for _ in range(self.samples))
                    items.append((bits, seeds, verdict == "matching"))
                strata.append((f"n{n}-{kind}-{verdict}", 1, items))
        return strata

    def build(self, prog, strata):
        return [(label, w, [(*it, prog.stencil.Stencil(len(it[0]), it[0])) for it in items])
                for label, w, items in strata]

    def run(self, prog, item):
        out = []
        for s in item[1]:
            m = prog.stencil.sample_entries(item[3], s)
            out.append((m, prog.poly.integer_determinant(m)))
        return out

    def check(self, item, out):
        bits, seeds, matching, _ = item
        errors = []
        for s, (m, det) in zip(seeds, out):
            if m != oracles.reference_entries(bits, s):
                errors.append(f"sample stream differs at seed {s}")
            if (det != 0) != matching:
                errors.append(f"determinant {det} at seed {s}, perfect matching: {matching}")
        return errors

    def probe(self, prog):
        """Digest of the program's sample stream on the committed probe."""
        return sample_probe_digest(prog.stencil.Stencil, prog.stencil.sample_entries)


def sample_probe_digest(stencil_type, sample_entries):
    """sha256 over the sampled matrices of a fixed, seed-independent probe."""
    rng = random.Random("sample-probe")
    h = hashlib.sha256()
    for n in sorted(N_ORDER):
        for kind, verdict, density in support_kinds(n, SUPPORT_KINDS[2:]):
            bits = oracles.closure_bits(n, make_support(n, kind, verdict, density, rng))
            for _ in range(8):
                m = sample_entries(stencil_type(n, bits), rng.randrange(2**31))
                h.update(repr(m).encode())
    return h.hexdigest()


class MilnorCorpus:
    """milnor_number(parse_polynomial(text, n)) over three families.

    The corpus is fixed and the seed sets only the order: Milnor costs
    spread over three orders of magnitude, and a corpus redrawn per seed
    would move the medians more than any bound worth having.
    """

    name = "milnor-corpus"
    # Strata are alike in cost inside and far apart between; these weights
    # put the median in the middle of the orlik-n4 block (as much weight
    # below it as above, and enough that a run passes over the block's
    # twelve inputs about five times) and the 90th percentile inside the
    # n4-mid block, where a few operations more or less on either side do
    # not move them.
    weights = {"orlik-n4": 12, "n4-mid": 4}

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:corpus")
        strata = [("plane", 7, [])]
        for _ in range(24):
            text, pts = plane_diagram(rng)
            strata[0][2].append((2, text, "shoelace", oracles.milnor_plane(pts)))
        for n in (2, 3, 4, 5):
            items = []
            for _ in range(12):
                text, q = weighted_homogeneous(n, rng)
                items.append((n, text, "orlik", oracles.milnor_orlik(q)))
            strata.append((f"orlik-n{n}", self.weights.get(f"orlik-n{n}", 2), items))
        buckets = {}
        for entry in load_golden("milnor_pool.json")["diagrams"]:
            buckets.setdefault(entry["bucket"], []).append(
                (entry["n"], entry["poly"], "golden", entry["mu"]))
        for bucket in sorted(buckets):
            strata.append((f"golden-{bucket}", self.weights.get(bucket, 1), buckets[bucket]))
        return strata

    def build(self, prog, strata):
        return strata  # the texts are parsed inside the timed operation

    def run(self, prog, item):
        return prog.kouchnirenko.milnor_number(prog.poly.parse_polynomial(item[1], item[0]))

    def check(self, item, mu):
        n, text, source, expect = item
        if mu != expect:
            return [f"mu {mu}, {source} value {expect} for {text!r}"]
        return []


class CliMix:
    """Fresh `python -m newtoncert.cli` processes over a seeded request mix."""

    name = "cli-mix"
    # Mostly small requests.  The heavy requests (large certify, milnor)
    # spread from as cheap as a small one to three times dearer, so they
    # make a twentieth of the mix: the median and the 90th percentile then
    # both fall among the small, malformed and --seed requests, which are
    # alike in cost, and not among the heavy ones.
    weights = {"small": 24, "malformed": 4, "seed": 10, "large-certify": 1, "milnor": 1}

    def __init__(self):
        self.peak_kb = 0  # largest VmHWM reported by a child

    def inputs(self, seed):
        classes = {}
        for entry in load_golden("cli_pool.json")["requests"]:
            classes.setdefault(entry["class"], []).append(entry)
        return [(c, self.weights[c], classes[c]) for c in self.weights]

    def build(self, prog, strata):
        return strata  # each request imports the program afresh

    def run(self, prog, entry):
        env = dict(os.environ, PYTHONPATH=f"{prog.src}{os.pathsep}{RSS_HOOK}")
        proc = subprocess.run([sys.executable, "-m", "newtoncert.cli", *entry["argv"]],
                              cwd=prog.src.parent, env=env, capture_output=True, timeout=120)
        tag, kb = proc.stderr.decode().rsplit("\n", 2)[-2].split()
        if tag != "vmhwm_kb":
            raise RuntimeError("the child did not report its peak memory")
        self.peak_kb = max(self.peak_kb, int(kb))
        return proc.returncode, proc.stdout.decode()

    def run_in_process(self, prog, entry):
        """The same request through cli.run in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = prog.cli.run(entry["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, entry, result):
        code, stdout = result
        errors = []
        if code != entry["code"]:
            errors.append(f"exit code {code}, expected {entry['code']} for {entry['argv']}")
        if stdout != entry["stdout"]:
            errors.append(f"stdout differs from golden for {entry['argv']}")
        if code == 0 and "support" in entry:
            doc = json.loads(stdout)
            cert = {"kind": doc["kind"]}
            if doc["kind"] == "matching":
                cert["sigma"] = [s - 1 for s in doc["sigma"]]
            else:
                cert.update(I=[i - 1 for i in doc["I"]], J=[j - 1 for j in doc["J"]],
                            coeffs=doc["halfspace"]["coeffs"], rhs=doc["halfspace"]["rhs"])
            support = [tuple(p) for p in entry["support"]]
            errors += oracles.certificate_errors(entry["n"], support, cert)
        return errors


WORKLOADS = {w.name: w for w in (CertifySweep, GenericSampling, MilnorCorpus, CliMix)}
