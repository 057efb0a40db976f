"""Seeded request batches for the three benchmark workloads.

A batch is a list of :class:`Request` objects built from ``--seed`` and
``--seconds`` alone: the same pair always gives the same requests, whatever
the code under test.  Each workload is a sequence of *rounds*.  A round
draws one input from each of a fixed set of cost strata, so every round of
every seed does about the same amount of work and the run-to-run spread
stays small; the number of rounds is the time of one pass divided by the
measured cost of one round at the commit that added the benchmark (2-CPU
machine, CPython 3.11).

Fixture files are written to a scratch directory before timing starts.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import List, Optional, Tuple

from procong.cli import RunConfig
from procong.kernel import Cyclotomic
from procong.serialize import (KIND_ORBIT_PROJECTION, KIND_TORUS,
                               save_fixture)

POOL_PATH = Path(__file__).with_name("pool.json")

# seconds per round at the commit that added the benchmark
ROUND_COST_S = {"fibered_long": 2.9, "fibered_wide": 9.5, "queries": 4.0}

FIBERED_SUBCOMMANDS = ("alexander", "torsion", "zeta", "lefschetz")
LONG_REPS = ("trivial", "sign", "zeta:4", "zeta:12")
# Strata of fibered_long by relator letters plus inverse-image letters (the
# cellular model reads the inverse images), one matrix from each per round.
# The strata are narrow, so that a stratum costs about the same in every
# seed; each holds at least 19 pool matrices.  Round r gives stratum b the representation LONG_REPS[(b + r) % 4], so
# every four rounds pair each stratum with each representation once.
LONG_BANDS = ((126, 130), (164, 168), (212, 216), (272, 276))
# fibered_wide: a degree-9 request costs as much as six degree-4 ones, so
# its inputs come from two narrow classes of (relator letters, order of A
# mod 3), one per round; the order fixes the size (9 * order) of the group
# certification enumerates.  Most requests have degree 4, so the median and
# the tail are degree-4 latencies.
WIDE_DEGREE9_CLASSES = ((15, 4), (17, 3))
WIDE_DEGREE4_BAND = (23, 23)
WIDE_DEGREE4_PER_ROUND = 14
WIDE_RANK1_PER_ROUND = 2
GENUS2_FIXTURE = "fixtures/genus2_finite_order.json"

CLASSICAL_PAIR = ("188,275;121,177", "188,11;3025,177")
NT_FIXTURES = ("two_pa_swap", "five_cases", "star_rotation",
               "separating_twist", "pure_twist")
# --approx refines a stretch factor only where a pseudo-Anosov piece exists
NT_PSEUDO_ANOSOV = NT_FIXTURES[:3]
SMALL_GROUP_CLASSES = {"S3": 3, "D4": 5, "Q8": 5, "cyclic(6)": 6}
SMALL_GROUPS = tuple(SMALL_GROUP_CLASSES)
# four big cyclic tables per round, each about 0.4 s, so the tail falls
# among them
BIG_CHARS_WORK = 200000
BIG_CHARS_PER_ROUND = 4
SWEEP_BOUNDS = (800, 1000)
SWEEP_KINDS = ("classical", "conjugated")
CONGR_MAX_MODULUS = 10 ** 9


@dataclass
class Request:
    """One request of a batch.

    ``kind`` is ``"cli"`` (``config`` goes to ``procong.cli.dispatch``) or
    ``"fibered"`` (every fibered invariant of one bundle and representation,
    through the library functions the CLI handlers call).  ``expect`` holds
    what the oracle needs; ``bundle`` names the (bundle, representation)
    pair the request computes on, or None when that notion does not apply.
    """

    kind: str
    label: str
    config: Optional[RunConfig] = None
    fixture: Optional[str] = None
    rep: Optional[tuple] = None
    bundle: Optional[Tuple[str, str]] = None
    expect: dict = field(default_factory=dict)


def load_pool():
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_COST_S[workload]))


def build(workload: str, seed: int, seconds: float, scratch: Path,
          root: Path) -> List[Request]:
    rng = random.Random(f"{workload}:{seed}")
    rounds = rounds_for(workload, seconds)
    make_batch = {"fibered_long": _fibered_long,
                  "fibered_wide": _fibered_wide,
                  "queries": _queries}[workload]
    return make_batch(rng, rounds, scratch, root)


def reuse_share(batch: List[Request]) -> float:
    """Share of requests whose (bundle, representation) pair an earlier
    request of the batch already computed on."""
    seen = set()
    reused = 0
    for req in batch:
        if req.bundle in seen:
            reused += 1
        elif req.bundle is not None:
            seen.add(req.bundle)
    return reused / len(batch)


def rep_unit(label: str):
    """The unit u of the rank-1 representation g -> u^(degree g) named by
    a --rep label: trivial, sign, or zeta:n[:k]."""
    if label == "trivial":
        return 1
    if label == "sign":
        return -1
    parts = [int(p) for p in label.split(":")[1:]]
    return Cyclotomic.root(parts[0], parts[1] if len(parts) > 1 else 1)


# ---------------------------------------------------------------------------
# integer 2x2 helpers (the benchmark's own, independent of the library)
# ---------------------------------------------------------------------------

def parse_mat(text: str) -> Tuple[int, int, int, int]:
    rows = [r.split(",") for r in text.split(";")]
    return tuple(int(v) for row in rows for v in row)


def mat_str(m) -> str:
    return f"{m[0]},{m[1]};{m[2]},{m[3]}"


def mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_inv_sl2(m):
    return (m[3], -m[1], -m[2], m[0])


def _draw(rng, pool, band, used, size=lambda letters, inverse: letters,
          keep=lambda m: True):
    """A pool matrix not drawn before whose size lies in the band."""
    choices = [m for letters, inverse, m in pool
               if band[0] <= size(letters, inverse) <= band[1]
               and m not in used and keep(m)]
    matrix = rng.choice(choices)
    used.add(matrix)
    return matrix


def _torus_fixture(scratch: Path, matrix: str) -> str:
    path = scratch / f"torus_{matrix.replace(',', '_').replace(';', '__')}.json"
    if not path.exists():
        save_fixture(path, KIND_TORUS, {"matrix": matrix})
    return str(path)


# ---------------------------------------------------------------------------
# fibered_long: long words, rank-1 reps, every bundle asked four times
# ---------------------------------------------------------------------------

def _fibered_long(rng, rounds, scratch, root):
    pool = load_pool()["long"]
    used = set()
    batch = []
    for r in range(rounds):
        units = [(_draw(rng, pool, band, used, lambda f, i: f + i),
                  LONG_REPS[(b + r) % len(LONG_REPS)])
                 for b, band in enumerate(LONG_BANDS)]
        rng.shuffle(units)
        for matrix, rep in units:
            path = _torus_fixture(scratch, matrix)
            for sub in FIBERED_SUBCOMMANDS:
                batch.append(Request(
                    "cli", f"{sub} {matrix} {rep}",
                    config=RunConfig(sub, (path,), rep=rep, output="json"),
                    bundle=(matrix, rep),
                    expect={"h1": _rows(parse_mat(matrix)), "rep": rep}))
    return batch


def _rows(m):
    return ((m[0], m[1]), (m[2], m[3]))


# ---------------------------------------------------------------------------
# fibered_wide: short words, higher-degree reps, no bundle asked twice
# ---------------------------------------------------------------------------

def affine_matrices(matrix: str, n: int):
    """Permutation matrices of the affine action of the torus-bundle group
    on (Z/n)^2: the fiber generators a and b translate by e1 and e2, the
    stable letter t acts by x -> A x mod n.  Matrices are transposed
    permutation matrices, the convention in which the relators die."""
    a = parse_mat(matrix)
    points = list(itertools.product(range(n), repeat=2))
    index = {p: i for i, p in enumerate(points)}

    def perm(f):
        rows = [[0] * len(points) for _ in points]
        for p in points:
            rows[index[f(p)]][index[p]] = 1
        return rows

    return (perm(lambda p: ((p[0] + 1) % n, p[1])),
            perm(lambda p: (p[0], (p[1] + 1) % n)),
            perm(lambda p: ((a[0] * p[0] + a[1] * p[1]) % n,
                            (a[2] * p[0] + a[3] * p[1]) % n)))


def _rank1_labels(rng):
    labels = ["trivial", "sign"]
    labels += [f"zeta:{n}:{k}" for n in range(3, 13)
               for k in range(1, n) if gcd(n, k) == 1]
    rng.shuffle(labels)
    return labels


def order_mod(matrix: str, n: int) -> int:
    """Multiplicative order of a matrix of SL(2,Z) modulo n."""
    x = tuple(e % n for e in parse_mat(matrix))
    power, k = x, 1
    while power != (1, 0, 0, 1):
        power = tuple(e % n for e in mat_mul(power, x))
        k += 1
    return k


def _fibered_wide(rng, rounds, scratch, root):
    pool = load_pool()["short"]
    used = {2: set(), 3: set()}
    rank1 = _rank1_labels(rng)
    genus2 = str(root / GENUS2_FIXTURE)
    batch = []
    for r in range(rounds):
        letters, order = WIDE_DEGREE9_CLASSES[r % len(WIDE_DEGREE9_CLASSES)]
        jobs = [(3, _draw(rng, pool, (letters, letters), used[3],
                          keep=lambda m: order_mod(m, 3) == order))]
        jobs += [(2, _draw(rng, pool, WIDE_DEGREE4_BAND, used[2]))
                 for _ in range(WIDE_DEGREE4_PER_ROUND)]
        round_requests = []
        for n, matrix in jobs:
            round_requests.append(Request(
                "fibered", f"all {matrix} affine:{n}",
                fixture=_torus_fixture(scratch, matrix),
                rep=("affine", n, affine_matrices(matrix, n)),
                bundle=(matrix, f"affine:{n}"),
                expect={"h1": _rows(parse_mat(matrix)), "affine": n}))
        for _ in range(WIDE_RANK1_PER_ROUND):
            label = rank1.pop()
            round_requests.append(Request(
                "fibered", f"all genus2 {label}", fixture=genus2,
                rep=("rank1", label), bundle=("genus2", label),
                expect={"rep": label}))
        rng.shuffle(round_requests)
        batch += round_requests
    return batch


# ---------------------------------------------------------------------------
# queries: every subcommand that is not fibered
# ---------------------------------------------------------------------------

def _random_sl2(rng, letters):
    """A product of shears T^k and quarter turns S."""
    m = (1, 0, 0, 1)
    for _ in range(letters):
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        m = mat_mul(m, (1, k, 0, 1))
        m = mat_mul(m, (0, -1, 1, 0))
    return m


def _conjugated_pair(rng, pool):
    a = parse_mat(rng.choice(pool)[-1])
    w = _random_sl2(rng, rng.randint(1, 3))
    return mat_str(a), mat_str(mat_mul(mat_mul(w, a), mat_inv_sl2(w)))


def _equal_trace_pair(rng, pool):
    """A pool matrix and another unimodular matrix of the same trace."""
    while True:
        a = parse_mat(rng.choice(pool)[-1])
        trace = a[0] + a[3]
        x = rng.randint(-12, 12)
        y = trace - x
        product = x * y - 1          # b * c of the partner
        if product == 0:
            continue
        divisors = [d for d in range(1, abs(product) + 1) if product % d == 0]
        b = rng.choice(divisors) * rng.choice([-1, 1])
        partner = (x, b, product // b, y)
        if partner != a:
            return mat_str(a), mat_str(partner)


def _pair(rng, pool, kind):
    if kind == "classical":
        return CLASSICAL_PAIR
    if kind == "conjugated":
        return _conjugated_pair(rng, pool)
    return _equal_trace_pair(rng, pool)


def _pair_request(sub, pair, kind, extra=(), **config):
    return Request("cli", f"{sub} {pair[0]} {pair[1]} {' '.join(extra)}",
                   config=RunConfig(sub, pair + extra, output="json", **config),
                   expect={"pair": pair, "pair_kind": kind})


def _orbit_rows(rng, classes, count):
    return [[f"o{j}", rng.choice([-3, -2, -1, 1, 2, 3]),
             rng.randrange(classes)] for j in range(count)]


def _chars_request(rng, scratch, name, group, classes, rows):
    body = {"group": group, "attained": rng.random() < 0.5,
            "rows": _orbit_rows(rng, classes, rows)}
    path = scratch / f"{name}.json"
    save_fixture(path, KIND_ORBIT_PROJECTION, body)
    sub = rng.choice(["chars decompose", "chars bound"])
    return Request("cli", f"{sub} {group} rows={rows}",
                   config=RunConfig(sub, (str(path),), output="json"),
                   expect={"rows": body["rows"], "classes": classes})


def _big_cyclic_tables():
    """(n, rows) for cyclic(n), 30 < n <= 60, with rows * n^2 * phi(n)
    within 10% of BIG_CHARS_WORK: the indicator routes cost about that many
    cyclotomic coefficient operations."""
    tables = []
    for n in range(31, 61):
        phi = sum(1 for k in range(1, n + 1) if gcd(n, k) == 1)
        rows = round(BIG_CHARS_WORK / (n * n * phi))
        work = rows * n * n * phi
        if 1 <= rows <= 40 and abs(work - BIG_CHARS_WORK) <= 0.1 * BIG_CHARS_WORK:
            tables.append((n, rows))
    return tables


def _nt_request(rng, root, name, approx):
    path = str(root / "fixtures" / f"{name}.json")
    return Request("cli", f"nt analyze {name}{' --approx' if approx else ''}",
                   config=RunConfig("nt analyze", (path,),
                                    upto=rng.randint(6, 30), approx=approx,
                                    output="json"))


def _modulus(rng):
    if rng.random() < 0.5:
        return rng.randint(10 ** 8, CONGR_MAX_MODULUS)
    n = 1
    for p in rng.sample([2, 3, 5, 7, 11, 13], 4):
        n *= p ** rng.randint(1, 2)
    return n


def _queries(rng, rounds, scratch, root):
    pool = load_pool()["short"] + load_pool()["long"]
    trace3 = [entry for entry in pool
              if abs(parse_mat(entry[-1])[0] + parse_mat(entry[-1])[3]) == 3]
    big_tables = _big_cyclic_tables()
    batch = []
    for r in range(rounds):
        # the sweep alternates between the classical pair and a pair
        # conjugated in SL(2,Z) from a trace-3 matrix; every such pair has
        # the same solution module, so the same cost
        kind = SWEEP_KINDS[r % len(SWEEP_KINDS)]
        pair = _pair(rng, trace3, kind)
        reqs = [_pair_request("torus sweep", pair, kind,
                              max_modulus=rng.randint(*SWEEP_BOUNDS))]
        for kind in ("classical", rng.choice(["conjugated", "equal_trace"])):
            reqs.append(_pair_request("torus congr", _pair(rng, pool, kind),
                                      kind, extra=(str(_modulus(rng)),)))
        kind = rng.choice(["classical", "conjugated", "equal_trace"])
        reqs.append(_pair_request("torus conj", _pair(rng, pool, kind), kind))
        bound = rng.randint(1, 60)
        reqs.append(Request("cli", f"torus klevel {bound}",
                            config=RunConfig("torus klevel", (str(bound),),
                                             output="json"),
                            expect={"bound": bound}))
        reqs += [_nt_request(rng, root, name, False) for name in NT_FIXTURES]
        # the pseudo-Anosov fixtures once more without and three times with
        # --approx, so the median falls among the plain pseudo-Anosov runs
        reqs += [_nt_request(rng, root, name, False)
                 for name in NT_PSEUDO_ANOSOV]
        reqs += [_nt_request(rng, root, name, True)
                 for name in NT_PSEUDO_ANOSOV]
        while True:
            slopes = [(rng.randint(-40, 40), rng.randint(-40, 40))
                      for _ in range(2)]
            if (0, 0) not in slopes:
                break
        reqs.append(Request("cli", "nt shear",
                            config=RunConfig("nt shear",
                                             tuple(f"{p},{q}" for p, q in slopes),
                                             output="json"),
                            expect={"slopes": slopes}))
        group = rng.choice(SMALL_GROUPS)
        reqs.append(_chars_request(rng, scratch, f"orbit_{r}_small", group,
                                   SMALL_GROUP_CLASSES[group],
                                   rng.randint(0, 40)))
        for j in range(BIG_CHARS_PER_ROUND):
            n, rows = rng.choice(big_tables)
            reqs.append(_chars_request(rng, scratch, f"orbit_{r}_big{j}",
                                       f"cyclic({n})", n, rows))
        rng.shuffle(reqs)
        batch += reqs
    return batch
