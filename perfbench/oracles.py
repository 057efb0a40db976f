"""Independent checks applied to every output of a benchmark run.

``check(request, output)`` raises :class:`OracleError` when the output is
wrong.  The checks recompute each answer by another route:

* rank-1 fibered requests: for the fibered character g -> u^(degree g), the
  invariants are the classical ones of the fiber homology action H with t
  replaced by u*t, so Delta_i ~ det(u t I - H_i) for i = 0, 1, 2,
  Delta_3 ~ 1, L_m = u^m * L_m(H), and the zeta function and the torsion
  are det(1 - u t H_1) / prod_{i=0,2} det(1 - u t H_i);
* affine requests: by Shapiro's lemma the permutation representation on
  (Z/n)^2 computes the invariants of the cover whose fiber is R^2 / nZ^2
  with the same monodromy A, so every invariant (Delta_0..Delta_3, both
  torsion routes, zeta, L_1..L_10) equals the classical one of A; in
  particular Delta_i(trivial) divides Delta_i(affine);
* torus requests: every witness X satisfies X A = B X mod n with
  gcd(det X, n) = 1, SL(2,Z) witnesses satisfy W A W^-1 = B, pairs built by
  conjugation come out conjugate, the classical pair passes every level
  without being SL(2,Z)-conjugate, and "not conjugate" at a level n <= 7 is
  confirmed by enumerating all of (Z/n)^4;
* nt requests: the split order, the deviation and the dilatation's factor
  are recomputed from the fixture file, N_m is the sum of the indexed
  counts, the decimal dilatation lies in its isolating interval, and the
  shearing degree is |det|;
* chars requests: the per-class indicator sums and the Nielsen bound are
  recomputed from the orbit rows.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from procong.cellular import HomologyAction, classical_lefschetz
from procong.kernel import (LaurentPolynomial, RationalFunction, as_exact,
                            normalize_unit_class, parse_scalar)

from workloads import mat_inv_sl2, mat_mul, parse_mat, rep_unit

BRUTE_FORCE_MAX_MODULUS = 7
LEFSCHETZ_TERMS = {"zeta": 5, "lefschetz": 10}


class OracleError(Exception):
    """An output that the oracle proves wrong."""


def require(condition, message):
    if not condition:
        raise OracleError(message)


def check(req, output) -> None:
    if req.kind == "fibered":
        _check_fibered_library(req, output)
        return
    sub = req.config.subcommand
    status, text = output
    require(status == 0, f"exit status {status}")
    payload = json.loads(text)
    if sub in LEFSCHETZ_TERMS or sub in ("alexander", "torsion"):
        _check_fibered_cli(sub, req, payload)
    else:
        _QUERY_CHECKS[sub](req, payload)


# ---------------------------------------------------------------------------
# fibered oracles
# ---------------------------------------------------------------------------

def charpoly(rows):
    """Coefficients c_0..c_d of det(x I - H) (Faddeev-LeVerrier)."""
    d = len(rows)
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    m = [[Fraction(0)] * d for _ in range(d)]
    for k in range(1, d + 1):
        m = [[sum(rows[i][l] * m[l][j] for l in range(d))
              + (coeffs[d - k + 1] if i == j else 0)
              for j in range(d)] for i in range(d)]
        am = [[sum(rows[i][l] * m[l][j] for l in range(d)) for j in range(d)]
              for i in range(d)]
        coeffs[d - k] = -sum(am[i][i] for i in range(d)) / k
    return [as_exact(c) for c in coeffs]


def _poly(coeffs, u):
    return LaurentPolynomial({k: as_exact(c * u ** k)
                              for k, c in enumerate(coeffs) if c})


class ClassicalExpectation:
    """Closed forms of the invariants of a fibered bundle under the rank-1
    fibered character of unit u; u = 1 also gives the affine ones."""

    def __init__(self, h1_rows, unit):
        action = HomologyAction.from_monodromy_matrix(h1_rows)
        coeffs = charpoly(action.h1)
        h0, h2 = action.h0[0][0], action.h2[0][0]
        self.unit = unit
        self.deltas = [_poly((-h0, 1), unit), _poly(coeffs, unit),
                       _poly((-h2, 1), unit), LaurentPolynomial.one()]
        numerator = _poly(coeffs[::-1], unit)                  # det(1 - s H1)
        denominator = _poly((1, -h0), unit) * _poly((1, -h2), unit)
        self.zeta = RationalFunction(numerator, denominator)
        self.torsion = normalize_unit_class(self.zeta)
        self.action = action

    def lefschetz(self, terms):
        return [as_exact(self.unit ** m * classical_lefschetz(self.action, m))
                for m in range(1, terms + 1)]

    def check_deltas(self, deltas):
        require(len(deltas) == 4, "expected Delta_0..Delta_3")
        for n, (got, want) in enumerate(zip(deltas, self.deltas)):
            require(got.unit_equal(want),
                    f"Delta_{n} differs from the classical order")


def _rational_function(data) -> RationalFunction:
    return RationalFunction(LaurentPolynomial.from_json(data["num"]),
                            LaurentPolynomial.from_json(data["den"]))


def _check_fibered_cli(sub, req, payload):
    expect = ClassicalExpectation(req.expect["h1"],
                                  rep_unit(req.expect["rep"]))
    require(payload["rep"] == req.expect["rep"], "report names another rep")
    if sub == "alexander":
        expect.check_deltas([LaurentPolynomial.from_json(o)
                             for o in payload["orders"]])
    elif sub == "torsion":
        require(payload["acyclic"] is True, "rank-1 bundle reported acyclic=no")
        require(_rational_function(payload["torsion"]) == expect.torsion.value,
                "torsion differs from the classical zeta class")
    else:
        values = [parse_scalar(v) for v in payload["lefschetz"]]
        require(values == expect.lefschetz(LEFSCHETZ_TERMS[sub]),
                "Lefschetz numbers differ from u^m times the classical traces")
        if sub == "zeta":
            require(_rational_function(payload["zeta"]) == expect.zeta,
                    "zeta differs from the classical zeta function")


def _check_fibered_library(req, out):
    mt = out["mt"]
    unit = rep_unit(req.rep[1]) if req.rep[0] == "rank1" else 1
    expect = ClassicalExpectation(mt.monodromy.abelianization(), unit)
    expect.check_deltas(out["deltas"])
    require(out["cellular"].acyclic, "cellular route reported acyclic=no")
    require(out["cellular"].value == expect.torsion,
            "cellular torsion differs from the classical zeta class")
    require(out["alexander_torsion"] == expect.torsion,
            "Alexander torsion differs from the classical zeta class")
    require(out["zeta"] == expect.zeta,
            "zeta differs from the classical zeta function")
    require(list(out["lefschetz"]) == expect.lefschetz(10),
            "Lefschetz numbers differ from u^m times the classical traces")


# ---------------------------------------------------------------------------
# torus oracles
# ---------------------------------------------------------------------------

def _reduce(m, n):
    return tuple(e % n for e in m)


def _is_level_witness(x, a, b, n) -> bool:
    return (gcd(x[0] * x[3] - x[1] * x[2], n) == 1
            and _reduce(mat_mul(x, a), n) == _reduce(mat_mul(b, x), n))


def _conjugate_by_brute_force(a, b, n) -> bool:
    return any(_is_level_witness(x, a, b, n)
               for x in product(range(n), repeat=4))


def _check_level(a, b, level):
    n = level["modulus"]
    if level["conjugate"]:
        require(level["witness"] is not None, f"level {n}: no witness")
        require(_is_level_witness(parse_mat(level["witness"]), a, b, n),
                f"level {n}: witness does not conjugate A to B")
    elif n <= BRUTE_FORCE_MAX_MODULUS:
        require(not _conjugate_by_brute_force(a, b, n),
                f"level {n}: a witness exists by enumeration")


def _check_sl2(a, b, verdict, kind):
    if verdict["conjugate"]:
        w = parse_mat(verdict["witness"])
        require(w[0] * w[3] - w[1] * w[2] == 1, "SL(2,Z) witness det != 1")
        require(mat_mul(mat_mul(w, a), mat_inv_sl2(w)) == b,
                "SL(2,Z) witness does not conjugate A to B")
    if kind == "conjugated":
        require(verdict["conjugate"], "conjugated pair reported not conjugate")
    if kind == "classical":
        require(not verdict["conjugate"],
                "classical pair reported SL(2,Z)-conjugate")


def _pair(req):
    return tuple(parse_mat(m) for m in req.expect["pair"])


def _check_sweep(req, payload):
    a, b = _pair(req)
    levels = payload["levels"]
    bound = req.config.max_modulus
    require([lv["modulus"] for lv in levels] == list(range(1, bound + 1)),
            "sweep does not list every level once")
    for level in levels:
        _check_level(a, b, level)
    passes = all(lv["conjugate"] for lv in levels)
    first = next((lv["modulus"] for lv in levels if not lv["conjugate"]), None)
    require(payload["all_levels_pass"] == passes, "all_levels_pass is wrong")
    require(payload["first_failure"] == first, "first_failure is wrong")
    _check_sl2(a, b, payload["sl2"], req.expect["pair_kind"])
    if req.expect["pair_kind"] in ("conjugated", "classical"):
        require(passes, "pair must be conjugate at every level")


def _check_congr(req, payload):
    a, b = _pair(req)
    level = payload["level"]
    require(level["modulus"] == int(req.config.inputs[2]), "wrong modulus")
    _check_level(a, b, level)
    if req.expect["pair_kind"] in ("conjugated", "classical"):
        require(level["conjugate"], "pair must be conjugate at every level")


def _check_conj(req, payload):
    a, b = _pair(req)
    _check_sl2(a, b, payload["sl2"], req.expect["pair_kind"])


def _check_klevel(req, payload):
    bound = req.expect["bound"]
    require(payload["characteristic_level"] == lcm(*range(1, bound + 1)),
            "characteristic level is not lcm(1..n)")


# ---------------------------------------------------------------------------
# nt and chars oracles
# ---------------------------------------------------------------------------

def _cycle_length(start, mapping) -> int:
    length, item = 1, mapping[start]
    while item != start:
        length, item = length + 1, mapping[item]
    return length


def _check_nt_analyze(req, payload):
    with open(req.config.inputs[0], encoding="utf-8") as handle:
        body = json.load(handle)["body"]
    pseudo_anosov = [p for p in body["pieces"] if p["kind"] == "pseudoAnosov"]
    order = 1
    for piece in body["pieces"]:
        order = lcm(order, _cycle_length(piece["name"], body["piece_map"]))
    for piece in pseudo_anosov:
        for circle in piece["circles"]:
            order = lcm(order, _cycle_length(circle, body["circle_map"]))
    require(payload["split_order"] == order,
            "split order is not the lcm of the piece and circle cycles")
    require(payload["dilatation"]["split_order"] == order,
            "dilatation carries another split order")
    twists = [abs(Fraction(a["twist"])) for a in body["annuli"]]
    deviation = max(twists, default=0) if pseudo_anosov else 0
    require(Fraction(payload["deviation"]) == deviation,
            "deviation is not the largest twist rate")
    factor = payload["dilatation"]["factor"]
    if not pseudo_anosov:
        require(factor is None, "dilatation without a pseudo-Anosov piece")
    else:
        require(factor in [p["stretch"] for p in pseudo_anosov],
                "dilatation is no pseudo-Anosov piece's stretch factor")
        # the largest root lies below the top of the chosen interval
        high = Fraction(factor["interval"][1])
        require(all(Fraction(p["stretch"]["interval"][0]) <= high
                    for p in pseudo_anosov),
                "dilatation is not the largest stretch factor")

    rows = payload["table"]["rows"]
    require([r["iterate"] for r in rows] == list(range(1, req.config.upto + 1)),
            "orbit table does not list iterates 1..upto")
    for row in rows:
        require(row["nielsen"] == sum(c for _, c in row["counts"]),
                f"N_{row['iterate']} is not the sum of the indexed counts")
    if req.config.approx and factor is not None:
        low, high = (Fraction(v) for v in factor["interval"])
        approx = Fraction(payload["dilatation_approx"])
        require(low <= approx <= high,
                "decimal dilatation outside its isolating interval")


def _check_nt_shear(req, payload):
    (p, q), (r, s) = req.expect["slopes"]
    det = abs(p * s - q * r)
    require(payload["degree"] == (det if det else "trivial"),
            "shearing degree is not |det|")


def _indicator_sums(req):
    sums = [0] * req.expect["classes"]
    for _, index, class_id in req.expect["rows"]:
        sums[class_id] += index
    return sums


def _check_chars_decompose(req, payload):
    sums = _indicator_sums(req)
    require(payload["orbit_classes"] == len(req.expect["rows"]),
            "wrong orbit class count")
    require(len(payload["character_L"]) == req.expect["classes"],
            "one L value per character expected")
    require(payload["class_indicators"] == sums,
            "indicator values differ from the direct sums")


def _check_chars_bound(req, payload):
    require(payload["bound"] == sum(1 for s in _indicator_sums(req) if s),
            "Nielsen bound differs from the nonzero direct sums")


_QUERY_CHECKS = {
    "torus sweep": _check_sweep,
    "torus congr": _check_congr,
    "torus conj": _check_conj,
    "torus klevel": _check_klevel,
    "nt analyze": _check_nt_analyze,
    "nt shear": _check_nt_shear,
    "chars decompose": _check_chars_decompose,
    "chars bound": _check_chars_bound,
}
