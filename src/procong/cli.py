"""Command-line driver exposing every computation of the library.

Subcommands: ``torus conj|congr|sweep|klevel``, ``alexander``, ``torsion``,
``zeta``, ``lefschetz``, ``nt analyze|shear``, ``chars decompose|bound``.
All numeric output is exact (integers, fractions, coefficient lists); the
optional ``--approx`` flag adds decimal renderings with 30 significant
digits obtained by interval refinement.  ``--json`` switches the report to
a machine-readable form encoding the same values.  Identical inputs yield
byte-identical reports.

Exit status: 0 on success, 2 on input errors (unreadable fixtures, bad
arguments, validation failures), 1 on internal assertion failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .cellular import (cellular_model, lefschetz_numbers,
                       torsion_from_cellular, zeta_from_cellular)
from .chars import (all_class_indicators, builtin_group, nielsen_bound,
                    twisted_L_from_orbits)
from .kernel import Cyclotomic, render_scalar
from .ntform import (deviation, dilatation, indexed_orbit_numbers,
                     shearing_from_slopes, split_order)
from .serialize import (KIND_CELLULAR, KIND_MAPPING_TORUS, KIND_NT,
                        KIND_ORBIT_PROJECTION, KIND_TORUS, load_fixture)
from .surfgrp import (FiniteRepresentation, GeneratorEndomorphism,
                      SurfacePresentation, mapping_torus, twisted_alexander,
                      twisted_torsion)
from .torus import (Mat2, characteristic_level, congruence_sweep,
                    congruent_conjugate_mod, sl2_conjugate)

APPROX_DIGITS = 30


@dataclass(frozen=True)
class RunConfig:
    """One dispatchable invocation of the driver."""

    subcommand: str
    inputs: Tuple[str, ...] = ()
    max_modulus: Optional[int] = None
    terms: Optional[int] = None
    upto: Optional[int] = None
    rep: str = "trivial"
    group: Optional[str] = None
    approx: bool = False
    output: str = "text"

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        for label, bound in (("--max", self.max_modulus),
                             ("--terms", self.terms),
                             ("--upto", self.upto)):
            if bound is not None and bound < 1:
                raise ValueError(f"{label} must be a positive integer")
        if self.output not in ("text", "json"):
            raise ValueError(f"unknown output mode {self.output!r}")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _matrix_pair(config: RunConfig) -> Tuple[Mat2, Mat2]:
    return Mat2.from_string(config.inputs[0]), Mat2.from_string(config.inputs[1])


def _positive_int(text: str, label: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{label} must be an integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"{label} must be positive, got {value}")
    return value


def _fibered_input(config: RunConfig):
    """Load a fixture and return its fibered model (mt, surface, flow)."""
    fixture = load_fixture(config.inputs[0])
    if fixture.kind == KIND_TORUS:
        pres = SurfacePresentation.closed(1)
        phi = GeneratorEndomorphism.torus_monodromy(fixture.payload)
        mt = mapping_torus(pres, phi)
        surface, flow = cellular_model(mt)
    elif fixture.kind == KIND_MAPPING_TORUS:
        mt = fixture.payload
        surface, flow = cellular_model(mt)
    elif fixture.kind == KIND_CELLULAR:
        surface, flow = fixture.payload
        mt = surface.presentation
    else:
        raise ValueError(
            f"fixture kind {fixture.kind!r} carries no fibered model")
    return mt, surface, flow


def _resolve_rep(mt, label: str) -> FiniteRepresentation:
    """Build the rank-1 representation named by --rep: trivial, sign, or
    zeta:n[:k] for the k-th power of a primitive n-th root of unity."""
    if label == "trivial":
        return FiniteRepresentation.trivial(mt)
    if label == "sign":
        return FiniteRepresentation.fibered_character(mt, -1)
    if label.startswith("zeta:"):
        parts = label.split(":")[1:]
        if len(parts) in (1, 2) and all(p.lstrip("-").isdigit() for p in parts):
            n = int(parts[0])
            k = int(parts[1]) if len(parts) == 2 else 1
            if n >= 1:
                return FiniteRepresentation.fibered_character(
                    mt, Cyclotomic.root(n, k))
    raise ValueError(f"unknown representation {label!r}: expected trivial, "
                     "sign, or zeta:n[:k]")


def _parse_slope(text: str) -> Tuple[int, int]:
    parts = text.strip().split(",")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"slope must look like 'p,q', got {text!r}") from None
    if len(values) != 2:
        raise ValueError(f"slope must have two entries, got {text!r}")
    return values


def _orbit_projection_input(config: RunConfig):
    fixture = load_fixture(config.inputs[0])
    if fixture.kind != KIND_ORBIT_PROJECTION:
        raise ValueError(f"fixture kind {fixture.kind!r} is not an orbit "
                         "projection table")
    payload = fixture.payload
    group_name = config.group or payload.group
    return builtin_group(group_name), payload.table, payload.attained


def _sl2_lines(verdict) -> list:
    word = "conjugate" if verdict.conjugate else "not conjugate"
    lines = [f"SL(2,Z): {word} ({verdict.reason})"]
    if verdict.witness is not None:
        lines.append(f"SL(2,Z) witness: {verdict.witness.to_string()}")
    return lines


# ---------------------------------------------------------------------------
# handlers: each returns (text report, json payload)
# ---------------------------------------------------------------------------

def _handle_torus_conj(config: RunConfig):
    a, b = _matrix_pair(config)
    verdict = sl2_conjugate(a, b)
    lines = [f"pair A = {a.to_string()}  B = {b.to_string()}"]
    lines += _sl2_lines(verdict)
    payload = {"matrix_a": a.to_string(), "matrix_b": b.to_string(),
               "sl2": verdict.to_json()}
    return "\n".join(lines), payload


def _handle_torus_congr(config: RunConfig):
    a, b = _matrix_pair(config)
    n = _positive_int(config.inputs[2], "modulus")
    verdict = congruent_conjugate_mod(a, b, n)
    word = "conjugate" if verdict.conjugate else "not conjugate"
    lines = [f"pair A = {a.to_string()}  B = {b.to_string()}",
             f"GL(2,Z/{n}): {word}"]
    if verdict.witness is not None:
        lines.append(f"witness mod {n}: {verdict.witness.to_string()}")
    payload = {"matrix_a": a.to_string(), "matrix_b": b.to_string(),
               "level": verdict.to_json()}
    return "\n".join(lines), payload


def _handle_torus_sweep(config: RunConfig):
    a, b = _matrix_pair(config)
    bound = config.max_modulus if config.max_modulus is not None else 100
    report = congruence_sweep(a, b, bound)
    return report.render_text(), report.to_json()


def _handle_torus_klevel(config: RunConfig):
    n = _positive_int(config.inputs[0], "level bound")
    level = characteristic_level(n)
    text = f"characteristic level for index bound {n}: {level}"
    return text, {"bound": n, "characteristic_level": level}


def _handle_alexander(config: RunConfig):
    mt, _, _ = _fibered_input(config)
    rep = _resolve_rep(mt, config.rep)
    orders = [twisted_alexander(mt, rep, n) for n in range(4)]
    lines = [f"rep: {config.rep}"]
    lines += [f"Delta_{n} = {p.pretty()}" for n, p in enumerate(orders)]
    payload = {"rep": config.rep,
               "orders": [p.to_json() for p in orders]}
    return "\n".join(lines), payload


def _handle_torsion(config: RunConfig):
    mt, surface, flow = _fibered_input(config)
    rep = _resolve_rep(mt, config.rep)
    cellular = torsion_from_cellular(surface, flow, rep)
    alexander_route = twisted_torsion(mt, rep)
    if cellular.homological != alexander_route:
        raise ArithmeticError(
            "determinant-ratio torsion disagrees with the Alexander-order "
            "route")
    lines = [f"rep: {config.rep}",
             f"determinant ratio = {cellular.value.pretty()}",
             f"acyclic: {'yes' if cellular.acyclic else 'no'}",
             f"torsion class = {cellular.homological.pretty()}",
             "alexander route agrees: yes"]
    payload = {"rep": config.rep,
               "determinant_ratio": cellular.value.to_json(),
               "acyclic": cellular.acyclic,
               "torsion": cellular.homological.to_json()}
    return "\n".join(lines), payload


def _handle_zeta(config: RunConfig):
    mt, surface, flow = _fibered_input(config)
    rep = _resolve_rep(mt, config.rep)
    terms = config.terms if config.terms is not None else 5
    zeta = zeta_from_cellular(surface, flow, rep)
    values = lefschetz_numbers(surface, flow, rep, terms)
    rendered = [render_scalar(v) for v in values]
    lines = [f"rep: {config.rep}",
             f"zeta = {zeta.pretty()}",
             f"L_1..L_{terms} = " + ", ".join(rendered)]
    payload = {"rep": config.rep, "zeta": zeta.to_json(),
               "lefschetz": rendered}
    return "\n".join(lines), payload


def _handle_lefschetz(config: RunConfig):
    mt, surface, flow = _fibered_input(config)
    rep = _resolve_rep(mt, config.rep)
    upto = config.upto if config.upto is not None else 10
    values = lefschetz_numbers(surface, flow, rep, upto)
    rendered = [render_scalar(v) for v in values]
    lines = [f"rep: {config.rep}"]
    lines += [f"L_{m} = {v}" for m, v in enumerate(rendered, start=1)]
    payload = {"rep": config.rep, "lefschetz": rendered}
    return "\n".join(lines), payload


def _handle_nt_analyze(config: RunConfig):
    fixture = load_fixture(config.inputs[0])
    if fixture.kind != KIND_NT:
        raise ValueError(f"fixture kind {fixture.kind!r} is not a "
                         "decomposition")
    nt = fixture.payload
    upto = config.upto if config.upto is not None else 6
    order = split_order(nt)
    dil = dilatation(nt)
    dev = deviation(nt)
    table = indexed_orbit_numbers(nt, upto)

    pa = sum(1 for p in nt.pieces if p.stretch is not None)
    lines = [f"pieces: {len(nt.pieces)} (pseudo-Anosov {pa}, "
             f"periodic {len(nt.pieces) - pa}); annuli: {len(nt.annuli)}; "
             f"circles: {len(nt.circle_permutation)}",
             f"split order: {order}"]
    if dil.factor is None:
        lines.append("dilatation: 1")
    else:
        f = dil.factor
        lines.append(f"dilatation: root of {list(f.polynomial)} in "
                     f"[{f.low}, {f.high}]")
    if config.approx:
        lines.append(f"dilatation ~ {dil.approx(APPROX_DIGITS)}")
    lines.append(f"deviation: {dev}")
    lines.append(" m | N_m | indexed counts")
    for row in table.rows:
        counts = " ".join(f"{i}:{c}" for i, c in row.counts) or "-"
        lines.append(f"{row.iterate:2d} | {row.nielsen:3d} | {counts}")
    remainder = ", ".join(table.remainder) if table.remainder else "none"
    lines.append(f"regular-orbit remainder pieces: {remainder}")

    payload = {"split_order": order,
               "dilatation": dil.to_json(),
               "deviation": str(dev),
               "table": table.to_json()}
    if config.approx:
        payload["dilatation_approx"] = dil.approx(APPROX_DIGITS)
    return "\n".join(lines), payload


def _handle_nt_shear(config: RunConfig):
    first = _parse_slope(config.inputs[0])
    second = _parse_slope(config.inputs[1])
    degree = shearing_from_slopes(first, second)
    lines = [f"slopes: {first[0]},{first[1]} and {second[0]},{second[1]}",
             f"shearing degree: {degree}"]
    payload = {"slopes": [list(first), list(second)], "degree": degree}
    return "\n".join(lines), payload


def _handle_chars_decompose(config: RunConfig):
    group, table, _ = _orbit_projection_input(config)
    character_L = [twisted_L_from_orbits(table, chi)
                   for chi in group.characters]
    indicators = all_class_indicators(table, group)
    lines = [f"group: {group.name} (order {group.order}, "
             f"{group.class_count} classes)",
             f"orbit classes: {table.orbit_count}"]
    lines += [f"L(chi_{r}) = {render_scalar(v)}"
              for r, v in enumerate(character_L)]
    lines += [f"indicator L, class {c} = {v}"
              for c, v in enumerate(indicators)]
    payload = {"group": group.name,
               "orbit_classes": table.orbit_count,
               "character_L": [render_scalar(v) for v in character_L],
               "class_indicators": list(indicators)}
    return "\n".join(lines), payload


def _handle_chars_bound(config: RunConfig):
    group, table, attained = _orbit_projection_input(config)
    result = nielsen_bound(table, group, attained=attained)
    lines = [f"group: {group.name}",
             f"Nielsen bound: {result.bound}",
             f"attainment asserted: {'yes' if attained else 'no'}"]
    if result.indexed_counts is not None:
        counts = " ".join(f"{i}:{c}" for i, c in result.indexed_counts) or "-"
        lines.append(f"indexed counts: {counts}")
    payload = {"group": group.name, "bound": result.bound,
               "attained": attained,
               "indexed_counts": (None if result.indexed_counts is None
                                  else [list(p) for p in result.indexed_counts])}
    return "\n".join(lines), payload


_HANDLERS = {
    "torus conj": _handle_torus_conj,
    "torus congr": _handle_torus_congr,
    "torus sweep": _handle_torus_sweep,
    "torus klevel": _handle_torus_klevel,
    "alexander": _handle_alexander,
    "torsion": _handle_torsion,
    "zeta": _handle_zeta,
    "lefschetz": _handle_lefschetz,
    "nt analyze": _handle_nt_analyze,
    "nt shear": _handle_nt_shear,
    "chars decompose": _handle_chars_decompose,
    "chars bound": _handle_chars_bound,
}


def dispatch(config: RunConfig) -> Tuple[int, str]:
    """Route a configuration to its handler and render the report."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    text, payload = handler(config)
    if config.output == "json":
        return 0, json.dumps(payload, indent=2, sort_keys=True)
    return 0, text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    rep_flag = argparse.ArgumentParser(add_help=False)
    rep_flag.add_argument("--rep", default="trivial",
                          help="representation: trivial, sign, or zeta:n[:k]")

    parser = argparse.ArgumentParser(
        prog="procong",
        description="exact invariants separating mapping classes up to "
                    "congruence-level conjugacy")
    top = parser.add_subparsers(dest="command", required=True)

    torus = top.add_parser("torus", help="2x2 integer matrix conjugacy")
    tsub = torus.add_subparsers(dest="subcommand", required=True)
    conj = tsub.add_parser("conj", parents=[common],
                           help="decide SL(2,Z) conjugacy")
    conj.add_argument("matrix_a")
    conj.add_argument("matrix_b")
    congr = tsub.add_parser("congr", parents=[common],
                            help="decide GL(2,Z/n) conjugacy at one level")
    congr.add_argument("matrix_a")
    congr.add_argument("matrix_b")
    congr.add_argument("modulus")
    sweep = tsub.add_parser("sweep", parents=[common],
                            help="GL(2,Z/n) conjugacy for all n up to a bound")
    sweep.add_argument("matrix_a")
    sweep.add_argument("matrix_b")
    sweep.add_argument("--max", type=int, default=100,
                       help="largest modulus (default 100)")
    klevel = tsub.add_parser("klevel", parents=[common],
                             help="characteristic level of an index bound")
    klevel.add_argument("bound")

    for name, helptext in (("alexander", "twisted homology orders"),
                           ("torsion", "twisted Reidemeister torsion"),
                           ("zeta", "twisted Lefschetz zeta function"),
                           ("lefschetz", "twisted Lefschetz numbers")):
        sub = top.add_parser(name, parents=[common, rep_flag], help=helptext)
        sub.add_argument("fixture")
        if name == "zeta":
            sub.add_argument("--terms", type=int, default=5,
                             help="number of Lefschetz numbers (default 5)")
        if name == "lefschetz":
            sub.add_argument("--upto", type=int, default=10,
                             help="largest iterate (default 10)")

    nt = top.add_parser("nt", help="normal-form decomposition invariants")
    ntsub = nt.add_subparsers(dest="subcommand", required=True)
    analyze = ntsub.add_parser("analyze", parents=[common],
                               help="split order, stretch, twist, orbit table")
    analyze.add_argument("fixture")
    analyze.add_argument("--upto", type=int, default=6,
                         help="largest iterate (default 6)")
    analyze.add_argument("--approx", action="store_true",
                         help=f"add {APPROX_DIGITS}-digit decimal renderings")
    shear = ntsub.add_parser("shear", parents=[common],
                             help="shearing degree of two integer slopes")
    shear.add_argument("slope_a")
    shear.add_argument("slope_b")

    chars = top.add_parser("chars", help="character projections of orbit data")
    csub = chars.add_subparsers(dest="subcommand", required=True)
    decompose = csub.add_parser("decompose", parents=[common],
                                help="twisted L against every character")
    decompose.add_argument("fixture")
    decompose.add_argument("--group", default=None,
                           help="override the group named in the fixture")
    bound = csub.add_parser("bound", parents=[common],
                            help="lower bound for the Nielsen number")
    bound.add_argument("fixture")
    bound.add_argument("--group", default=None,
                       help="override the group named in the fixture")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    subcommand = args.command
    if getattr(args, "subcommand", None):
        subcommand += f" {args.subcommand}"
    inputs = [getattr(args, field) for field in
              ("matrix_a", "matrix_b", "modulus", "bound", "fixture",
               "slope_a", "slope_b")
              if getattr(args, field, None) is not None]
    return RunConfig(
        subcommand=subcommand,
        inputs=tuple(inputs),
        max_modulus=getattr(args, "max", None),
        terms=getattr(args, "terms", None),
        upto=getattr(args, "upto", None),
        rep=getattr(args, "rep", "trivial"),
        group=getattr(args, "group", None),
        approx=getattr(args, "approx", False),
        output="json" if args.json else "text",
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        status, report = dispatch(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    if report:
        print(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
