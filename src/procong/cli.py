"""Command-line driver exposing every computation of the library.

Each subcommand (``torus conj|congr|sweep|klevel``, ``alexander``,
``torsion``, ``zeta``, ``lefschetz``, ``nt analyze|shear``, ``chars
decompose|bound``) is one row of `COMMANDS`, which `build_parser`,
`config_from_args`, `RunConfig` and `dispatch` read.  Its handler renders
the report from the records the library returns, as text or, under
``--json``, as JSON holding the same values; the library renders only
values (see `kernel`).  All numeric output is exact; ``--approx`` adds
decimal renderings with 30 significant digits obtained by interval
refinement.  Identical inputs yield byte-identical reports.  A caveat
(`ntform.notes`) is a ``note:`` line, and in JSON a ``notes`` entry.

Every fixture-reading subcommand reads its file on every call and looks
its text up in one cache of compiled fixtures (see `_compiled`).

Exit status: 0 on success, 2 on input errors (unreadable fixtures, bad
arguments, validation failures), 1 on internal assertion failures.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
from importlib import import_module
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Tuple

from .record import Record, parse_int

APPROX_DIGITS = 30


class RunConfig(Record):
    """One dispatchable invocation of the driver.  A flag set other than by
    default must be one that the subcommand's row of `COMMANDS` declares;
    a bound flag must also be an `int` (not a bool), positive, and at most
    its limit, so no request starts on a size it cannot finish."""

    def __init__(self, subcommand: str, inputs: Tuple[str, ...] = (),
                 max_modulus: Optional[int] = None,
                 terms: Optional[int] = None, upto: Optional[int] = None,
                 rep: str = "trivial", group: Optional[str] = None,
                 approx: bool = False, output: str = "text"):
        command = COMMANDS.get(subcommand)
        flags = {flag.field: flag for flag in command.flags} if command else {}
        for field, bound in (("max_modulus", max_modulus), ("terms", terms),
                             ("upto", upto)):
            if bound is None:
                continue
            flag = flags.get(field)
            if flag is None:
                raise ValueError(f"{subcommand!r} takes no bound {field}")
            if type(bound) is not int or bound < 1:
                raise ValueError(f"{flag.option} must be a positive integer")
            module, name = flag.limit
            limit = getattr(import_module(f".{module}", __package__), name)
            if bound > limit:
                raise ValueError(f"{flag.option} must be at most {limit}")
        for field, value, default in (("rep", rep, "trivial"),
                                      ("group", group, None),
                                      ("approx", approx, False)):
            if value != default and field not in flags:
                raise ValueError(f"{subcommand!r} takes no flag --{field}")
        if output not in ("text", "json"):
            raise ValueError(f"unknown output mode {output!r}")
        self.__dict__.update(
            subcommand=subcommand, inputs=tuple(inputs),
            max_modulus=max_modulus, terms=terms, upto=upto, rep=rep,
            group=group, approx=approx, output=output)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _matrix_pair(config: RunConfig):
    """The matrices A and B of the first two inputs, the report line that
    names them and their JSON fields."""
    from .torus import Mat2
    a, b = (Mat2.from_string(text) for text in config.inputs[:2])
    return a, b, f"pair A = {a.to_string()}  B = {b.to_string()}", {
        "matrix_a": a.to_string(), "matrix_b": b.to_string()}


def _integer(text: str, label: str) -> int:
    """The integer argument `text`, as `parse_int` reads it."""
    value = parse_int(text, label)
    if value is None:
        raise ValueError(f"{label} must be an integer, got {text!r}")
    return value


def _positive_int(text: str, label: str) -> int:
    value = _integer(text, label)
    if value < 1:
        raise ValueError(f"{label} must be positive, got {value}")
    return value


class FiberedBundle(Record):
    """A fibered fixture compiled once: its cellular model, built by
    `cellular_model` on the canonical presentation of the monodromy, and
    the trivial representation on the model's presentation, which keeps
    its twisted complex.  Every --rep reads each invariant off that one
    complex at t -> u t, so each is built once per bundle."""

    def __init__(self, surface: CellularSurface, flow: CellularSelfMap,
                 trivial: FiniteRepresentation):
        self.__dict__.update(surface=surface, flow=flow, trivial=trivial)


COMPILED_SLOTS = 8


@functools.lru_cache(maxsize=COMPILED_SLOTS)
def _compiled(text: str, kinds: Tuple[str, ...], role: str):
    """The compiled payload of a fixture text, which must be of one of
    `kinds` (else ValueError: "fixture kind ... {role}"): a FiberedBundle
    for the fibered kinds, the validated payload for the others.

    A fixture's own presentation must agree with the model's on Delta_0
    and Delta_1 under the trivial representation (else ValueError naming
    the relators): every --rep reads the trivial orders at t -> u t, so
    this check stands for every label.

    The cache holds COMPILED_SLOTS texts and evicts the least recently
    used; concurrent callers at worst compile a text twice.  A text that
    fails to decode, to validate, to compile or to match `kinds` raises, so
    it is never stored and fails again on every call."""
    from .serialize import KIND_MAPPING_TORUS, KIND_TORUS, parse_fixture
    fixture = parse_fixture(text)
    if fixture.kind not in kinds:
        raise ValueError(f"fixture kind {fixture.kind!r} {role}")
    if fixture.kind not in (KIND_TORUS, KIND_MAPPING_TORUS):
        return fixture.payload
    from .cellular import cellular_model
    from .surfgrp import (FiniteRepresentation, GeneratorEndomorphism,
                          SurfacePresentation, mapping_torus,
                          twisted_alexander)
    own = fixture.payload
    if fixture.kind == KIND_TORUS:
        own = mapping_torus(SurfacePresentation.closed(1),
                            GeneratorEndomorphism.torus_monodromy(own))
    surface, flow = cellular_model(own)
    model = surface.presentation
    trivial = FiniteRepresentation.trivial(model)
    if own != model:
        own_trivial = FiniteRepresentation.trivial(own)
        for n in (0, 1):
            given, expected = (twisted_alexander(p, r, n) for p, r
                               in ((own, own_trivial), (model, trivial)))
            if given != expected:
                raise ValueError(
                    f"relators do not present the mapping torus of the "
                    f"monodromy: Delta_{n} = {given.pretty()} under --rep "
                    f"trivial, but {expected.pretty()} on the canonical "
                    f"presentation")
    return FiberedBundle(surface, flow, trivial)


def _compiled_input(config: RunConfig, kinds: Tuple[str, ...], role: str):
    """The compiled payload (see `_compiled`) of the fixture file
    config.inputs[0].  The file is read on every call and its text is the
    key, so a copy at another path shares the entry and an edited file is
    compiled anew."""
    from .serialize import read_fixture
    return _compiled(read_fixture(config.inputs[0]), kinds, role)


def _fibered_input(config: RunConfig) -> Tuple[FiberedBundle, object]:
    """The fibered model of a fixture, compiled once per fixture text (see
    `_compiled_input`), and the unit u of --rep (see `_rep_unit`): every
    fibered invariant is the bundle's trivial one at t -> u t."""
    from .serialize import KIND_MAPPING_TORUS, KIND_TORUS
    bundle = _compiled_input(config, (KIND_TORUS, KIND_MAPPING_TORUS),
                             "carries no fibered model")
    return bundle, _rep_unit(config.rep)


def _rep_unit(label: str):
    """The unit u of the rank-1 representation g -> u^(degree g) named by
    --rep zeta:n[:k], trivial (zeta:1) or sign (zeta:2): the k-th power of
    a primitive n-th root of unity, n at most the package's conductor bound
    `chars.CYCLIC_LIMIT`, built in its least conductor n / gcd(n, k), so
    every label of one root gives one report (1 and -1 are ints)."""
    from .chars import CYCLIC_LIMIT
    from .kernel import Cyclotomic
    name, *fields = {"trivial": "zeta:1", "sign": "zeta:2"}.get(
        label, label).split(":")
    values = None
    if name == "zeta" and len(fields) in (1, 2):
        try:
            values = [parse_int(field, "--rep")
                      for field in (fields + ["1"])[:2]]
        except ValueError:  # more digits than the interpreter converts
            pass
    if values and None not in values:
        n, k = values
        if n > CYCLIC_LIMIT:
            raise ValueError(f"--rep zeta:n needs n in 1..{CYCLIC_LIMIT}, "
                             f"got {n}")
        if n >= 1:
            g = math.gcd(n, k)
            return Cyclotomic.root(n // g, k // g).demote()
    raise ValueError(f"unknown representation {label!r}: expected trivial, "
                     "sign, or zeta:n[:k]")


def _parse_slope(text: str) -> Tuple[int, int]:
    values = tuple(parse_int(p.strip(), "slope entries")
                   for p in text.split(","))
    if None in values:
        raise ValueError(f"slope must look like 'p,q', got {text!r}")
    if len(values) != 2:
        raise ValueError(f"slope must have two entries, got {text!r}")
    return values


def _orbit_projection_input(config: RunConfig):
    from .chars import builtin_group
    from .serialize import KIND_ORBIT_PROJECTION
    payload = _compiled_input(config, (KIND_ORBIT_PROJECTION,),
                              "is not an orbit projection table")
    group_name = config.group or payload.group
    return builtin_group(group_name), payload.table, payload.attained


# ---------------------------------------------------------------------------
# the subcommand table
# ---------------------------------------------------------------------------

class Flag(Record):
    """A flag that sets the RunConfig field `field`: a switch, a string, or
    a bound, which is a positive integer, `default` when omitted and at
    most the library constant `limit`, a (module, name) pair."""

    def __init__(self, option: str, field: str, help: str,
                 default: Optional[int] = None,
                 limit: Optional[Tuple[str, str]] = None, switch=False):
        self.__dict__.update(option=option, field=field, help=help,
                             default=default, limit=limit, switch=switch)


class Command(Record):
    """A subcommand: its handler, help line, positionals in the order they
    fill `RunConfig.inputs`, and flags after ``--json``, which all take."""

    def __init__(self, handler: Callable, help: str, positionals: tuple,
                 flags: Tuple[Flag, ...] = ()):
        self.__dict__.update(handler=handler, help=help, flags=flags,
                             positionals=positionals)


COMMANDS = {}       # subcommand -> Command, in the order of `--help`


def _command(name: str, *row):
    """Make the decorated handler's Command(handler, *row) the row `name`
    of `COMMANDS`."""
    def declare(handler):
        COMMANDS[name] = Command(handler, *row)
        return handler
    return declare


def _bound(config: RunConfig, field: str) -> int:
    """The bound flag `field` of config, or its default when omitted."""
    return getattr(config, field) or next(
        flag.default for flag in COMMANDS[config.subcommand].flags
        if flag.field == field)


_FIXTURE, _PAIR = ("fixture",), ("matrix_a", "matrix_b")
_REP = Flag("--rep", "rep", "representation: trivial, sign, or zeta:n[:k]")
_GROUP = Flag("--group", "group", "override the group named in the fixture")
_LEFSCHETZ = ("cellular", "LEFSCHETZ_LIMIT")
_GROUPS = {"torus": "2x2 integer matrix conjugacy",
           "nt": "normal-form decomposition invariants",
           "chars": "character projections of orbit data"}


# ---------------------------------------------------------------------------
# handlers: each returns (text report, json payload)
# ---------------------------------------------------------------------------

SWEEP_NOTE = ("levels test conjugacy on the quotients (Z/n)^2; these are "
              "characteristic subgroups and, by the lcm structure of the "
              "intersection lattices, cofinal with the full characteristic "
              "tower, so a full pass carries the same information")


def _verdict_json(verdict, key: str, value) -> dict:
    """An SL(2,Z) or GL(2,Z/n) verdict as JSON, with `key` set to `value`."""
    return {key: value, "conjugate": verdict.conjugate,
            "witness": verdict.witness and verdict.witness.to_string()}


def _sl2_report(verdict: SL2Verdict):
    """The report lines (answer, then any witness) and JSON of a verdict."""
    word = "conjugate" if verdict.conjugate else "not conjugate"
    lines = [f"SL(2,Z): {word} ({verdict.reason})"]
    if verdict.witness is not None:
        lines.append(f"SL(2,Z) witness: {verdict.witness.to_string()}")
    return lines, _verdict_json(verdict, "reason", verdict.reason)


@_command("torus conj", "decide SL(2,Z) conjugacy", _PAIR)
def _handle_torus_conj(config: RunConfig):
    from .torus import sl2_conjugate
    a, b, line, payload = _matrix_pair(config)
    lines, payload["sl2"] = _sl2_report(sl2_conjugate(a, b))
    return "\n".join([line, *lines]), payload


@_command("torus congr", "decide GL(2,Z/n) conjugacy at one level",
          (*_PAIR, "modulus"))
def _handle_torus_congr(config: RunConfig):
    from .torus import congruent_conjugate_mod
    a, b, line, payload = _matrix_pair(config)
    n = _positive_int(config.inputs[2], "modulus")
    verdict = congruent_conjugate_mod(a, b, n)
    word = "conjugate" if verdict.conjugate else "not conjugate"
    lines = [line, f"GL(2,Z/{n}): {word}"]
    if verdict.witness is not None:
        lines.append(f"witness mod {n}: {verdict.witness.to_string()}")
    payload["level"] = _verdict_json(verdict, "modulus", n)
    return "\n".join(lines), payload


@_command("torus sweep", "GL(2,Z/n) conjugacy for all n up to a bound",
          _PAIR, (Flag("--max", "max_modulus", "largest modulus", 100,
                       ("torus", "SWEEP_LIMIT")),))
def _handle_torus_sweep(config: RunConfig):
    from .torus import congruence_sweep
    a, b, line, payload = _matrix_pair(config)
    report = congruence_sweep(a, b, _bound(config, "max_modulus"))
    sl2_lines, payload["sl2"] = _sl2_report(report.sl2)
    first, n = report.first_failure, report.max_modulus
    failures = sum(not v.conjugate for v in report.verdicts)
    candidate = report.procongruence_candidate
    lines = [line, f"note: {SWEEP_NOTE}", *sl2_lines,
             f"levels tested: 1..{n}; failures: {failures}",
             "all levels conjugate" if first is None
             else f"first failing level: {first}",
             "procongruence candidate: " + ("yes" if candidate else "no")]
    payload.update(
        max_modulus=n, note=SWEEP_NOTE, first_failure=first,
        levels=[_verdict_json(v, "modulus", v.modulus)
                for v in report.verdicts],
        all_levels_pass=report.all_levels_pass,
        procongruence_candidate=candidate)
    return "\n".join(lines), payload


def _largest_printable_bound(digits: int) -> int:
    """The largest index bound whose characteristic level lcm(1..n) has at
    most `digits` decimal digits."""
    ceiling, level, n = 10 ** digits, 1, 1
    while math.lcm(level, n + 1) < ceiling:
        level, n = math.lcm(level, n + 1), n + 1
    return n


@_command("torus klevel", "characteristic level of an index bound",
          ("bound",))
def _handle_torus_klevel(config: RunConfig):
    from .torus import characteristic_level
    n = _positive_int(config.inputs[0], "level bound")
    # the report prints the level as a decimal integer, which the interpreter
    # caps at `digits` digits (0: no cap); lcm(1..n) < 3^n < 10^(0.478 n)
    # (Hanson, 1972), so only a larger bound can reach the cap
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and 478 * n > 1000 * digits:
        largest = _largest_printable_bound(digits)
        if n > largest:
            raise ValueError(
                f"level bound must be at most {largest}, got {n}: larger "
                f"characteristic levels exceed the {digits}-digit limit "
                f"for printing integers")
    level = characteristic_level(n)
    text = f"characteristic level for index bound {n}: {level}"
    return text, {"bound": n, "characteristic_level": level}


@_command("alexander", "twisted homology orders", _FIXTURE, (_REP,))
def _handle_alexander(config: RunConfig):
    from .surfgrp import twisted_alexander
    bundle, u = _fibered_input(config)
    orders = [twisted_alexander(bundle.surface.presentation, bundle.trivial,
                                n).at_u_t(u).monic_normal()
              for n in range(4)]
    lines = [f"rep: {config.rep}"]
    lines += [f"Delta_{n} = {p.pretty()}" for n, p in enumerate(orders)]
    payload = {"rep": config.rep,
               "orders": [p.to_json() for p in orders]}
    return "\n".join(lines), payload


@_command("torsion", "twisted Reidemeister torsion", _FIXTURE, (_REP,))
def _handle_torsion(config: RunConfig):
    from .cellular import torsion_from_cellular
    from .kernel import NormalizedTorsionClass
    from .surfgrp import twisted_torsion
    bundle, u = _fibered_input(config)
    surface, trivial = bundle.surface, bundle.trivial
    cellular = torsion_from_cellular(surface, bundle.flow, trivial)
    torsion = twisted_torsion(surface.presentation, trivial)
    if cellular.homological != torsion:
        raise ArithmeticError(
            "determinant-ratio torsion disagrees with the Alexander-order "
            "route")
    # t -> u t keeps a class normalized: its value at t = 0 stays 1
    ratio = NormalizedTorsionClass(cellular.value.value.at_u_t(u))
    torsion = ratio if cellular.acyclic else torsion    # else the zero class
    lines = [f"rep: {config.rep}",
             f"determinant ratio = {ratio.pretty()}",
             f"acyclic: {'yes' if cellular.acyclic else 'no'}",
             f"torsion class = {torsion.pretty()}",
             "alexander route agrees: yes"]
    payload = {"rep": config.rep, "determinant_ratio": ratio.to_json(),
               "acyclic": cellular.acyclic, "torsion": torsion.to_json()}
    return "\n".join(lines), payload


def _rendered_lefschetz(config: RunConfig, bundle: FiberedBundle, u,
                        field: str):
    """L_1..L_n under the --rep of unit u, the trivial L_m times u^m, for n
    the bound flag `field` of config, each rendered by `render_scalar`; a
    number with more digits than the interpreter prints is a ValueError
    naming the flag and the largest n whose numbers all print."""
    from .cellular import lefschetz_numbers
    from .kernel import LaurentPolynomial, render_scalar
    n = _bound(config, field)
    values = LaurentPolynomial.from_coefficients(lefschetz_numbers(
        bundle.surface, bundle.flow, bundle.trivial, n), 1).at_u_t(u)
    rendered = []
    for m in range(1, n + 1):
        try:
            rendered.append(render_scalar(values.coefficient(m)))
        except ValueError:  # more digits than the interpreter converts
            raise ValueError(
                f"--{field} must be at most {m - 1} for this fixture: L_{m} "
                f"exceeds the {sys.get_int_max_str_digits()}-digit limit "
                f"for printing integers") from None
    return rendered


@_command("zeta", "twisted Lefschetz zeta function", _FIXTURE,
          (_REP, Flag("--terms", "terms", "number of Lefschetz numbers", 5,
                      _LEFSCHETZ)))
def _handle_zeta(config: RunConfig):
    from .cellular import zeta_from_cellular
    bundle, u = _fibered_input(config)
    zeta = zeta_from_cellular(bundle.surface, bundle.flow,
                              bundle.trivial).at_u_t(u)
    rendered = _rendered_lefschetz(config, bundle, u, "terms")
    lines = [f"rep: {config.rep}",
             f"zeta = {zeta.pretty()}",
             f"L_1..L_{len(rendered)} = " + ", ".join(rendered)]
    payload = {"rep": config.rep, "zeta": zeta.to_json(),
               "lefschetz": rendered}
    return "\n".join(lines), payload


@_command("lefschetz", "twisted Lefschetz numbers", _FIXTURE,
          (_REP, Flag("--upto", "upto", "largest iterate", 10, _LEFSCHETZ)))
def _handle_lefschetz(config: RunConfig):
    bundle, u = _fibered_input(config)
    rendered = _rendered_lefschetz(config, bundle, u, "upto")
    lines = [f"rep: {config.rep}"]
    lines += [f"L_{m} = {v}" for m, v in enumerate(rendered, start=1)]
    payload = {"rep": config.rep, "lefschetz": rendered}
    return "\n".join(lines), payload


def _stretch_json(factor: StretchFactor) -> dict:
    """A stretch factor as JSON: its polynomial and isolating interval."""
    return {"polynomial": list(factor.polynomial),
            "interval": [str(factor.low), str(factor.high)]}


def _table_json(table: IndexedOrbitTable) -> dict:
    """An indexed orbit table as JSON: a row per iterate, then the pieces
    of model-dependent remainder."""
    return {"rows": [{"iterate": m,
                      "counts": [list(pair) for pair in row.counts],
                      "nielsen": row.nielsen}
                     for m, row in enumerate(table.rows, 1)],
            "remainder": list(table.remainder)}


@_command("nt analyze", "split order, stretch, twist, orbit table", _FIXTURE,
          (Flag("--upto", "upto", "largest iterate", 6,
                ("ntform", "ITERATE_LIMIT")),
           Flag("--approx", "approx",
                f"add {APPROX_DIGITS}-digit decimal renderings", switch=True)))
def _handle_nt_analyze(config: RunConfig):
    from .ntform import deviation, dilatation, indexed_orbit_numbers, notes
    from .serialize import KIND_NT
    nt = _compiled_input(config, (KIND_NT,), "is not a decomposition")
    dil = dilatation(nt)
    dev = deviation(nt)
    caveats = notes(nt)
    table = indexed_orbit_numbers(nt, _bound(config, "upto"))

    pa = sum(1 for p in nt.pieces if p.stretch is not None)
    lines = [f"pieces: {len(nt.pieces)} (pseudo-Anosov {pa}, "
             f"periodic {len(nt.pieces) - pa}); annuli: {len(nt.annuli)}; "
             f"circles: {len(nt.circle_permutation)}",
             f"split order: {dil.split_order}"]
    f = dil.factor
    if f is None:
        lines.append("dilatation: 1")
    else:
        lines.append(f"dilatation: root of {list(f.polynomial)} in "
                     f"[{f.low}, {f.high}]")
    approx = dil.approx(APPROX_DIGITS) if config.approx else None
    if approx is not None:
        lines.append(f"dilatation ~ {approx}")
    lines.append(f"deviation: {dev}")
    lines += [f"note: {note}" for note in caveats]
    lines.append(" m | N_m | indexed counts")
    for m, row in enumerate(table.rows, 1):
        counts = " ".join(f"{i}:{c}" for i, c in row.counts) or "-"
        lines.append(f"{m:2d} | {row.nielsen:3d} | {counts}")
    remainder = ", ".join(table.remainder) if table.remainder else "none"
    lines.append(f"regular-orbit remainder pieces: {remainder}")

    payload = {"split_order": dil.split_order,
               "dilatation": {"factor": f and _stretch_json(f),
                              "split_order": dil.split_order},
               "deviation": str(dev),
               "table": _table_json(table)}
    if approx is not None:
        payload["dilatation_approx"] = approx
    if caveats:
        payload["notes"] = list(caveats)
    return "\n".join(lines), payload


@_command("nt shear", "shearing degree of two integer slopes",
          ("slope_a", "slope_b"))
def _handle_nt_shear(config: RunConfig):
    from .ntform import shearing_from_slopes
    first = _parse_slope(config.inputs[0])
    second = _parse_slope(config.inputs[1])
    degree = shearing_from_slopes(first, second)
    lines = [f"slopes: {first[0]},{first[1]} and {second[0]},{second[1]}",
             f"shearing degree: {degree}"]
    payload = {"slopes": [list(first), list(second)], "degree": degree}
    return "\n".join(lines), payload


@_command("chars decompose", "twisted L against every character",
          _FIXTURE, (_GROUP,))
def _handle_chars_decompose(config: RunConfig):
    from .chars import all_class_indicators, character_L_vector
    from .kernel import render_scalar
    group, table, _ = _orbit_projection_input(config)
    character_L = character_L_vector(table, group)
    indicators = all_class_indicators(table, group, character_L)
    rendered = [render_scalar(v) for v in character_L]
    lines = [f"group: {group.name} (order {group.order}, "
             f"{group.class_count} classes)",
             f"orbit classes: {table.orbit_count}"]
    lines += [f"L(chi_{r}) = {v}" for r, v in enumerate(rendered)]
    lines += [f"indicator L, class {c} = {v}"
              for c, v in enumerate(indicators)]
    payload = {"group": group.name,
               "orbit_classes": table.orbit_count,
               "character_L": rendered,
               "class_indicators": list(indicators)}
    return "\n".join(lines), payload


@_command("chars bound", "lower bound for the Nielsen number", _FIXTURE,
          (_GROUP,))
def _handle_chars_bound(config: RunConfig):
    from .chars import nielsen_bound
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


def _render_json(payload) -> str:
    """The payload as `json.dumps(payload, indent=2, sort_keys=True)` writes
    it, in one pass: `indent` sends `json.dumps` to its pure-Python encoder.
    A payload holds dicts with string keys, lists, tuples, strings, ints,
    booleans and None; anything else is a TypeError."""
    chunks = []
    _write_json(payload, "\n", chunks.append)
    return "".join(chunks)


_KEY_PREFIXES = {}      # JSON key -> its encoded '"key": '


def _write_json(value, newline: str, emit) -> None:
    """Emit the JSON text of `value`, whose opening line ends in `newline`
    (a line break and the indentation of that line)."""
    kind = type(value)
    if kind is str:
        emit(encode_basestring_ascii(value))
    elif kind is int:
        emit(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            emit(separator)
            _write_json(item, inner, emit)
            separator = "," + inner
        emit(newline + "]")
    elif kind is dict:
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            prefix = _KEY_PREFIXES.get(key)
            if prefix is None:
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be strings, got {key!r}")
                prefix = encode_basestring_ascii(key) + ": "
                _KEY_PREFIXES[key] = prefix
            emit(separator + prefix)
            _write_json(value[key], inner, emit)
            separator = "," + inner
        emit(newline + "}")
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not "
                        f"JSON serializable")


def dispatch(config: RunConfig) -> Tuple[int, str]:
    """Route a configuration to its handler and render the report."""
    command = COMMANDS.get(config.subcommand)
    if command is None:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    text, payload = command.handler(config)
    if config.output == "json":
        return 0, _render_json(payload)
    return 0, text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> "argparse.ArgumentParser":
    """The parser of every subcommand in `COMMANDS`, in its order: a
    subcommand of two words is a leaf of the group `_GROUPS` names."""
    # argparse is imported here, not at module level: `dispatch` never
    # parses, and the import would cost every in-process caller
    import argparse

    parser = argparse.ArgumentParser(
        prog="procong",
        description="exact invariants separating mapping classes up to "
                    "congruence-level conjugacy")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = top.add_parser(
                group, help=_GROUPS[group]).add_subparsers(
                    dest="subcommand", required=True)
        sub = groups.get(group, top).add_parser(leaf, help=command.help)
        sub.add_argument("--json", action="store_true",
                         help="emit the machine-readable report")
        for flag in command.flags:
            text = (f"{flag.help} (default {flag.default})" if flag.limit
                    else flag.help)
            sub.add_argument(flag.option, help=text, action=(
                "store_true" if flag.switch else "store"))
        for positional in command.positionals:
            sub.add_argument(positional)
        # argparse reads an argument that matches a parser's negative-number
        # pattern as a positional: widen it to any "-" and digit, so a
        # matrix or slope may begin with a minus sign
        sub._negative_number_matcher = re.compile(r"-\d")
    return parser


def config_from_args(args: "argparse.Namespace") -> RunConfig:
    """The configuration of parsed arguments: the positionals of the
    subcommand's row in order, and each flag given; an omitted flag takes
    the default of `RunConfig` (a bound flag's is its row's).  A bound is
    read by `parse_int`."""
    subcommand = args.command
    if getattr(args, "subcommand", None):
        subcommand += f" {args.subcommand}"
    command, given = COMMANDS[subcommand], vars(args)
    return RunConfig(
        subcommand, tuple(given[name] for name in command.positionals),
        output="json" if args.json else "text",
        **{flag.field: _integer(value, flag.option) if flag.limit else value
           for flag in command.flags
           if (value := given[flag.option[2:]]) is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        try:
            print(report, flush=True)
        except BrokenPipeError:
            # the reader has gone, which is no failure of ours; stdout now
            # points at the null device, so the interpreter's final flush of
            # what is still buffered stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
