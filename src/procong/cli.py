"""Command-line driver exposing every computation of the library.

Subcommands: ``torus conj|congr|sweep|klevel``, ``alexander``, ``torsion``,
``zeta``, ``lefschetz``, ``nt analyze|shear``, ``chars decompose|bound``.
All numeric output is exact (integers, fractions, coefficient lists); the
optional ``--approx`` flag adds decimal renderings with 30 significant
digits obtained by interval refinement.  ``--json`` switches the report to
a machine-readable form encoding the same values.  Identical inputs yield
byte-identical reports.

Every fixture-reading subcommand (``alexander``, ``torsion``, ``zeta``,
``lefschetz``, ``nt analyze``, ``chars``) reads its fixture file on every
call and looks its text up in one cache of compiled fixtures: fibered
bundles, validated decompositions and orbit projection tables.  The cache
is keyed by the text, so an edited file is compiled anew; it is one
``functools.lru_cache`` of ``COMPILED_SLOTS`` (8) texts, which evicts the
least recently used; a text that fails to decode or validate raises
inside it, so it is never stored.  A decomposition keeps
its orbit-count rows and a stretch factor its decimal renderings, so those
are derived once per process (see ``ntform``).

Exit status: 0 on success, 2 on input errors (unreadable fixtures, bad
arguments, validation failures), 1 on internal assertion failures.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii
from typing import Optional, Tuple

from .record import Record

APPROX_DIGITS = 30


class RunConfig(Record):
    """One dispatchable invocation of the driver.  A bound flag must be
    positive and at most the limit of the computation it bounds (see
    `_flag_limit`), so no request starts on a size it cannot finish."""

    def __init__(self, subcommand: str, inputs: Tuple[str, ...] = (),
                 max_modulus: Optional[int] = None,
                 terms: Optional[int] = None, upto: Optional[int] = None,
                 rep: str = "trivial", group: Optional[str] = None,
                 approx: bool = False, output: str = "text"):
        for label, bound in (("--max", max_modulus), ("--terms", terms),
                             ("--upto", upto)):
            if bound is None:
                continue
            if bound < 1:
                raise ValueError(f"{label} must be a positive integer")
            limit = _flag_limit(label, subcommand)
            if bound > limit:
                raise ValueError(f"{label} must be at most {limit}")
        if output not in ("text", "json"):
            raise ValueError(f"unknown output mode {output!r}")
        self.__dict__.update(
            subcommand=subcommand, inputs=tuple(inputs),
            max_modulus=max_modulus, terms=terms, upto=upto, rep=rep,
            group=group, approx=approx, output=output)


def _flag_limit(label: str, subcommand: str) -> int:
    """The largest value of a bound flag: `torus.SWEEP_LIMIT` for --max,
    `cellular.LEFSCHETZ_LIMIT` for --terms and for the --upto of
    lefschetz, and `ntform.ITERATE_LIMIT` for the --upto of nt analyze."""
    if label == "--max":
        from .torus import SWEEP_LIMIT
        return SWEEP_LIMIT
    if label == "--terms" or subcommand == "lefschetz":
        from .cellular import LEFSCHETZ_LIMIT
        return LEFSCHETZ_LIMIT
    from .ntform import ITERATE_LIMIT
    return ITERATE_LIMIT


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _matrix_pair(config: RunConfig) -> Tuple[Mat2, Mat2]:
    from .torus import Mat2
    return Mat2.from_string(config.inputs[0]), Mat2.from_string(config.inputs[1])


def _positive_int(text: str, label: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{label} must be an integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"{label} must be positive, got {value}")
    return value


class FiberedBundle(Record):
    """A fibered fixture compiled once: its cellular model, built by
    `cellular_model` on the canonical presentation of the monodromy, which
    every fibered subcommand reads, the fixture's own presentation, and the
    --rep representations resolved on the model's presentation.  Each
    representation keeps its twisted complexes, so the certification, the
    orders, the flow maps and the zeta function are built once per bundle
    and label, however many subcommands read them.  Unlike other records
    it is mutable and unhashable."""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, surface: CellularSurface, flow: CellularSelfMap,
                 own: MappingTorusPresentation, reps: Optional[dict] = None):
        self.__dict__.update(surface=surface, flow=flow, own=own,
                             reps={} if reps is None else reps)

    def rep(self, label: str) -> FiniteRepresentation:
        """The representation named by --rep on the model's presentation,
        resolved once per label.  When the fixture's own presentation is
        not the model's, the two must agree on Delta_0 and Delta_1 under
        the label (else ValueError naming the relators)."""
        from .surfgrp import twisted_alexander
        if label not in self.reps:
            model = self.surface.presentation
            rep = _resolve_rep(model, label)
            if self.own != model:
                own = _resolve_rep(self.own, label)
                for n in (0, 1):
                    given, expected = (twisted_alexander(p, r, n) for p, r
                                       in ((self.own, own), (model, rep)))
                    if given != expected:
                        raise ValueError(
                            f"relators do not present the mapping torus of "
                            f"the monodromy: Delta_{n} = {given.pretty()} "
                            f"under --rep {label}, but {expected.pretty()} "
                            f"on the canonical presentation")
            self.reps[label] = rep
        return self.reps[label]


COMPILED_SLOTS = 8


@functools.lru_cache(maxsize=COMPILED_SLOTS)
def _compiled(text: str, kinds: Tuple[str, ...], role: str):
    """The compiled payload of a fixture text, which must be of one of
    `kinds` (else ValueError: "fixture kind ... {role}"): a FiberedBundle
    for the fibered kinds, the validated payload for the others.

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
    from .surfgrp import (GeneratorEndomorphism, SurfacePresentation,
                          mapping_torus)
    mt = fixture.payload
    if fixture.kind == KIND_TORUS:
        mt = mapping_torus(SurfacePresentation.closed(1),
                           GeneratorEndomorphism.torus_monodromy(mt))
    return FiberedBundle(*cellular_model(mt), mt)


def _compiled_input(config: RunConfig, kinds: Tuple[str, ...], role: str):
    """The compiled payload (see `_compiled`) of the fixture file
    config.inputs[0].  The file is read on every call and its text is the
    key, so a copy at another path shares the entry and an edited file is
    compiled anew."""
    from .serialize import read_fixture
    return _compiled(read_fixture(config.inputs[0]), kinds, role)


def _fibered_input(config: RunConfig
                   ) -> Tuple[FiberedBundle, FiniteRepresentation]:
    """The fibered model of a fixture, compiled once per fixture text (see
    `_compiled_input`), and the --rep representation on the model's
    presentation, from which every fibered invariant is read."""
    from .serialize import KIND_MAPPING_TORUS, KIND_TORUS
    bundle = _compiled_input(config, (KIND_TORUS, KIND_MAPPING_TORUS),
                             "carries no fibered model")
    return bundle, bundle.rep(config.rep)


def _resolve_rep(mt, label: str) -> FiniteRepresentation:
    """Build the rank-1 representation named by --rep: trivial, sign, or
    zeta:n[:k] for the k-th power of a primitive n-th root of unity, with
    n at most the package's conductor bound `chars.CYCLIC_LIMIT`.  The
    root is built in its least conductor n / gcd(n, k), so every label of
    one root gives one report."""
    from .chars import CYCLIC_LIMIT
    from .kernel import Cyclotomic
    from .surfgrp import FiniteRepresentation
    if label == "trivial":
        return FiniteRepresentation.trivial(mt)
    if label == "sign":
        return FiniteRepresentation.fibered_character(mt, -1)
    match = re.fullmatch(r"zeta:(-?[0-9]+)(?::(-?[0-9]+))?", label)
    if match:
        try:
            n, k = int(match[1]), int(match[2] or 1)
        except ValueError:  # more digits than the interpreter converts
            match = None
    if match:
        if n > CYCLIC_LIMIT:
            raise ValueError(f"--rep zeta:n needs n in 1..{CYCLIC_LIMIT}, "
                             f"got {n}")
        if n >= 1:
            g = math.gcd(n, k)
            return FiniteRepresentation.fibered_character(
                mt, Cyclotomic.root(n // g, k // g))
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
    from .chars import builtin_group
    from .serialize import KIND_ORBIT_PROJECTION
    payload = _compiled_input(config, (KIND_ORBIT_PROJECTION,),
                              "is not an orbit projection table")
    group_name = config.group or payload.group
    return builtin_group(group_name), payload.table, payload.attained


# ---------------------------------------------------------------------------
# handlers: each returns (text report, json payload)
# ---------------------------------------------------------------------------

def _handle_torus_conj(config: RunConfig):
    from .torus import sl2_conjugate
    a, b = _matrix_pair(config)
    verdict = sl2_conjugate(a, b)
    lines = [f"pair A = {a.to_string()}  B = {b.to_string()}",
             *verdict.lines()]
    payload = {"matrix_a": a.to_string(), "matrix_b": b.to_string(),
               "sl2": verdict.to_json()}
    return "\n".join(lines), payload


def _handle_torus_congr(config: RunConfig):
    from .torus import congruent_conjugate_mod
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
    from .torus import congruence_sweep
    a, b = _matrix_pair(config)
    bound = config.max_modulus if config.max_modulus is not None else 100
    report = congruence_sweep(a, b, bound)
    return report.render_text(), report.to_json()


def _largest_printable_bound(digits: int) -> int:
    """The largest index bound whose characteristic level lcm(1..n) has at
    most `digits` decimal digits."""
    ceiling, level, n = 10 ** digits, 1, 1
    while math.lcm(level, n + 1) < ceiling:
        level, n = math.lcm(level, n + 1), n + 1
    return n


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


def _handle_alexander(config: RunConfig):
    from .surfgrp import twisted_alexander
    bundle, rep = _fibered_input(config)
    orders = [twisted_alexander(bundle.surface.presentation, rep, n)
              for n in range(4)]
    lines = [f"rep: {config.rep}"]
    lines += [f"Delta_{n} = {p.pretty()}" for n, p in enumerate(orders)]
    payload = {"rep": config.rep,
               "orders": [p.to_json() for p in orders]}
    return "\n".join(lines), payload


def _handle_torsion(config: RunConfig):
    from .cellular import torsion_from_cellular
    from .surfgrp import twisted_torsion
    bundle, rep = _fibered_input(config)
    surface = bundle.surface
    cellular = torsion_from_cellular(surface, bundle.flow, rep)
    alexander_route = twisted_torsion(surface.presentation, rep)
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


def _rendered_lefschetz(bundle: FiberedBundle, rep: FiniteRepresentation,
                        count: int, label: str):
    """L_1..L_count of the bundle under rep, each rendered by
    `render_scalar`; a number with more digits than the interpreter prints
    is a ValueError naming the flag `label` that set `count` and the
    largest count whose numbers all print."""
    from .cellular import lefschetz_numbers
    from .kernel import render_scalar
    values = lefschetz_numbers(bundle.surface, bundle.flow, rep, count)
    rendered = []
    for m, value in enumerate(values, start=1):
        try:
            rendered.append(render_scalar(value))
        except ValueError:  # more digits than the interpreter converts
            raise ValueError(
                f"{label} must be at most {m - 1} for this fixture: L_{m} "
                f"exceeds the {sys.get_int_max_str_digits()}-digit limit "
                f"for printing integers") from None
    return rendered


def _handle_zeta(config: RunConfig):
    from .cellular import zeta_from_cellular
    bundle, rep = _fibered_input(config)
    terms = config.terms if config.terms is not None else 5
    zeta = zeta_from_cellular(bundle.surface, bundle.flow, rep)
    rendered = _rendered_lefschetz(bundle, rep, terms, "--terms")
    lines = [f"rep: {config.rep}",
             f"zeta = {zeta.pretty()}",
             f"L_1..L_{terms} = " + ", ".join(rendered)]
    payload = {"rep": config.rep, "zeta": zeta.to_json(),
               "lefschetz": rendered}
    return "\n".join(lines), payload


def _handle_lefschetz(config: RunConfig):
    bundle, rep = _fibered_input(config)
    upto = config.upto if config.upto is not None else 10
    rendered = _rendered_lefschetz(bundle, rep, upto, "--upto")
    lines = [f"rep: {config.rep}"]
    lines += [f"L_{m} = {v}" for m, v in enumerate(rendered, start=1)]
    payload = {"rep": config.rep, "lefschetz": rendered}
    return "\n".join(lines), payload


def _handle_nt_analyze(config: RunConfig):
    from .ntform import deviation, dilatation, indexed_orbit_numbers
    from .serialize import KIND_NT
    nt = _compiled_input(config, (KIND_NT,), "is not a decomposition")
    upto = config.upto if config.upto is not None else 6
    dil = dilatation(nt)
    dev = deviation(nt)
    table = indexed_orbit_numbers(nt, upto)

    pa = sum(1 for p in nt.pieces if p.stretch is not None)
    lines = [f"pieces: {len(nt.pieces)} (pseudo-Anosov {pa}, "
             f"periodic {len(nt.pieces) - pa}); annuli: {len(nt.annuli)}; "
             f"circles: {len(nt.circle_permutation)}",
             f"split order: {dil.split_order}"]
    if dil.factor is None:
        lines.append("dilatation: 1")
    else:
        f = dil.factor
        lines.append(f"dilatation: root of {list(f.polynomial)} in "
                     f"[{f.low}, {f.high}]")
    approx = dil.approx(APPROX_DIGITS) if config.approx else None
    if approx is not None:
        lines.append(f"dilatation ~ {approx}")
    lines.append(f"deviation: {dev}")
    lines.append(" m | N_m | indexed counts")
    for m, row in enumerate(table.rows, 1):
        counts = " ".join(f"{i}:{c}" for i, c in row.counts) or "-"
        lines.append(f"{m:2d} | {row.nielsen:3d} | {counts}")
    remainder = ", ".join(table.remainder) if table.remainder else "none"
    lines.append(f"regular-orbit remainder pieces: {remainder}")

    payload = {"split_order": dil.split_order,
               "dilatation": dil.to_json(),
               "deviation": str(dev),
               "table": table.to_json()}
    if approx is not None:
        payload["dilatation_approx"] = approx
    return "\n".join(lines), payload


def _handle_nt_shear(config: RunConfig):
    from .ntform import shearing_from_slopes
    first = _parse_slope(config.inputs[0])
    second = _parse_slope(config.inputs[1])
    degree = shearing_from_slopes(first, second)
    lines = [f"slopes: {first[0]},{first[1]} and {second[0]},{second[1]}",
             f"shearing degree: {degree}"]
    payload = {"slopes": [list(first), list(second)], "degree": degree}
    return "\n".join(lines), payload


def _handle_chars_decompose(config: RunConfig):
    from .chars import all_class_indicators, character_L_vector
    from .kernel import render_scalar
    group, table, _ = _orbit_projection_input(config)
    character_L = character_L_vector(table, group)
    indicators = all_class_indicators(table, group, character_L)
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


def _print_warning(message, category, filename, lineno, file=None,
                   line=None):
    """Library warnings reach stderr as one `warning:` line, without the
    source location."""
    print(f"warning: {message}", file=sys.stderr)


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
    # None, the booleans, and subclasses, written as their base type
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        _write_json(list(value), newline, emit)
    elif isinstance(value, dict):
        _write_json(dict(value), newline, emit)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not "
                        f"JSON serializable")


def dispatch(config: RunConfig) -> Tuple[int, str]:
    """Route a configuration to its handler and render the report."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        text, payload = handler(config)
    if config.output == "json":
        return 0, _render_json(payload)
    return 0, text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> "argparse.ArgumentParser":
    # argparse is imported here, not at module level: `dispatch` never
    # parses, and the import would cost every in-process caller
    import argparse

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
    sweep.add_argument("--max", type=int,
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
            sub.add_argument("--terms", type=int,
                             help="number of Lefschetz numbers (default 5)")
        if name == "lefschetz":
            sub.add_argument("--upto", type=int,
                             help="largest iterate (default 10)")

    nt = top.add_parser("nt", help="normal-form decomposition invariants")
    ntsub = nt.add_subparsers(dest="subcommand", required=True)
    analyze = ntsub.add_parser("analyze", parents=[common],
                               help="split order, stretch, twist, orbit table")
    analyze.add_argument("fixture")
    analyze.add_argument("--upto", type=int,
                         help="largest iterate (default 6)")
    analyze.add_argument("--approx", action="store_true",
                         help=f"add {APPROX_DIGITS}-digit decimal renderings")
    shear = ntsub.add_parser("shear", parents=[common],
                             help="shearing degree of two integer slopes")
    shear.add_argument("slope_a")
    shear.add_argument("slope_b")
    # A matrix or slope may begin with a minus sign.  argparse reads an
    # argument that matches a parser's negative-number pattern as a
    # positional, so these parsers widen it to any "-" and a digit.
    for sub in (conj, congr, sweep, shear):
        sub._negative_number_matcher = re.compile(r"-\d")

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


def config_from_args(args: "argparse.Namespace") -> RunConfig:
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
