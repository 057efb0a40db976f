"""Versioned JSON fixture grammar: the one module that knows the format.

Every fixture file is a JSON object ``{"schema": ..., "kind": ..., "body":
...}``.  The kinds are the keys of ``_DECODERS``: ``torus_monodromy``,
``mapping_torus``, ``nt_decomposition`` and ``orbit_projection``; any other
kind, such as a computed orbit table, is refused as unknown.  Loading
validates the schema id and decodes the body into live objects: the
decoders check every JSON type, naming the field of a value that fails
(an integer is neither a float nor a boolean, a name is a string, a list
is not a string), and the library constructors they call check the
mathematics.  `encode_mapping_torus` and `encode_nt` write a presentation
and a decomposition back as bodies.  Relative paths are resolved against
the fixture root, which defaults to the in-repo ``fixtures`` directory and
can be overridden with the ``PROCONG_FIXTURES`` environment variable.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Any

from .chars import OrbitProjectionTable
from .ntform import (PSEUDO_ANOSOV, InteriorOrbit, NTDecomposition,
                     ReductionAnnulus, StretchFactor, VertexPiece)
from .record import Record
from .surfgrp import (GeneratorEndomorphism, MappingTorusPresentation,
                      SurfacePresentation)
from .torus import Mat2

SCHEMA_ID = "procong-fixtures/1"
FIXTURES_ENV = "PROCONG_FIXTURES"

KIND_TORUS = "torus_monodromy"
KIND_MAPPING_TORUS = "mapping_torus"
KIND_NT = "nt_decomposition"
KIND_ORBIT_PROJECTION = "orbit_projection"


class Fixture(Record):
    """A decoded fixture: its grammar kind plus the live payload."""

    def __init__(self, kind: str, payload: Any):
        self.__dict__.update(kind=kind, payload=payload)


class OrbitProjectionFixture(Record):
    """Orbit projection rows with their group name and attainment claim."""

    def __init__(self, group: str, table: OrbitProjectionTable,
                 attained: bool):
        self.__dict__.update(group=group, table=table, attained=attained)


# ---------------------------------------------------------------------------
# JSON types, each refused with the name of its field
# ---------------------------------------------------------------------------

def _json_int(value, field: str) -> int:
    """An integer: floats, booleans and strings are rejected, not
    truncated."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _json_str(value, field: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def _json_list(value, field: str) -> list:
    """A list: a string is rejected, not split into its characters."""
    if type(value) is not list:
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def _json_object(value, field: str) -> dict:
    """An object: a list, string or number is rejected, not indexed into."""
    if type(value) is not dict:
        raise ValueError(f"{field} must be an object, got {value!r}")
    return value


def _json_fraction(value, field: str) -> Fraction:
    """A rational number, an integer or a string such as "5/2": floats and
    booleans are rejected, not rounded."""
    if type(value) in (int, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{field} must be an integer or a fraction string, "
                     f"got {value!r}")


def _json_ints(values, field: str) -> tuple:
    return tuple(_json_int(v, field) for v in _json_list(values, field))


def _json_names(names, field: str) -> tuple:
    return tuple(_json_str(name, field) for name in _json_list(names, field))


def _json_words(words, field: str) -> tuple:
    """Words: a list of lists (else naming `field` or the entry), then
    integer letters (else naming `field`), one type check per word; the
    letter ranges are the library's to check."""
    words = tuple(tuple(_json_list(w, f"{field}[{i}]"))
                  for i, w in enumerate(_json_list(words, field)))
    for word in words:
        if not set(map(type, word)) <= {int}:
            _json_int(next(x for x in word if type(x) is not int), field)
    return words


def _json_pairs(mapping, field: str) -> tuple:
    """A map between names: an object, or a list of [name, name] pairs,
    which may repeat a name for the library to refuse."""
    if type(mapping) is dict:
        pairs = mapping.items()
    elif type(mapping) is list and all(
            type(pair) is list and len(pair) == 2 for pair in mapping):
        pairs = mapping
    else:
        raise ValueError(f"{field} must be an object or a list of pairs, "
                         f"got {mapping!r}")
    return tuple((_json_str(a, field), _json_str(b, field))
                 for a, b in pairs)


# ---------------------------------------------------------------------------
# decoders, one per kind
# ---------------------------------------------------------------------------

def _decode_torus(body) -> Mat2:
    return Mat2.from_string(body["matrix"])


def _decode_mapping_torus(body) -> MappingTorusPresentation:
    fiber = _json_object(body["fiber"], "fiber")
    fiber = SurfacePresentation(
        _json_int(fiber["genus"], "genus"),
        _json_int(fiber["boundary_count"], "boundary_count"),
        _json_names(fiber["generators"], "fiber generators"),
        _json_words(fiber["relators"], "fiber relators"))
    monodromy = _json_object(body["monodromy"], "monodromy")
    monodromy = GeneratorEndomorphism(
        fiber, _json_words(monodromy["images"], "images"),
        _json_words(monodromy["inverse_images"], "inverse_images"))
    return MappingTorusPresentation(
        generators=_json_names(body["generators"], "generators"),
        relators=_json_words(body["relators"], "relators"),
        fiber_values=_json_ints(body["fiber_values"], "fiber_values"),
        fiber=fiber,
        monodromy=monodromy,
        stable_index=_json_int(body["stable_index"], "stable_index"))


def _decode_stretch(data) -> StretchFactor:
    data = _json_object(data, "stretch")
    interval = _json_list(data["interval"], "stretch interval")
    if len(interval) != 2:
        raise ValueError("stretch interval must have two entries, got "
                         f"{len(interval)}")
    polynomial = _json_ints(data["polynomial"], "stretch polynomial")
    low, high = (_json_fraction(end, "stretch interval") for end in interval)
    return StretchFactor(polynomial, low, high)


def _decode_orbits(entries, field: str) -> tuple:
    orbits = []
    for i, o in enumerate(_json_list(entries, field)):
        o = _json_object(o, f"{field}[{i}]")
        name, size = o["name"], o["size"]
        prongs = o.get("prongs")
        orbits.append(InteriorOrbit(
            _json_str(name, "orbit name"), _json_int(size, "orbit size"),
            rotation=_json_int(o.get("rotation", 0), "orbit rotation"),
            prongs=None if prongs is None
            else _json_int(prongs, "orbit prongs")))
    return tuple(orbits)


def _decode_piece(p) -> VertexPiece:
    name, kind, euler = p["name"], p["kind"], p["euler"]
    stretch, orbits = p.get("stretch"), p.get("orbits")
    stretch = None if stretch is None else _decode_stretch(stretch)
    orbits = None if orbits is None else _decode_orbits(orbits, "orbits")
    name, kind = _json_str(name, "piece name"), _json_str(kind, "piece kind")
    euler = _json_int(euler, "euler")
    period = _json_int(p.get("period", 1), "period")
    return VertexPiece(
        name, kind, euler,
        circles=_json_names(p.get("circles", []), "circles"),
        boundary_singularities=_json_ints(
            p.get("boundary_singularities", []), "boundary_singularities"),
        stretch=stretch, orbits=orbits, period=period)


def _decode_annulus(a) -> ReductionAnnulus:
    name, twist, ends = a["name"], a["twist"], a["ends"]
    orbits = _decode_orbits(a.get("orbits", []), "annulus orbits")
    return ReductionAnnulus(
        _json_str(name, "annulus name"), _json_fraction(twist, "twist"),
        tuple(None if e is None else _json_str(e, "annulus ends")
              for e in _json_list(ends, "annulus ends")),
        orbits)


def _decode_nt(body) -> NTDecomposition:
    pieces = tuple(_decode_piece(_json_object(p, f"pieces[{i}]"))
                   for i, p in enumerate(_json_list(body["pieces"], "pieces")))
    annuli = tuple(_decode_annulus(_json_object(a, f"annuli[{i}]"))
                   for i, a in enumerate(_json_list(body.get("annuli", []),
                                                    "annuli")))
    piece_map, circle_map = body["piece_map"], body["circle_map"]
    return NTDecomposition(pieces, annuli,
                           _json_pairs(piece_map, "piece_map"),
                           _json_pairs(circle_map, "circle_map"))


def _decode_orbit_projection(body) -> OrbitProjectionFixture:
    rows = []
    for k, row in enumerate(_json_list(body["rows"], "rows")):
        try:
            orbit, index, class_id = row
        except (TypeError, ValueError):
            raise ValueError(f"rows[{k}] must be [orbit, index, class id], "
                             f"got {row!r}") from None
        rows.append((_json_str(orbit, f"rows[{k}] orbit"),
                     _json_int(index, f"rows[{k}] index"),
                     _json_int(class_id, f"rows[{k}] class id")))
    table = OrbitProjectionTable(tuple(rows))
    attained = body.get("attained", False)
    if type(attained) is not bool:
        raise ValueError(f"attained must be true or false, got {attained!r}")
    return OrbitProjectionFixture(_json_str(body["group"], "group"), table,
                                  attained)


_DECODERS = {
    KIND_TORUS: _decode_torus,
    KIND_MAPPING_TORUS: _decode_mapping_torus,
    KIND_NT: _decode_nt,
    KIND_ORBIT_PROJECTION: _decode_orbit_projection,
}


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def _lists(words) -> list:
    return [list(w) for w in words]


def encode_mapping_torus(mt: MappingTorusPresentation) -> dict:
    """The `mapping_torus` body of a fibered presentation."""
    fiber, monodromy = mt.fiber, mt.monodromy
    return {"generators": list(mt.generators),
            "relators": _lists(mt.relators),
            "fiber_values": list(mt.fiber_values),
            "stable_index": mt.stable_index,
            "fiber": {"genus": fiber.genus,
                      "boundary_count": fiber.boundary_count,
                      "generators": list(fiber.generators),
                      "relators": _lists(fiber.relators)},
            "monodromy": {"images": _lists(monodromy.images),
                          "inverse_images": _lists(monodromy.inverse_images)}}


def _encode_orbits(orbits) -> list:
    return [{"name": o.name, "size": o.size, "prongs": o.prongs,
             "rotation": o.rotation} for o in orbits]


def encode_nt(nt: NTDecomposition) -> dict:
    """The `nt_decomposition` body of a decomposition."""
    pieces = []
    for p in nt.pieces:
        entry = {"name": p.name, "kind": p.kind, "euler": p.euler,
                 "circles": list(p.circles)}
        if p.kind == PSEUDO_ANOSOV:
            entry["boundary_singularities"] = list(p.boundary_singularities)
            entry["stretch"] = {"polynomial": list(p.stretch.polynomial),
                                "interval": [str(p.stretch.low),
                                             str(p.stretch.high)]}
        if p.period != 1:
            entry["period"] = p.period
        if p.orbits is not None:
            entry["orbits"] = _encode_orbits(p.orbits)
        pieces.append(entry)
    annuli = []
    for a in nt.annuli:
        entry = {"name": a.name, "twist": str(a.twist), "ends": list(a.ends)}
        if a.orbits:
            entry["orbits"] = _encode_orbits(a.orbits)
        annuli.append(entry)
    return {"pieces": pieces, "annuli": annuli,
            "piece_map": dict(nt.piece_map),
            "circle_map": dict(nt.circle_map)}


# ---------------------------------------------------------------------------
# files and paths
# ---------------------------------------------------------------------------

def default_fixture_root() -> Path:
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[2] / "fixtures"


def resolve_path(path: str) -> Path:
    """Resolve a fixture path: as given first, then under the fixture root
    (full relative path, then bare file name)."""
    direct = Path(path)
    if direct.exists():
        return direct
    if not direct.is_absolute():
        root = default_fixture_root()
        for candidate in (root / direct, root / direct.name):
            if candidate.exists():
                return candidate
    raise ValueError(f"fixture file not found: {path}")


def wrap(kind: str, body) -> dict:
    if kind not in _DECODERS:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return {"schema": SCHEMA_ID, "kind": kind, "body": body}


def dumps(kind: str, body) -> str:
    return json.dumps(wrap(kind, body), indent=2, sort_keys=True) + "\n"


def save_fixture(path, kind: str, body) -> None:
    Path(path).write_text(dumps(kind, body), encoding="utf-8")


def parse_fixture(text: str) -> Fixture:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"fixture is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("fixture nests its JSON values too deeply to "
                         "decode") from None
    if not isinstance(data, dict):
        raise ValueError("fixture must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA_ID:
        raise ValueError(f"unsupported fixture schema {schema!r}: "
                         f"expected {SCHEMA_ID!r}")
    kind = data.get("kind")
    decoder = _DECODERS.get(kind) if type(kind) is str else None
    if decoder is None:
        raise ValueError(f"unknown fixture kind {kind!r}")
    if "body" not in data:
        raise ValueError("fixture has no body")
    try:
        payload = decoder(_json_object(data["body"], "body"))
    except (KeyError, TypeError, IndexError) as exc:
        detail = (f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError)
                  else str(exc))
        raise ValueError(f"malformed {kind} fixture: {detail}") from exc
    return Fixture(kind, payload)


def read_fixture(path) -> str:
    """The text of the fixture file at `path`, resolved by `resolve_path`."""
    return resolve_path(str(path)).read_text(encoding="utf-8")


def load_fixture(path) -> Fixture:
    return parse_fixture(read_fixture(path))
