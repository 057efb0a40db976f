"""Versioned JSON fixture grammar shared by the command-line driver.

Every fixture file is a JSON object ``{"schema": ..., "kind": ..., "body":
...}``.  The kinds are the keys of ``_DECODERS``: ``torus_monodromy``,
``mapping_torus``, ``nt_decomposition`` and ``orbit_projection``; any other
kind, such as a computed orbit table, is refused as unknown.  Loading
validates the schema id and decodes the body into live objects.  Relative
paths are resolved against the fixture root, which defaults to the in-repo
``fixtures`` directory and can be overridden with the ``PROCONG_FIXTURES``
environment variable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .chars import OrbitProjectionTable
from .kernel import _json_object, _json_str
from .ntform import NTDecomposition
from .record import Record
from .surfgrp import MappingTorusPresentation
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


def _decode_torus(body) -> Mat2:
    return Mat2.from_string(body["matrix"])


def _decode_orbit_projection(body) -> OrbitProjectionFixture:
    table = OrbitProjectionTable(body["rows"])
    attained = body.get("attained", False)
    if type(attained) is not bool:
        raise ValueError(f"attained must be true or false, got {attained!r}")
    return OrbitProjectionFixture(_json_str(body["group"], "group"), table,
                                  attained)


_DECODERS = {
    KIND_TORUS: _decode_torus,
    KIND_MAPPING_TORUS: MappingTorusPresentation.from_json,
    KIND_NT: NTDecomposition.from_json,
    KIND_ORBIT_PROJECTION: _decode_orbit_projection,
}


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
