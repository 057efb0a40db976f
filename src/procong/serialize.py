"""Versioned JSON fixture grammar shared by the command-line driver.

Every fixture file is a JSON object ``{"schema": ..., "kind": ..., "body":
...}``; the body is the kind-specific payload produced by the owning
module's ``to_json``.  Loading validates the schema id and decodes the
body into live objects.  Relative paths are resolved against the fixture
root, which defaults to the in-repo ``fixtures`` directory and can be
overridden with the ``PROCONG_FIXTURES`` environment variable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Tuple

from .cellular import CellularSelfMap, CellularSurface
from .chars import OrbitProjectionTable
from .ntform import IndexedOrbitTable, NTDecomposition
from .surfgrp import MappingTorusPresentation
from .torus import Mat2

SCHEMA_ID = "procong-fixtures/1"
FIXTURES_ENV = "PROCONG_FIXTURES"

KIND_TORUS = "torus_monodromy"
KIND_MAPPING_TORUS = "mapping_torus"
KIND_CELLULAR = "cellular_flow"
KIND_NT = "nt_decomposition"
KIND_ORBIT_PROJECTION = "orbit_projection"
KIND_ORBIT_TABLE = "indexed_orbit_table"


@dataclass(frozen=True)
class Fixture:
    """A decoded fixture: its grammar kind plus the live payload."""

    kind: str
    payload: Any


@dataclass(frozen=True)
class OrbitProjectionFixture:
    """Orbit projection rows with their group name and attainment claim."""

    group: str
    table: OrbitProjectionTable
    attained: bool


def _decode_torus(body) -> Mat2:
    return Mat2.from_string(body["matrix"])


def _decode_mapping_torus(body) -> MappingTorusPresentation:
    return MappingTorusPresentation.from_json(body)


def _decode_cellular(body) -> Tuple[CellularSurface, CellularSelfMap]:
    surface = CellularSurface.from_json(body["surface"])
    flow = CellularSelfMap.from_json(surface, body["flow"])
    return surface, flow


def _decode_nt(body) -> NTDecomposition:
    return NTDecomposition.from_json(body)


def _decode_orbit_projection(body) -> OrbitProjectionFixture:
    table = OrbitProjectionTable.from_json(body["rows"])
    return OrbitProjectionFixture(str(body["group"]), table,
                                  bool(body.get("attained", False)))


def _decode_orbit_table(body) -> IndexedOrbitTable:
    return IndexedOrbitTable.from_json(body)


_DECODERS = {
    KIND_TORUS: _decode_torus,
    KIND_MAPPING_TORUS: _decode_mapping_torus,
    KIND_CELLULAR: _decode_cellular,
    KIND_NT: _decode_nt,
    KIND_ORBIT_PROJECTION: _decode_orbit_projection,
    KIND_ORBIT_TABLE: _decode_orbit_table,
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
    if not isinstance(data, dict):
        raise ValueError("fixture must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA_ID:
        raise ValueError(f"unsupported fixture schema {schema!r}: "
                         f"expected {SCHEMA_ID!r}")
    kind = data.get("kind")
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ValueError(f"unknown fixture kind {kind!r}")
    if "body" not in data:
        raise ValueError("fixture has no body")
    try:
        payload = decoder(data["body"])
    except (KeyError, TypeError, IndexError) as exc:
        detail = (f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError)
                  else str(exc))
        raise ValueError(f"malformed {kind} fixture: {detail}") from exc
    return Fixture(kind, payload)


def load_fixture(path) -> Fixture:
    resolved = resolve_path(str(path))
    return parse_fixture(resolved.read_text(encoding="utf-8"))
