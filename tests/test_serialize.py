"""Tests for the versioned fixture grammar and path resolution."""

import ast
import json
import re
from pathlib import Path

import pytest

from procong.ntform import NTDecomposition
from procong.serialize import (SCHEMA_ID, Fixture, OrbitProjectionFixture,
                               default_fixture_root, dumps, load_fixture,
                               parse_fixture, resolve_path, save_fixture,
                               wrap)
from procong.torus import Mat2

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src" / "procong"

SHIPPED = {
    "torus_A211.json": "torus_monodromy",
    "torus_pair_a.json": "torus_monodromy",
    "torus_pair_b.json": "torus_monodromy",
    "genus2_finite_order.json": "mapping_torus",
    "two_pa_swap.json": "nt_decomposition",
    "five_cases.json": "nt_decomposition",
    "star_rotation.json": "nt_decomposition",
    "pure_twist.json": "nt_decomposition",
    "separating_twist.json": "nt_decomposition",
    "orbit_cyclic2.json": "orbit_projection",
    "orbit_s3.json": "orbit_projection",
}


class TestShippedFixtures:
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_loads_with_expected_kind(self, name):
        fixture = load_fixture(FIXTURES / name)
        assert isinstance(fixture, Fixture)
        assert fixture.kind == SHIPPED[name]

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_declares_the_schema_id(self, name):
        data = json.loads((FIXTURES / name).read_text())
        assert data["schema"] == SCHEMA_ID

    def test_torus_fixture_decodes_to_matrix(self):
        fixture = load_fixture(FIXTURES / "torus_A211.json")
        assert fixture.payload == Mat2.from_rows(((2, 1), (1, 1)))

    def test_nt_fixture_decodes_validated(self):
        fixture = load_fixture(FIXTURES / "two_pa_swap.json")
        assert isinstance(fixture.payload, NTDecomposition)
        assert {p.name for p in fixture.payload.pieces} == {"P", "Q"}

    def test_orbit_projection_carries_attainment(self):
        fixture = load_fixture(FIXTURES / "orbit_cyclic2.json")
        payload = fixture.payload
        assert isinstance(payload, OrbitProjectionFixture)
        assert payload.group == "cyclic(2)"
        assert payload.attained is True
        assert payload.table.rows == (("o1", -1, 0), ("o2", -1, 1))

    def test_regeneration_is_deterministic(self):
        # the shipped bytes equal a fresh serialization of the decoded body
        text = (FIXTURES / "torus_A211.json").read_text()
        data = json.loads(text)
        assert dumps(data["kind"], data["body"]) == text


class TestGrammarErrors:
    def test_rejects_wrong_schema(self):
        bad = json.dumps({"schema": "other/9", "kind": "torus_monodromy",
                          "body": {"matrix": "1,0;0,1"}})
        with pytest.raises(ValueError, match="unsupported fixture schema"):
            parse_fixture(bad)

    def test_rejects_unknown_kind(self):
        # a list or an object is not looked up, so it raises no TypeError;
        # the last two kinds were read by earlier versions of the grammar
        for kind in ("mystery", 5, [], {}, ["torus_monodromy"],
                     "cellular_flow", "indexed_orbit_table"):
            bad = json.dumps({"schema": SCHEMA_ID, "kind": kind, "body": {}})
            with pytest.raises(ValueError, match=(
                    f"^unknown fixture kind {re.escape(repr(kind))}$")):
                parse_fixture(bad)

    def test_rejects_missing_body(self):
        bad = json.dumps({"schema": SCHEMA_ID, "kind": "torus_monodromy"})
        with pytest.raises(ValueError, match="no body"):
            parse_fixture(bad)

    def test_rejects_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_fixture("{nope")

    def test_rejects_deep_nesting(self):
        # json.loads raises RecursionError, not JSONDecodeError
        with pytest.raises(ValueError, match="nests its JSON values too "
                                             "deeply"):
            parse_fixture("[" * 100_000 + "]" * 100_000)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_fixture("[1, 2]")

    def test_wrap_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fixture kind"):
            wrap("mystery", {})


class TestPathResolution:
    def test_direct_path_wins(self, tmp_path):
        target = tmp_path / "direct.json"
        save_fixture(target, "torus_monodromy", {"matrix": "1,1;0,1"})
        assert resolve_path(str(target)) == target
        assert load_fixture(target).payload == Mat2.from_rows(((1, 1), (0, 1)))

    def test_environment_overrides_the_root(self, tmp_path, monkeypatch):
        save_fixture(tmp_path / "env.json", "torus_monodromy",
                     {"matrix": "1,0;0,1"})
        monkeypatch.setenv("PROCONG_FIXTURES", str(tmp_path))
        assert default_fixture_root() == tmp_path
        assert resolve_path("env.json") == tmp_path / "env.json"
        # a relative prefix is also stripped down to the file name
        assert resolve_path("somewhere/env.json") == tmp_path / "env.json"

    def test_default_root_is_the_shipped_directory(self, monkeypatch):
        monkeypatch.delenv("PROCONG_FIXTURES", raising=False)
        assert default_fixture_root() == FIXTURES

    def test_missing_file_raises_input_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PROCONG_FIXTURES", str(tmp_path))
        with pytest.raises(ValueError, match="not found"):
            resolve_path("nothing_here.json")


class TestOneOwnerOfTheGrammar:
    """`serialize` is the one module that knows the fixture format: no other
    module names a `_json_*` helper, imports `json`, defines a `KIND_*`
    constant or a `from_json`, and no payload type has a JSON form of its
    own.  The one `from_json` elsewhere is `LaurentPolynomial.from_json`,
    which reads the polynomials of a report back."""

    # the types a fixture body decodes to; reports are rendered by `cli`
    PAYLOAD_TYPES = {"Mat2", "SurfacePresentation", "GeneratorEndomorphism",
                     "MappingTorusPresentation", "StretchFactor",
                     "NTDecomposition", "VertexPiece", "ReductionAnnulus",
                     "InteriorOrbit", "OrbitProjectionTable"}

    @staticmethod
    def modules():
        return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
                for path in sorted(SRC.glob("*.py"))}

    @staticmethod
    def identifiers(tree):
        """Every name the module defines, imports, reads or writes."""
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            elif isinstance(node, ast.alias):
                yield node.asname or node.name
                yield node.name
            elif isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr

    def test_only_serialize_names_json_helpers(self):
        owners = {name: sorted({n for n in self.identifiers(tree)
                                if n.startswith("_json_")})
                  for name, tree in self.modules().items()}
        assert "_json_int" in owners.pop("serialize")
        assert {name: found for name, found in owners.items() if found} == {}

    def test_only_serialize_decodes_or_encodes_a_fixture_kind(self):
        readers, kinds, methods = set(), set(), []
        for name, tree in self.modules().items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) and any(
                        alias.name == "json" for alias in node.names):
                    readers.add(name)
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id.startswith("KIND_")
                        for t in node.targets):
                    kinds.add(name)
                elif isinstance(node, ast.ClassDef):
                    methods += [
                        f"{name}.{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and (
                            item.name == "from_json" or item.name == "to_json"
                            and node.name in self.PAYLOAD_TYPES)]
        assert readers == kinds == {"serialize"}
        assert methods == ["kernel.LaurentPolynomial.from_json"]
