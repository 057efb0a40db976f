"""Tests for the versioned fixture grammar and path resolution."""

import json
import re
from pathlib import Path

import pytest

from procong.ntform import DecompositionError, NTDecomposition
from procong.serialize import (SCHEMA_ID, Fixture, OrbitProjectionFixture,
                               default_fixture_root, dumps, load_fixture,
                               parse_fixture, resolve_path, save_fixture,
                               wrap)
from procong.torus import Mat2

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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
    "anosov_orbit_table.json": "indexed_orbit_table",
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
        # a list or an object is not looked up, so it raises no TypeError
        for kind in ("mystery", 5, [], {}, ["torus_monodromy"]):
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


# (edit of the anosov_orbit_table.json body, the error); each value was
# decoded loosely: floats and booleans kept, a string split into letters
LOOSE_ORBIT_TABLE_FIELDS = [
    (lambda body: body["rows"][0].update(iterate=1.5),
     "iterate must be an integer, got 1.5"),
    (lambda body: body["rows"][0].update(nielsen=True),
     "nielsen must be an integer, got True"),
    (lambda body: body["rows"][0].update(counts=[[-1, 1.0]]),
     "counts[0] count must be an integer, got 1.0"),
    (lambda body: body["rows"][0].update(counts=[["-1", 1]]),
     "counts[0] index must be an integer, got '-1'"),
    (lambda body: body["rows"][0].update(counts=[[-1, 1, 0]]),
     "counts[0] must be [index, count], got [-1, 1, 0]"),
    (lambda body: body["rows"][0].update(counts="x"),
     "counts must be a list, got 'x'"),
    (lambda body: body.update(remainder="ab"),
     "remainder must be a list, got 'ab'"),
    (lambda body: body.update(remainder=[7]),
     "remainder must be a string, got 7"),
    (lambda body: body.update(rows={}), "rows must be a list, got {}"),
    (lambda body: body["rows"].insert(1, 5), "rows[1] must be an object, got 5"),
]


@pytest.mark.parametrize("edit, message", LOOSE_ORBIT_TABLE_FIELDS,
                         ids=[m for _, m in LOOSE_ORBIT_TABLE_FIELDS])
def test_loose_orbit_table_field_is_rejected(edit, message):
    data = json.loads((FIXTURES / "anosov_orbit_table.json").read_text())
    edit(data["body"])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_fixture(json.dumps(data))


# (edit of the anosov_orbit_table.json body, the error); each table was
# built, and `nielsen(m)` read the first row of iterate m
BAD_ORBIT_TABLE_ITERATES = [
    (lambda body: body["rows"][1].update(iterate=1),
     "rows[1] iterate must be positive and not repeat an earlier row's, "
     "got 1"),
    (lambda body: body["rows"][0].update(iterate=0),
     "rows[0] iterate must be positive and not repeat an earlier row's, "
     "got 0"),
    (lambda body: body["rows"][2].update(iterate=-4),
     "rows[2] iterate must be positive and not repeat an earlier row's, "
     "got -4"),
]


@pytest.mark.parametrize("edit, message", BAD_ORBIT_TABLE_ITERATES,
                         ids=["repeated", "zero", "negative"])
def test_orbit_table_iterates_are_positive_and_distinct(edit, message):
    data = json.loads((FIXTURES / "anosov_orbit_table.json").read_text())
    edit(data["body"])
    with pytest.raises(DecompositionError, match=f"^{re.escape(message)}$"):
        parse_fixture(json.dumps(data))


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
