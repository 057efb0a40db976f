"""End-to-end tests of the command-line driver: golden reports, exit
codes, JSON/text agreement, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from procong import cli
from procong.cli import RunConfig, config_from_args, build_parser, dispatch, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PAIR_A = "188,275;121,177"
PAIR_B = "188,11;3025,177"


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------

class TestGoldenReports:
    def test_zeta_of_the_anosov_torus(self, capsys):
        status, out, _ = run(capsys, "zeta", fixture("torus_A211.json"),
                             "--rep", "trivial", "--terms", "5")
        assert status == 0
        assert out == ("rep: trivial\n"
                       "zeta = (1 - 3*t + t^2) / (1 - 2*t + t^2)\n"
                       "L_1..L_5 = -1, -5, -16, -45, -121\n")

    def test_zeta_json_mode_encodes_the_same_values(self, capsys):
        status, out, _ = run(capsys, "zeta", fixture("torus_A211.json"),
                             "--json")
        assert status == 0
        data = json.loads(out)
        assert data["lefschetz"] == ["-1", "-5", "-16", "-45", "-121"]
        assert data["zeta"]["num"] == [[0, "1"], [1, "-3"], [2, "1"]]
        assert data["zeta"]["den"] == [[0, "1"], [1, "-2"], [2, "1"]]

    def test_nt_analyze_of_the_swapped_pair(self, capsys):
        status, out, _ = run(capsys, "nt", "analyze",
                             fixture("two_pa_swap.json"), "--upto", "6")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == ("pieces: 2 (pseudo-Anosov 2, periodic 0); "
                            "annuli: 1; circles: 2")
        assert lines[1] == "split order: 2"
        assert lines[2] == "dilatation: root of [1, -3, 1] in [5/2, 3]"
        assert lines[3] == "deviation: 1/2"
        table = [line.split("|") for line in lines[5:11]]
        assert [int(row[1]) for row in table] == [0, 2, 0, 2, 0, 2]
        assert table[1][2].strip() == "-3:1 -2:1"
        assert lines[-1] == "regular-orbit remainder pieces: P"

    def test_nt_analyze_approx_column(self, capsys):
        status, out, _ = run(capsys, "nt", "analyze",
                             fixture("two_pa_swap.json"), "--approx")
        assert status == 0
        assert "dilatation ~ 2.61803398874989484820458683437\n" in out

    def test_sweep_reports_the_separation(self, capsys):
        status, out, _ = run(capsys, "torus", "sweep", PAIR_A, PAIR_B,
                             "--max", "40")
        assert status == 0
        assert "SL(2,Z): not conjugate" in out
        assert "all levels conjugate" in out
        assert "procongruence candidate: yes" in out

    def test_conj_reports_witness_for_equal_matrices(self, capsys):
        status, out, _ = run(capsys, "torus", "conj", "2,1;1,1", "2,1;1,1")
        assert status == 0
        assert "SL(2,Z): conjugate" in out
        assert "witness" in out

    def test_congr_at_one_level(self, capsys):
        status, out, _ = run(capsys, "torus", "congr", PAIR_A, PAIR_B, "24")
        assert status == 0
        assert "GL(2,Z/24): conjugate" in out

    def test_klevel_value(self, capsys):
        status, out, _ = run(capsys, "torus", "klevel", "10")
        assert status == 0
        assert out == "characteristic level for index bound 10: 2520\n"

    def test_alexander_orders_of_the_anosov_torus(self, capsys):
        status, out, _ = run(capsys, "alexander", fixture("torus_A211.json"))
        assert status == 0
        assert "Delta_1 = 1 - 3*t + t^2" in out
        assert "Delta_3 = 1" in out

    def test_torsion_routes_agree(self, capsys):
        status, out, _ = run(capsys, "torsion", fixture("torus_A211.json"),
                             "--rep", "sign")
        assert status == 0
        assert "acyclic: yes" in out
        assert "alexander route agrees: yes" in out
        assert "(1 + 3*t + t^2) / (1 + 2*t + t^2)" in out

    def test_lefschetz_of_the_finite_order_fixture(self, capsys):
        status, out, _ = run(capsys, "lefschetz",
                             fixture("genus2_finite_order.json"),
                             "--upto", "4")
        assert status == 0
        assert out.splitlines()[1:] == ["L_1 = 2", "L_2 = -2",
                                        "L_3 = 2", "L_4 = -2"]

    def test_shear_degree_and_trivial(self, capsys):
        status, out, _ = run(capsys, "nt", "shear", "1,0", "2,3")
        assert status == 0
        assert "shearing degree: 3" in out
        status, out, _ = run(capsys, "nt", "shear", "2,4", "1,2")
        assert status == 0
        assert "shearing degree: trivial" in out

    def test_chars_decompose_golden(self, capsys):
        status, out, _ = run(capsys, "chars", "decompose",
                             fixture("orbit_cyclic2.json"))
        assert status == 0
        assert out == ("group: cyclic(2) (order 2, 2 classes)\n"
                       "orbit classes: 2\n"
                       "L(chi_0) = -2\n"
                       "L(chi_1) = 0\n"
                       "indicator L, class 0 = -1\n"
                       "indicator L, class 1 = -1\n")

    def test_chars_bound_uses_the_attainment_claim(self, capsys):
        status, out, _ = run(capsys, "chars", "bound",
                             fixture("orbit_cyclic2.json"))
        assert status == 0
        assert "Nielsen bound: 2" in out
        assert "attainment asserted: yes" in out
        assert "indexed counts: -1:2" in out

    def test_chars_bound_without_attainment(self, capsys):
        status, out, _ = run(capsys, "chars", "bound",
                             fixture("orbit_s3.json"), "--json")
        assert status == 0
        data = json.loads(out)
        assert data == {"attained": False, "bound": 1, "group": "S3",
                        "indexed_counts": None}

    def test_group_override(self, capsys):
        status, out, _ = run(capsys, "chars", "decompose",
                             fixture("orbit_cyclic2.json"),
                             "--group", "cyclic(4)")
        assert status == 0
        assert "group: cyclic(4)" in out


# ---------------------------------------------------------------------------
# determinism and encoding agreement
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_repeated_runs_are_identical(self, capsys):
        args = ("nt", "analyze", fixture("five_cases.json"), "--upto", "6")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_text_and_json_encode_identical_values(self, capsys):
        _, text, _ = run(capsys, "nt", "analyze", fixture("two_pa_swap.json"))
        _, raw, _ = run(capsys, "nt", "analyze", fixture("two_pa_swap.json"),
                        "--json")
        data = json.loads(raw)
        assert f"split order: {data['split_order']}" in text
        assert f"deviation: {data['deviation']}" in text
        for row in data["table"]["rows"]:
            assert f"{row['iterate']:2d} | {row['nielsen']:3d} |" in text


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

class TestExitCodes:
    def test_missing_fixture_is_an_input_error(self, capsys):
        status, out, err = run(capsys, "zeta", "no_such_file.json")
        assert status == 2
        assert out == ""
        assert "error:" in err

    def test_malformed_matrix_is_an_input_error(self, capsys):
        status, _, err = run(capsys, "torus", "conj", "2,1;1", "1,0;0,1")
        assert status == 2
        assert "a,b;c,d" in err

    def test_unknown_rep_is_an_input_error(self, capsys):
        status, _, err = run(capsys, "zeta", fixture("torus_A211.json"),
                             "--rep", "bogus")
        assert status == 2
        assert "unknown representation" in err

    def test_unknown_group_is_an_input_error(self, capsys):
        status, _, err = run(capsys, "chars", "bound",
                             fixture("orbit_cyclic2.json"), "--group", "A5")
        assert status == 2
        assert "unknown group" in err

    def test_wrong_fixture_kind_is_an_input_error(self, capsys):
        status, _, err = run(capsys, "nt", "analyze",
                             fixture("torus_A211.json"))
        assert status == 2
        assert "not a decomposition" in err

    def test_nonpositive_bound_is_an_input_error(self, capsys):
        status, _, err = run(capsys, "torus", "sweep", PAIR_A, PAIR_B,
                             "--max", "0")
        assert status == 2
        assert "--max" in err

    def test_zero_modulus_is_an_input_error(self, capsys):
        status, _, err = run(capsys, "torus", "congr", PAIR_A, PAIR_B, "0")
        assert status == 2
        assert "positive" in err

    def test_internal_assertions_exit_one(self, capsys, monkeypatch):
        def broken(config):
            raise AssertionError("synthetic internal failure")
        monkeypatch.setitem(cli._HANDLERS, "torus klevel", broken)
        status, out, err = run(capsys, "torus", "klevel", "3")
        assert status == 1
        assert out == ""
        assert "internal check failed" in err

    @pytest.mark.parametrize("source, drop, argv", [
        ("torus_A211.json", ("matrix",), ["zeta"]),
        ("genus2_finite_order.json", ("fiber",), ["zeta"]),
        ("two_pa_swap.json", ("pieces", 0, "kind"), ["nt", "analyze"]),
    ])
    def test_malformed_fixture_body_is_an_input_error(self, tmp_path, source,
                                                      drop, argv):
        data = json.loads((FIXTURES / source).read_text())
        owner = data["body"]
        for step in drop[:-1]:
            owner = owner[step]
        del owner[drop[-1]]
        path = tmp_path / source
        path.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "procong", *argv,
                               str(path)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2
        assert f"missing key {drop[-1]!r}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["torus"])
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

class TestRunConfig:
    def test_parser_maps_to_config(self):
        args = build_parser().parse_args(
            ["torus", "sweep", PAIR_A, PAIR_B, "--max", "50", "--json"])
        config = config_from_args(args)
        assert config.subcommand == "torus sweep"
        assert config.inputs == (PAIR_A, PAIR_B)
        assert config.max_modulus == 50
        assert config.output == "json"

    def test_defaults(self):
        args = build_parser().parse_args(["zeta", "x.json"])
        config = config_from_args(args)
        assert config.subcommand == "zeta"
        assert config.rep == "trivial"
        assert config.terms == 5
        assert config.output == "text"

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError, match="--terms"):
            RunConfig("zeta", ("x",), terms=0)

    def test_rejects_unknown_output_mode(self):
        with pytest.raises(ValueError, match="output mode"):
            RunConfig("zeta", ("x",), output="xml")

    def test_dispatch_rejects_unknown_subcommand(self):
        with pytest.raises(ValueError, match="unknown subcommand"):
            dispatch(RunConfig("torus explode"))


class TestFixtureRootEnvironment:
    def test_bare_names_resolve_under_the_override(self, capsys, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv("PROCONG_FIXTURES", str(FIXTURES))
        monkeypatch.chdir(tmp_path)
        status, out, _ = run(capsys, "zeta", "torus_A211.json",
                             "--terms", "2")
        assert status == 0
        assert "L_1..L_2 = -1, -5" in out

    def test_representations_through_roots_of_unity(self, capsys):
        status, out, _ = run(capsys, "zeta", fixture("torus_A211.json"),
                             "--rep", "zeta:2", "--terms", "3")
        assert status == 0
        # zeta:2 sends the stable letter to -1: same values as the sign rep
        assert "zeta = (1 + 3*t + t^2) / (1 + 2*t + t^2)" in out
        assert "L_1..L_3 = 1, -5, 16" in out
