"""End-to-end tests of the command-line driver: golden reports, exit
codes, JSON/text agreement, and determinism."""

import ast
import json
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from procong import cellular, cli, ntform, serialize, surfgrp, torus
from procong.cellular import LEFSCHETZ_LIMIT
from procong.cli import RunConfig, config_from_args, build_parser, dispatch, main
from procong.ntform import (ITERATE_LIMIT, Dilatation, IndexedOrbitTable,
                            NTDecomposition, OrbitRow)
from procong.record import Record
from procong.serialize import wrap
from procong.torus import SWEEP_LIMIT
from reference import replace

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

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)()
                        != 4300, reason="needs the default 4300-digit cap "
                                        "on printing integers")
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_klevel_at_the_digit_cap(self, capsys, mode):
        # lcm(1..9858) has 4297 digits and lcm(1..9859) = 9859 lcm(1..9858)
        # has 4301
        status, out, _ = run(capsys, "torus", "klevel", "9858", *mode)
        assert status == 0
        level = (json.loads(out)["characteristic_level"] if mode
                 else int(out.split()[-1]))
        assert level == math.lcm(*range(1, 9859))
        status, out, err = run(capsys, "torus", "klevel", "9859", *mode)
        assert status == 2
        assert out == ""
        assert err.startswith("error: level bound must be at most 9858, got 9859")

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)()
                        != 4300, reason="needs the default 4300-digit cap "
                                        "on printing integers")
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("sub, flag", [("lefschetz", "--upto"),
                                           ("zeta", "--terms")])
    def test_lefschetz_count_at_the_digit_cap(self, capsys, sub, flag, mode):
        # |L_m| grows like 365^m on torus_pair_a: L_1679 is the first
        # Lefschetz number with more than 4300 digits
        path = fixture("torus_pair_a.json")
        status, out, err = run(capsys, sub, path, flag, "1679", *mode)
        assert (status, out) == (2, "")
        assert err == (f"error: {flag} must be at most 1678 for this "
                       f"fixture: L_1679 exceeds the 4300-digit limit for "
                       f"printing integers\n")
        status, out, _ = run(capsys, sub, path, flag, "1678", *mode)
        assert status == 0
        if mode:
            assert len(json.loads(out)["lefschetz"]) == 1678
        else:
            assert out.splitlines()[-1].startswith(
                "L_1678 = " if sub == "lefschetz" else "L_1..L_1678 = ")

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

    # labels of one root of unity, the first non-primitive
    SAME_ROOT = [("zeta:8:2", "zeta:4"), ("zeta:12:3", "zeta:4"),
                 ("zeta:8:-2", "zeta:4:3"), ("zeta:10:4", "zeta:5:2")]

    @pytest.mark.parametrize("label, reduced", SAME_ROOT)
    @pytest.mark.parametrize("sub", ["alexander", "torsion", "zeta",
                                     "lefschetz"])
    def test_labels_of_one_root_print_one_report(self, capsys, sub, label,
                                                 reduced):
        path = fixture("torus_A211.json")
        _, out, _ = run(capsys, sub, path, "--rep", label)
        _, want, _ = run(capsys, sub, path, "--rep", reduced)
        assert out.startswith(f"rep: {label}\n")
        assert out.split("\n", 1)[1] == want.split("\n", 1)[1]
        _, out, _ = run(capsys, sub, path, "--rep", label, "--json")
        _, want, _ = run(capsys, sub, path, "--rep", reduced, "--json")
        out, want = json.loads(out), json.loads(want)
        assert out.pop("rep") == label
        assert want.pop("rep") == reduced
        assert out == want

    def test_non_primitive_root_prints_its_least_conductor(self, capsys):
        status, out, _ = run(capsys, "zeta", fixture("torus_A211.json"),
                             "--rep", "zeta:8:2")
        assert status == 0
        assert out.splitlines()[1].startswith(
            "zeta = (1 + (cyc(4):[0,-3])*t - t^2) / ")


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
# matrices and slopes that begin with a minus sign
# ---------------------------------------------------------------------------

class TestNegativeArguments:
    @pytest.mark.parametrize("words, positionals", [
        (("torus", "conj"), ("-1,1;-1,0", "0,1;-1,-1")),
        (("torus", "conj"), ("-1,0;0,-1", "-1,0;0,-1")),
        (("torus", "congr"), ("-1,1;-1,0", "0,1;-1,-1", "12")),
        (("torus", "sweep", "--max", "10"), ("-1,1;-1,0", "0,1;-1,-1")),
        (("nt", "shear"), ("-1,2", "3,4")),
        (("nt", "shear"), ("2,4", "-1,-2")),
    ])
    @pytest.mark.parametrize("form", [(), ("--json",)])
    def test_same_report_as_after_double_dash(self, capsys, words,
                                               positionals, form):
        status, out, err = run(capsys, *words, *form, *positionals)
        assert (status, err) == (0, "")
        assert (status, out, err) == run(capsys, *words, *form, "--",
                                         *positionals)


# ---------------------------------------------------------------------------
# integer arguments: one grammar and one digit-cap message
# ---------------------------------------------------------------------------

class TestIntegerArguments:
    """Every integer written in an argument or a fixture matrix reads as an
    optional minus sign and ASCII digits, as `--rep zeta:n` does: int()
    also read Arabic-Indic digits ('٣' is 3) and underscores ('1_2' is 12).
    An integer past the interpreter's digit cap is refused in one line
    naming its position."""

    # argv with "{}" where the integer goes, the error for a malformed
    # integer (formatted with the repr of the argument that holds it) and
    # the position the digit-cap error names
    POSITIONS = {
        "klevel": (("torus", "klevel", "{}"),
                   "level bound must be an integer, got {}", "level bound"),
        "congr": (("torus", "congr", PAIR_A, PAIR_B, "{}"),
                  "modulus must be an integer, got {}", "modulus"),
        "terms": (("zeta", fixture("torus_A211.json"), "--terms", "{}"),
                  "--terms must be an integer, got {}", "--terms"),
        "max": (("torus", "sweep", PAIR_A, PAIR_B, "--max", "{}"),
                "--max must be an integer, got {}", "--max"),
        "slope": (("nt", "shear", "{},1", "1,2"),
                  "slope must look like 'p,q', got {}", "slope entries"),
        "matrix": (("torus", "conj", "{},0;0,1", "1,0;0,1"),
                   "matrix must look like 'a,b;c,d', got {}",
                   "matrix entries"),
        "group": (("chars", "bound", fixture("orbit_cyclic2.json"), "--group",
                   "cyclic({})"),
                  "unknown group {}: expected cyclic(n), S3, D4, or Q8",
                  "cyclic order"),
    }

    @staticmethod
    def argv(template, text):
        return [word.format(text) for word in template]

    @pytest.mark.parametrize("position, text", [
        ("klevel", "٣"), ("congr", "1_2"), ("terms", "٣"), ("max", "1_0"),
        ("slope", "٣"), ("matrix", "١"), ("group", "٢")])
    def test_integer_is_a_minus_sign_and_ascii_digits(self, capsys, position,
                                                      text):
        template, error, _ = self.POSITIONS[position]
        argv = self.argv(template, text)
        argument = next(word for word, slot in zip(argv, template)
                        if "{}" in slot)
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        assert err == f"error: {error.format(repr(argument))}\n"

    def test_fixture_matrix_entry_is_ascii_digits(self, capsys, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(wrap("torus_monodromy",
                                        {"matrix": "١,1;-1,0"})))
        status, out, err = run(capsys, "zeta", str(path))
        assert (status, out) == (2, "")
        assert err == ("error: matrix must look like 'a,b;c,d', got "
                       "'١,1;-1,0'\n")

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)()
                        != 4300, reason="needs the default 4300-digit cap "
                                        "on reading integers")
    @pytest.mark.parametrize("position", ["klevel", "congr", "terms", "max",
                                          "slope", "group"])
    def test_integer_past_the_digit_cap_names_its_position(self, capsys,
                                                           position):
        # the errors were the format message with all 5,000 digits in it,
        # argparse's, or the interpreter's
        template, _, label = self.POSITIONS[position]
        status, out, err = run(capsys, *self.argv(template, "1" * 5000))
        assert (status, out) == (2, "")
        assert err == (f"error: {label} must have at most 4300 digits (the "
                       f"interpreter's limit), got '11111111111111111111'"
                       f"...\n")

    def test_integers_read_without_the_digit_cap(self, capsys, monkeypatch):
        # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        for argv in (("torus", "conj", PAIR_A, PAIR_B),
                     ("torus", "congr", PAIR_A, PAIR_B, "6"),
                     ("nt", "shear", "1,2", "-3,4")):
            assert run(capsys, *argv)[0] == 0


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

    @pytest.mark.parametrize("label", ["zeta:61", "zeta:997:2",
                                       "zeta:30030"])
    def test_root_of_unity_order_is_bounded(self, capsys, label):
        # unbounded, zeta:30030 ran for minutes building its field
        start = time.perf_counter()
        status, out, err = run(capsys, "alexander", fixture("torus_A211.json"),
                               "--rep", label)
        assert time.perf_counter() - start < 1
        assert (status, out) == (2, "")
        n = label.split(":")[1]
        assert err == f"error: --rep zeta:n needs n in 1..60, got {n}\n"

    # '²' and '٤' pass `str.isdigit`: int() refused the first with its own
    # message and read the second as 4; 5,000 digits pass the interpreter's
    # limit for int()
    @pytest.mark.parametrize("label", ["zeta:²", "zeta:٤", "zeta:8:²",
                                       "zeta:--5", "zeta:5:" + "1" * 5000],
                             ids=["superscript", "arabic-indic", "power",
                                  "double-minus", "5000-digits"])
    def test_non_ascii_digit_rep_is_unknown(self, capsys, label):
        status, out, err = run(capsys, "zeta", fixture("torus_A211.json"),
                               "--rep", label)
        assert (status, out) == (2, "")
        assert err.startswith(f"error: unknown representation {label!r}")

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

    @pytest.mark.parametrize("argv, flag, limit", [
        (("torus", "sweep", PAIR_A, PAIR_B), "--max", SWEEP_LIMIT),
        (("zeta", fixture("torus_A211.json")), "--terms", LEFSCHETZ_LIMIT),
        (("lefschetz", fixture("torus_A211.json")), "--upto",
         LEFSCHETZ_LIMIT),
        (("nt", "analyze", fixture("two_pa_swap.json")), "--upto",
         ITERATE_LIMIT),
    ])
    @pytest.mark.parametrize("excess", [1, 10 ** 30])
    def test_bound_past_its_limit_is_refused_before_any_work(
            self, capsys, monkeypatch, argv, flag, limit, excess):
        built = []
        for module, name in ((cli, "_compiled"), (torus, "congruence_sweep"),
                             (cellular, "lefschetz_numbers"),
                             (ntform, "indexed_orbit_numbers")):
            monkeypatch.setattr(module, name,
                                lambda *args: built.append(args))
        status, out, err = run(capsys, *argv, flag, str(limit + excess))
        assert (status, out) == (2, "")
        assert f"{flag} must be at most {limit}" in err
        assert built == []

    @pytest.mark.parametrize("subcommand, field, limit", [
        ("torus sweep", "max_modulus", SWEEP_LIMIT),
        ("zeta", "terms", LEFSCHETZ_LIMIT),
        ("lefschetz", "upto", LEFSCHETZ_LIMIT),
        ("nt analyze", "upto", ITERATE_LIMIT)])
    def test_bound_at_its_limit_is_accepted(self, subcommand, field, limit):
        config = RunConfig(subcommand, ("x",), **{field: limit})
        assert getattr(config, field) == limit

    def test_zero_modulus_is_an_input_error(self, capsys):
        status, _, err = run(capsys, "torus", "congr", PAIR_A, PAIR_B, "0")
        assert status == 2
        assert "positive" in err

    def test_internal_assertions_exit_one(self, capsys, monkeypatch):
        def broken(config):
            raise AssertionError("synthetic internal failure")
        monkeypatch.setitem(cli.COMMANDS, "torus klevel", replace(
            cli.COMMANDS["torus klevel"], handler=broken))
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

    def test_closed_output_pipe_exits_quietly(self):
        # the report (some 850 kB) outgrows the pipe's buffer, so the write
        # meets the closed pipe
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "procong", "lefschetz", "--upto", "2000",
             str(FIXTURES / "torus_A211.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline() == b"rep: trivial\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == b""

    def test_non_string_torus_matrix_is_an_input_error(self, tmp_path):
        data = json.loads((FIXTURES / "torus_A211.json").read_text())
        data["body"]["matrix"] = 5
        path = tmp_path / "torus_A211.json"
        path.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "procong", "zeta",
                               str(path)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2
        assert "matrix" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)()
                        != 4300, reason="needs the default 4300-digit cap "
                                        "on reading integers")
    def test_matrix_entry_past_the_digit_cap_is_an_input_error(
            self, tmp_path, capsys):
        # int() refused the entry, and the error was the format message
        # with the whole 5,000-digit input in it
        entry = "1" * 5000
        message = ("error: matrix entries must have at most 4300 digits (the "
                   "interpreter's limit), got '11111111111111111111'...\n")
        status, out, err = run(capsys, "torus", "conj", f"{entry},1;0,1",
                               "1,0;0,1")
        assert (status, out, err) == (2, "", message)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(wrap("torus_monodromy",
                                        {"matrix": f"{entry},1;-1,0"})))
        status, out, err = run(capsys, "zeta", str(path))
        assert (status, out, err) == (2, "", message)

    @pytest.mark.parametrize("entry", [10 ** 30, surfgrp.WORD_CAP + 1])
    def test_torus_monodromy_past_the_word_cap_is_an_input_error(
            self, tmp_path, capsys, monkeypatch, entry):
        # (k,1;-1,0) = R^-(k-1) L^-1 R has k + 1 run letters; at k = 10^30
        # the first run's word did not fit an index (exit 1)
        def move(*_):
            raise AssertionError("a word was built")

        monkeypatch.setattr(surfgrp, "_torus_move", move)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(wrap("torus_monodromy",
                                        {"matrix": f"{entry},1;-1,0"})))
        status, out, err = run(capsys, "alexander", str(path))
        assert (status, out) == (2, "")
        assert err == (f"error: the R/L runs of the monodromy matrix have "
                       f"more than {surfgrp.WORD_CAP} letters, the bound on "
                       f"a word\n")

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"schema": "procong-fixtures/1", "kind": "nt_decomposition", '
        '"body": ' + '{"a": ' * 100_000,
    ], ids=["list", "body"])
    def test_deeply_nested_fixture_is_an_input_error(self, tmp_path, capsys,
                                                     text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        status, out, err = run(capsys, "nt", "analyze", str(path))
        assert (status, out) == (2, "")
        assert err == ("error: fixture nests its JSON values too deeply to "
                       "decode\n")

    def test_non_object_monodromy_is_an_input_error(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "genus2_finite_order.json").read_text())
        data["body"]["monodromy"] = []
        path = tmp_path / "genus2_finite_order.json"
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, "alexander", str(path))
        assert status == 2
        assert out == ""
        assert err == "error: monodromy must be an object, got []\n"

    # (key of the orbit_s3.json body, value, message); each value was
    # decoded loosely: "no" as attained, floats and booleans truncated
    LOOSE_ORBIT_FIELDS = [
        ("attained", "no", "attained must be true or false, got 'no'"),
        ("rows", [["w", 1.5, 1]],
         "rows[0] index must be an integer, got 1.5"),
        ("rows", [["w", True, 1]],
         "rows[0] index must be an integer, got True"),
        ("rows", [["w", 2, 1.0]],
         "rows[0] class id must be an integer, got 1.0"),
        ("rows", [["v", 1, 0], ["w", 2]],
         "rows[1] must be [orbit, index, class id], got ['w', 2]"),
        ("rows", 5, "rows must be a list, got 5"),
        ("rows", [[None, 2, 1]], "rows[0] orbit must be a string, got None"),
        ("rows", [[1, 1, 0], ["1", 2, 1]],
         "rows[0] orbit must be a string, got 1"),
        ("group", ["S3"], "group must be a string, got ['S3']"),
    ]

    @pytest.mark.parametrize("key, value, message", LOOSE_ORBIT_FIELDS,
                             ids=["attained-string", "index-float",
                                  "index-bool", "class-id-float",
                                  "two-entry-row", "rows-int", "orbit-null",
                                  "orbit-int", "group-list"])
    @pytest.mark.parametrize("sub", ["bound", "decompose"])
    def test_loose_orbit_projection_field_is_an_input_error(
            self, tmp_path, capsys, key, value, message, sub):
        data = json.loads((FIXTURES / "orbit_s3.json").read_text())
        data["body"][key] = value
        path = tmp_path / "orbit_s3.json"
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, "chars", sub, str(path))
        assert status == 2
        assert out == ""
        assert err == f"error: {message}\n"

    # (path into the fixture, value, field named in the error); each value
    # truncates to the valid one it replaces
    NON_INTEGERS = [
        (("body", "monodromy", "images", 0, 0), 3.7, "images"),
        (("body", "monodromy", "images", 2, 0), True, "images"),
        (("body", "monodromy", "inverse_images", 0, 0), 3.7,
         "inverse_images"),
        (("body", "monodromy", "inverse_images", 2, 0), True,
         "inverse_images"),
        (("body", "stable_index"), 5.9, "stable_index"),
        (("body", "fiber", "genus"), 2.5, "genus"),
        (("body", "fiber", "boundary_count"), 0.0, "boundary_count"),
        (("body", "fiber_values", 4), 1.4, "fiber_values"),
        (("body", "relators", 1, 0), 5.5, "relators"),
    ]

    @pytest.mark.parametrize("path, value, field", NON_INTEGERS,
                             ids=[f"{c[2]}={c[1]!r}" for c in NON_INTEGERS])
    def test_non_integer_fixture_field_is_an_input_error(self, tmp_path,
                                                         path, value, field):
        data = json.loads((FIXTURES / "genus2_finite_order.json").read_text())
        owner = data
        for step in path[:-1]:
            owner = owner[step]
        assert owner[path[-1]] == int(value)
        owner[path[-1]] = value
        fixture_path = tmp_path / "fixture.json"
        fixture_path.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "procong", "alexander",
                               str(fixture_path)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2
        assert f"{field} must be an integer, got {value!r}" in proc.stderr
        assert "Traceback" not in proc.stderr

    # (path into the two_pa_swap.json body, value, field named in the
    # error); each float truncates to the valid value it replaces
    NT_NON_INTEGERS = [
        (("pieces", 0, "euler"), -1.7, "euler"),
        (("pieces", 0, "period"), 1.0, "period"),
        (("pieces", 0, "stretch", "polynomial"), [1.2, -3.9, 1.0],
         "stretch polynomial"),
        (("pieces", 0, "orbits", 0, "size"), 2.5, "orbit size"),
        (("pieces", 0, "orbits", 0, "prongs"), "4", "orbit prongs"),
        (("pieces", 0, "orbits", 0, "rotation"), 0.5, "orbit rotation"),
        (("pieces", 0, "boundary_singularities"), [1.9],
         "boundary_singularities"),
    ]

    @pytest.mark.parametrize("path, value, field", NT_NON_INTEGERS,
                             ids=[c[2] for c in NT_NON_INTEGERS])
    def test_non_integer_nt_field_is_an_input_error(self, tmp_path, capsys,
                                                    path, value, field):
        data = json.loads((FIXTURES / "two_pa_swap.json").read_text())
        owner = data["body"]
        for step in path[:-1]:
            owner = owner[step]
        owner[path[-1]] = value
        fixture_path = tmp_path / "two_pa_swap.json"
        fixture_path.write_text(json.dumps(data))
        status, out, err = run(capsys, "nt", "analyze", str(fixture_path))
        bad = value[0] if isinstance(value, list) else value
        assert status == 2
        assert out == ""
        assert err == f"error: {field} must be an integer, got {bad!r}\n"

    # (path into the two_pa_swap.json body, value, the error line); names
    # must be strings, and rational fields integers or fraction strings
    NT_WRONG_TYPES = [
        (("pieces", 0, "name"), 7, "piece name must be a string, got 7"),
        (("pieces", 0, "kind"), None, "piece kind must be a string, got None"),
        (("pieces", 0, "circles"), [3], "circles must be a string, got 3"),
        (("pieces", 0, "orbits", 0, "name"), 1,
         "orbit name must be a string, got 1"),
        (("annuli", 0, "name"), ["A"],
         "annulus name must be a string, got ['A']"),
        (("annuli", 0, "ends"), ["cP", 2],
         "annulus ends must be a string, got 2"),
        (("piece_map", "P"), 0, "piece_map must be a string, got 0"),
        (("circle_map", "cQ"), False, "circle_map must be a string, got False"),
        (("pieces", 0, "stretch", "interval"), ["5/2", True],
         "stretch interval must be an integer or a fraction string, got True"),
        (("pieces", 1, "stretch", "interval"), [2.5, "3"],
         "stretch interval must be an integer or a fraction string, got 2.5"),
        (("annuli", 0, "twist"), 0.5,
         "twist must be an integer or a fraction string, got 0.5"),
        (("annuli", 0, "twist"), "1/0",
         "twist must be an integer or a fraction string, got '1/0'"),
        # lists of the wrong length, and strings where lists belong
        (("pieces", 0, "stretch", "interval"), ["5/2"],
         "stretch interval must have two entries, got 1"),
        (("pieces", 0, "stretch", "interval"), ["5/2", "3", "4"],
         "stretch interval must have two entries, got 3"),
        (("pieces", 0, "stretch", "interval"), "5/2 3",
         "stretch interval must be a list, got '5/2 3'"),
        (("pieces", 0, "stretch", "polynomial"), "1-31",
         "stretch polynomial must be a list, got '1-31'"),
        (("pieces", 0, "circles"), "cP", "circles must be a list, got 'cP'"),
        (("pieces", 0, "boundary_singularities"), "1",
         "boundary_singularities must be a list, got '1'"),
        (("pieces", 0, "orbits"), "o", "orbits must be a list, got 'o'"),
        (("annuli", 0, "ends"), "cP", "annulus ends must be a list, got 'cP'"),
        (("annuli", 0, "orbits"), "o",
         "annulus orbits must be a list, got 'o'"),
        (("pieces",), "PQ", "pieces must be a list, got 'PQ'"),
        (("annuli",), "A", "annuli must be a list, got 'A'"),
        # scalars and lists where objects belong
        (("pieces",), [5], "pieces[0] must be an object, got 5"),
        (("pieces", 1), "Q", "pieces[1] must be an object, got 'Q'"),
        (("annuli", 0), ["A"], "annuli[0] must be an object, got ['A']"),
        (("pieces", 0, "orbits", 0), 5, "orbits[0] must be an object, got 5"),
        (("annuli", 0, "orbits"), [None],
         "annulus orbits[0] must be an object, got None"),
        (("pieces", 0, "stretch"), 1.5, "stretch must be an object, got 1.5"),
        (("piece_map",), 5,
         "piece_map must be an object or a list of pairs, got 5"),
        (("piece_map",), "x",
         "piece_map must be an object or a list of pairs, got 'x'"),
        (("circle_map",), None,
         "circle_map must be an object or a list of pairs, got None"),
        (("circle_map",), 1.5,
         "circle_map must be an object or a list of pairs, got 1.5"),
    ]

    @pytest.mark.parametrize("path, value, message", NT_WRONG_TYPES,
                             ids=[f"{c[2].split(' must')[0]} {c[1]!r}"
                                  for c in NT_WRONG_TYPES])
    def test_wrongly_typed_nt_field_is_an_input_error(self, tmp_path, capsys,
                                                      path, value, message):
        data = json.loads((FIXTURES / "two_pa_swap.json").read_text())
        owner = data["body"]
        for step in path[:-1]:
            owner = owner[step]
        owner[path[-1]] = value
        fixture_path = tmp_path / "two_pa_swap.json"
        fixture_path.write_text(json.dumps(data))
        status, out, err = run(capsys, "nt", "analyze", str(fixture_path))
        assert (status, out, err) == (2, "", f"error: {message}\n")

    def test_piece_sent_to_an_annulus_is_an_input_error(self, tmp_path,
                                                         capsys):
        data = json.loads((FIXTURES / "two_pa_swap.json").read_text())
        data["body"]["piece_map"] = {"P": "A", "A": "Q", "Q": "P"}
        fixture_path = tmp_path / "two_pa_swap.json"
        fixture_path.write_text(json.dumps(data))
        status, out, err = run(capsys, "nt", "analyze", str(fixture_path))
        assert (status, out, err) == (
            2, "", "error: piece_map sends piece P to annulus A\n")

    @pytest.mark.parametrize("field, pairs, name", [
        ("piece_map", [["P", "P"], ["P", "Q"], ["Q", "P"], ["A", "A"]], "P"),
        ("piece_map", [["A", "A"], ["P", "Q"], ["Q", "P"], ["A", "A"]], "A"),
        ("circle_map", [["cP", "cQ"], ["cQ", "cP"], ["cQ", "cQ"]], "cQ"),
    ])
    def test_map_repeating_a_source_name_is_an_input_error(
            self, tmp_path, capsys, field, pairs, name):
        # a list of pairs is read as a map: one target per source name
        data = json.loads((FIXTURES / "two_pa_swap.json").read_text())
        data["body"][field] = pairs
        fixture_path = tmp_path / "two_pa_swap.json"
        fixture_path.write_text(json.dumps(data))
        status, out, err = run(capsys, "nt", "analyze", str(fixture_path))
        assert (status, out, err) == (
            2, "", f"error: {field} maps {name} more than once\n")

    @pytest.mark.parametrize("source, argv", [
        ("two_pa_swap.json", ["nt", "analyze"]),
        ("genus2_finite_order.json", ["alexander"]),
        ("orbit_s3.json", ["chars", "bound"]),
        ("torus_A211.json", ["zeta"]),
    ])
    def test_non_object_fixture_body_is_an_input_error(self, tmp_path, capsys,
                                                       source, argv):
        data = json.loads((FIXTURES / source).read_text())
        data["body"] = [data["body"]]
        path = tmp_path / source
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, *argv, str(path))
        assert (status, out) == (2, "")
        assert err.startswith("error: body must be an object, got [{")

    # (path into the genus2_finite_order.json body, value, the error line)
    GENERATOR_NAMES = [
        (("generators", 0), [], "generators must be a string, got []"),
        (("generators", 2), {}, "generators must be a string, got {}"),
        (("generators",), "a1b1", "generators must be a list, got 'a1b1'"),
        (("fiber", "generators", 1), 7,
         "fiber generators must be a string, got 7"),
        (("fiber", "generators"), "ab",
         "fiber generators must be a list, got 'ab'"),
    ]

    @pytest.mark.parametrize("path, value, message", GENERATOR_NAMES,
                             ids=[c[2] for c in GENERATOR_NAMES])
    def test_wrongly_typed_generator_name_is_an_input_error(
            self, tmp_path, capsys, path, value, message):
        data = json.loads((FIXTURES / "genus2_finite_order.json").read_text())
        owner = data["body"]
        for step in path[:-1]:
            owner = owner[step]
        owner[path[-1]] = value
        fixture_path = tmp_path / "genus2_finite_order.json"
        fixture_path.write_text(json.dumps(data))
        status, out, err = run(capsys, "alexander", str(fixture_path))
        assert (status, out, err) == (2, "", f"error: {message}\n")

    # (path into the genus2_finite_order.json body, value, the error line);
    # words are lists of letters, and a fixture's word lists are lists
    WORD_LISTS = [
        (("fiber",), 5, "fiber must be an object, got 5"),
        (("fiber", "relators"), None,
         "fiber relators must be a list, got None"),
        (("fiber", "relators", 0), 5,
         "fiber relators[0] must be a list, got 5"),
        (("fiber_values",), 1.5, "fiber_values must be a list, got 1.5"),
        (("relators",), 5, "relators must be a list, got 5"),
        (("relators", 1), None, "relators[1] must be a list, got None"),
        # an object is not read as the empty word
        (("relators", 0), {}, "relators[0] must be a list, got {}"),
        (("monodromy", "images"), 1.5, "images must be a list, got 1.5"),
        (("monodromy", "images", 0), 5, "images[0] must be a list, got 5"),
        (("monodromy", "inverse_images"), 5,
         "inverse_images must be a list, got 5"),
        (("monodromy", "inverse_images", 2), None,
         "inverse_images[2] must be a list, got None"),
    ]

    @pytest.mark.parametrize("path, value, message", WORD_LISTS,
                             ids=[c[2] for c in WORD_LISTS])
    def test_wrongly_typed_word_list_is_an_input_error(
            self, tmp_path, capsys, path, value, message):
        data = json.loads((FIXTURES / "genus2_finite_order.json").read_text())
        owner = data["body"]
        for step in path[:-1]:
            owner = owner[step]
        owner[path[-1]] = value
        fixture_path = tmp_path / "genus2_finite_order.json"
        fixture_path.write_text(json.dumps(data))
        status, out, err = run(capsys, "alexander", str(fixture_path))
        assert (status, out, err) == (2, "", f"error: {message}\n")

    # Each mutant's relators present a group with Delta_1 = 0, which is not
    # the mapping torus of the fixture's monodromy.
    PRESENTATION_MUTANTS = {
        "last-relator-dropped": lambda body: body["relators"].pop(),
        "relator-reversed": lambda body: body["relators"][1].reverse(),
        "free-generator": lambda body: (body["generators"].append("x"),
                                        body["fiber_values"].append(0)),
    }

    @pytest.mark.parametrize("mutant", list(PRESENTATION_MUTANTS))
    @pytest.mark.parametrize("sub", ["alexander", "torsion", "zeta",
                                     "lefschetz"])
    def test_relators_of_another_group_are_an_input_error(
            self, tmp_path, capsys, sub, mutant):
        data = json.loads((FIXTURES / "genus2_finite_order.json").read_text())
        self.PRESENTATION_MUTANTS[mutant](data["body"])
        path = tmp_path / "genus2_finite_order.json"
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, sub, str(path))
        assert (status, out, err) == (
            2, "", "error: relators do not present the mapping torus of the "
            "monodromy: Delta_1 = 0 under --rep trivial, but 1 - 2*t^2 + "
            "t^4 on the canonical presentation\n")

    # each mutant of the genus2_finite_order body is refused when its
    # presentation is built, before any representation is resolved
    PRESENTATION_REFUSALS = {
        "renamed-fiber-generator": (
            lambda body: body["generators"].__setitem__(0, "x"),
            "generators must name fiber generator 'a1' once, other than "
            "the stable letter"),
        "stable-letter-named-b2": (
            lambda body: body["generators"].__setitem__(4, "b2"),
            "generators must name fiber generator 'b2' once, other than "
            "the stable letter"),
        "relator-of-degree-one": (
            lambda body: body["relators"][1].append(5),
            "every relator must have degree zero"),
    }

    @pytest.mark.parametrize("mutant", list(PRESENTATION_REFUSALS))
    def test_refused_presentation_is_an_input_error(self, tmp_path, capsys,
                                                    mutant):
        mutate, message = self.PRESENTATION_REFUSALS[mutant]
        data = json.loads((FIXTURES / "genus2_finite_order.json").read_text())
        mutate(data["body"])
        path = tmp_path / "genus2_finite_order.json"
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, "alexander", str(path))
        assert (status, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("sub", ["alexander", "torsion", "zeta",
                                     "lefschetz"])
    def test_missing_inverse_witness_names_its_field(self, tmp_path, capsys,
                                                     sub):
        data = json.loads((FIXTURES / "genus2_finite_order.json").read_text())
        del data["body"]["monodromy"]["inverse_images"]
        path = tmp_path / "genus2_finite_order.json"
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, sub, str(path))
        assert (status, out) == (2, "")
        assert "monodromy.inverse_images" in err

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("sub", ["alexander", "torsion", "zeta",
                                     "lefschetz"])
    def test_cellular_flow_is_an_unknown_kind(self, tmp_path, capsys, sub,
                                              mode):
        # a fibered fixture is a torus_monodromy or a mapping_torus: the
        # cellular model is always built from the monodromy
        path = tmp_path / "cellular.json"
        path.write_text(json.dumps({"schema": serialize.SCHEMA_ID,
                                    "kind": "cellular_flow",
                                    "body": {"surface": {}, "flow": {}}}))
        status, out, err = run(capsys, sub, str(path), *mode)
        assert (status, out, err) == (
            2, "", "error: unknown fixture kind 'cellular_flow'\n")

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("sub", [
        ["alexander"], ["torsion"], ["zeta"], ["lefschetz"],
        ["nt", "analyze"], ["chars", "decompose"], ["chars", "bound"]],
        ids=lambda sub: "-".join(sub))
    def test_orbit_table_is_an_unknown_kind(self, tmp_path, capsys, sub,
                                            mode):
        # orbit tables are computed by `nt analyze`, never read: a file of
        # one is refused like any other unknown kind
        table = IndexedOrbitTable((OrbitRow.from_counts({-1: 1}),
                                   OrbitRow.from_counts({-1: 5})))
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"schema": serialize.SCHEMA_ID,
                                    "kind": "indexed_orbit_table",
                                    "body": cli._table_json(table)}))
        status, out, err = run(capsys, *sub, str(path), *mode)
        assert (status, out, err) == (
            2, "", "error: unknown fixture kind 'indexed_orbit_table'\n")

    def test_approx_renders_the_dilatation_once(self, capsys, monkeypatch):
        calls = []
        approx = Dilatation.approx
        monkeypatch.setattr(Dilatation, "approx",
                            lambda dil, digits: calls.append(digits)
                            or approx(dil, digits))
        for mode in ([], ["--json"]):
            status, out, _ = run(capsys, "nt", "analyze",
                                 fixture("two_pa_swap.json"), "--approx",
                                 *mode)
            assert status == 0 and "2.61803398874989484820458683437" in out
        assert calls == [cli.APPROX_DIGITS] * 2

    @pytest.mark.parametrize("source", ["pure_twist.json",
                                        "separating_twist.json"])
    def test_library_warning_is_one_plain_stderr_line(self, capsys, source):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "procong", "nt",
                               "analyze", fixture(source)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "warning: deviation is defined to be zero ")
        assert "cli.py" not in proc.stderr and "/" not in proc.stderr
        # an in-process caller of dispatch gets the same line, once per
        # request
        for _ in range(2):
            _, report = dispatch(config_from_args(
                build_parser().parse_args(["nt", "analyze", fixture(source)])))
            assert proc.stdout == report + "\n"
            assert capsys.readouterr() == ("", proc.stderr)

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
        assert config.terms is None
        assert config.output == "text"

    @pytest.mark.parametrize("argv, flag", [
        (["torus", "sweep", "2,1;1,1", "1,1;1,2"], ["--max", "100"]),
        (["zeta", fixture("torus_A211.json")], ["--terms", "5"]),
        (["lefschetz", fixture("torus_A211.json")], ["--upto", "10"]),
        (["nt", "analyze", fixture("two_pa_swap.json")], ["--upto", "6"]),
    ], ids=["max", "terms", "lefschetz-upto", "nt-upto"])
    def test_omitted_bound_is_the_handler_default(self, capsys, argv, flag):
        # the parser sets no default, so the handler's is the only one
        assert getattr(build_parser().parse_args(argv),
                       flag[0].lstrip("-")) is None
        assert run(capsys, *argv) == run(capsys, *argv, *flag)

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError, match="--terms"):
            RunConfig("zeta", ("x",), terms=0)

    def test_rejects_unknown_output_mode(self):
        with pytest.raises(ValueError, match="output mode"):
            RunConfig("zeta", ("x",), output="xml")

    def test_dispatch_rejects_unknown_subcommand(self):
        with pytest.raises(ValueError, match="unknown subcommand"):
            dispatch(RunConfig("torus explode"))

    @pytest.mark.parametrize("subcommand, field", [
        ("zeta", "upto"), ("lefschetz", "terms"), ("torus conj", "max_modulus"),
        ("torus explode", "upto")])
    def test_rejects_a_bound_the_subcommand_does_not_take(self, subcommand,
                                                          field):
        with pytest.raises(ValueError, match=f"takes no bound {field}"):
            RunConfig(subcommand, ("x",), **{field: 3})


class TestCommandTable:
    """`cli.COMMANDS` declares every subcommand once: the parser, the
    configuration, the bound checks and dispatch all read it."""

    ROOT = Path(__file__).resolve().parent.parent
    # `--help` of the top parser, the three groups and the twelve leaves,
    # as argparse formats them at 80 columns
    HELP = json.loads((Path(__file__).resolve().parent
                       / "golden_help_texts.json").read_text())

    @pytest.mark.parametrize("key", sorted(HELP))
    def test_help_text_is_pinned(self, capsys, monkeypatch, key):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(key.split()[1:] + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == self.HELP[key]

    def test_help_texts_cover_every_row(self):
        groups = {name.split()[0] for name in cli.COMMANDS if " " in name}
        assert set(self.HELP) == {f"procong {name}".strip() for name
                                  in ("", *groups, *cli.COMMANDS)}

    def test_every_handler_is_a_row(self):
        handlers = {name: value for name, value in vars(cli).items()
                    if name.startswith("_handle_")}
        assert len(handlers) == len(cli.COMMANDS) == 12
        assert {command.handler for command in cli.COMMANDS.values()} == set(
            handlers.values())

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_row_round_trips_through_the_parser(self, name):
        command, parser = cli.COMMANDS[name], build_parser()
        inputs = tuple(f"{positional}-text"
                       for positional in command.positionals)
        argv = [*name.split(), *inputs]
        assert config_from_args(parser.parse_args(argv)) == RunConfig(
            name, inputs)
        given = {}
        for flag in command.flags:
            if flag.switch:
                argv.append(flag.option)
                given[flag.field] = True
            elif flag.limit:
                argv += [flag.option, str(flag.default + 1)]
                given[flag.field] = flag.default + 1
            else:
                argv += [flag.option, "flag-text"]
                given[flag.field] = "flag-text"
        assert config_from_args(parser.parse_args(argv + ["--json"])) == (
            RunConfig(name, inputs, output="json", **given))

    def test_readme_command_block_lists_the_rows(self):
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1]
        block = block.split("```text\n", 1)[1].split("```", 1)[0]
        listed = []
        for line in block.splitlines():
            words = line.split()
            if words and words[0] == "procong":
                pair = " ".join(words[1:3])
                listed.append(pair if pair in cli.COMMANDS else words[1])
        assert listed == list(cli.COMMANDS)


class TestOneOwnerOfTheReports:
    """`cli` renders every report: apart from the value types of `kernel`
    (polynomials, rational functions and torsion classes, whose `to_json`
    is the value grammar that `perfbench/oracles.py` reads back), no module
    but `cli` defines a `to_json`, `lines` or `render_text`."""

    RENDERERS = {"to_json", "lines", "render_text"}

    def test_only_cli_and_kernel_values_render(self):
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    found += [f"{path.stem}.{node.name}.{item.name}"
                              for item in node.body
                              if isinstance(item, ast.FunctionDef)
                              and item.name in self.RENDERERS]
                elif (isinstance(node, ast.FunctionDef)
                      and node.name in self.RENDERERS):
                    found.append(f"{path.stem}.{node.name}")
        assert [name for name in found if not name.startswith("cli.")] == [
            "kernel.LaurentPolynomial.to_json",
            "kernel.RationalFunction.to_json",
            "kernel.NormalizedTorsionClass.to_json"]


class TestLastFiberedFixture:
    """dispatch keeps the fibered fixtures it compiled, keyed by the text
    of the fixture file, which it reads on every request."""

    GOLDEN = json.loads((Path(__file__).resolve().parent
                         / "golden_fibered_reports.json").read_text())

    @pytest.mark.parametrize("sub, rep", [("alexander", "trivial"),
                                          ("lefschetz", "zeta:4")])
    def test_overwritten_fixture_gets_its_own_report(self, capsys, tmp_path,
                                                     sub, rep):
        path = tmp_path / "bundle.json"
        for source in ("torus_A211.json", "torus_pair_a.json",
                       "torus_A211.json"):
            path.write_bytes((FIXTURES / source).read_bytes())
            for _ in range(2):
                status, out, _ = run(capsys, sub, str(path), "--rep", rep)
                assert status == 0
                assert out == self.GOLDEN[f"{sub} {source} --rep {rep}"]

    def test_malformed_fixture_after_a_good_one(self, capsys, tmp_path):
        assert run(capsys, "zeta", fixture("torus_A211.json"))[0] == 0
        data = json.loads((FIXTURES / "torus_A211.json").read_text())
        del data["body"]["matrix"]
        path = tmp_path / "torus_A211.json"
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, "zeta", str(path))
        assert (status, out) == (2, "")
        assert err == ("error: malformed torus_monodromy fixture: missing "
                       "key 'matrix'\n")


class TestCompiledFixtureCache:
    """Every fixture-reading handler goes through one cache of compiled
    fixtures: keyed by the fixture text, COMPILED_SLOTS entries, the least
    recently used evicted, and nothing stored for a text that fails."""

    QUERY_GOLDEN = json.loads((Path(__file__).resolve().parent
                               / "golden_query_reports.json").read_text())

    @pytest.fixture(autouse=True)
    def cold(self):
        cli._compiled.cache_clear()

    @staticmethod
    def count_decodes(monkeypatch):
        """Record the texts decoded and the decompositions validated."""
        decodes, validations = [], []
        parse = serialize.parse_fixture
        monkeypatch.setattr(serialize, "parse_fixture",
                            lambda text: decodes.append(text) or parse(text))
        validate = NTDecomposition.validate
        monkeypatch.setattr(NTDecomposition, "validate",
                            lambda nt: validations.append(nt) or validate(nt))
        return decodes, validations

    @pytest.mark.parametrize("argv", [
        ("nt", "analyze", "two_pa_swap.json", "--upto", "12"),
        ("nt", "analyze", "five_cases.json", "--approx", "--json"),
        ("chars", "decompose", "orbit_s3.json"),
        ("chars", "bound", "orbit_cyclic2.json", "--json"),
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_copy_at_another_path_is_not_decoded(self, capsys, monkeypatch,
                                                 tmp_path, argv):
        words = list(argv)
        source = FIXTURES / argv[2]
        first = run(capsys, *words[:2], str(source), *words[3:])
        assert first[0] == 0
        copy = tmp_path / "copy.json"
        copy.write_bytes(source.read_bytes())
        decodes, validations = self.count_decodes(monkeypatch)
        assert run(capsys, *words[:2], str(copy), *words[3:]) == first
        assert (decodes, validations) == ([], [])

    def test_edited_file_is_decoded_again(self, capsys, monkeypatch,
                                          tmp_path):
        path = tmp_path / "decomposition.json"
        decodes, validations = self.count_decodes(monkeypatch)
        for source in ("two_pa_swap.json", "five_cases.json",
                       "two_pa_swap.json"):
            path.write_bytes((FIXTURES / source).read_bytes())
            status, out, _ = run(capsys, "nt", "analyze", str(path),
                                 "--approx")
            assert status == 0
            assert out == self.QUERY_GOLDEN[f"nt analyze {source} --approx"]
        # the third text is the first one's, still compiled
        assert (len(decodes), len(validations)) == (2, 2)

    @pytest.mark.parametrize("argv, edit", [
        (("nt", "analyze"), lambda data: "{"),
        (("nt", "analyze"),
         lambda data: data["body"]["pieces"][0].update(euler=1) or data),
        (("alexander",), lambda data: data),
        (("chars", "bound"), lambda data: data),
    ], ids=["syntax", "validation", "fibered kind", "projection kind"])
    def test_failing_fixture_exits_two_on_every_call(
            self, capsys, monkeypatch, tmp_path, argv, edit):
        data = edit(json.loads((FIXTURES / "two_pa_swap.json").read_text()))
        path = tmp_path / "bad.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        decodes, _ = self.count_decodes(monkeypatch)
        errors = set()
        for _ in range(3):
            status, out, err = run(capsys, *argv, str(path))
            assert (status, out) == (2, "") and err.startswith("error: ")
            errors.add(err)
        assert len(errors) == 1 and len(decodes) == 3
        assert cli._compiled.cache_info().currsize == 0

    def test_ninth_text_evicts_the_least_recently_used(self, capsys,
                                                       monkeypatch, tmp_path):
        # trailing blanks make distinct texts of one decomposition
        source = (FIXTURES / "star_rotation.json").read_text()
        paths = []
        for k in range(cli.COMPILED_SLOTS + 1):
            paths.append(tmp_path / f"star{k}.json")
            paths[-1].write_text(source + " " * k)

        def analyze(path):
            status, out, _ = run(capsys, "nt", "analyze", str(path))
            assert status == 0
            return out

        golden = analyze(paths[0])
        for path in paths[1:-1]:
            assert analyze(path) == golden
        # the first text becomes the most recently used, the second the least
        assert analyze(paths[0]) == golden
        decodes, _ = self.count_decodes(monkeypatch)
        assert analyze(paths[-1]) == golden
        assert cli._compiled.cache_info().currsize == cli.COMPILED_SLOTS
        assert len(decodes) == 1
        assert analyze(paths[0]) == golden and len(decodes) == 1
        assert analyze(paths[1]) == golden and len(decodes) == 2

    def test_concurrent_requests_share_the_cache(self, tmp_path):
        # more threads than cores and more texts than slots, switching
        # often: every report is still the golden one, and the cache never
        # holds more than its slots
        paths = []
        for k in range(cli.COMPILED_SLOTS + 4):
            source = ("two_pa_swap.json", "five_cases.json")[k % 2]
            paths.append((source, tmp_path / f"nt{k}.json"))
            paths[-1][1].write_text((FIXTURES / source).read_text()
                                    + " " * k)
        failures, sizes = [], []

        def worker(offset):
            for i in range(3 * len(paths)):
                source, path = paths[(i + offset) % len(paths)]
                # the table past the row period, or the kept rendering
                argv = ("--upto", "30") if i % 2 else ("--approx",)
                # the handler, not dispatch: dispatch swaps the process's
                # warning hooks, which threads would restore out of order
                report, _ = cli._handle_nt_analyze(config_from_args(
                    build_parser().parse_args(
                        ["nt", "analyze", str(path), *argv])))
                key = " ".join(("nt analyze", source, *argv))
                if report + "\n" != self.QUERY_GOLDEN[key]:
                    failures.append(key)
                sizes.append(cli._compiled.cache_info().currsize)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and len(sizes) == 4 * 3 * len(paths)
        assert max(sizes) <= cli.COMPILED_SLOTS

    def test_fibered_bundle_resolves_each_rep_once(self, capsys,
                                                   monkeypatch):
        # a compiled fibered fixture is a plain object, not a record: its
        # `reps` memo takes each --rep label on first use, and every
        # fibered subcommand reads that representation
        resolved = []
        resolve = cli._resolve_rep
        monkeypatch.setattr(cli, "_resolve_rep", lambda mt, label:
                            resolved.append(label) or resolve(mt, label))
        path = fixture("torus_A211.json")
        for sub in ("alexander", "torsion", "zeta", "lefschetz"):
            for label in ("trivial", "sign"):
                assert run(capsys, sub, path, "--rep", label)[0] == 0
        assert resolved == ["trivial", "sign"]
        bundle, rep = cli._fibered_input(RunConfig("zeta", (path,),
                                                   rep="sign"))
        assert not isinstance(bundle, Record)
        assert bundle.reps == {"trivial": bundle.reps["trivial"], "sign": rep}
        # the memo belongs to its bundle: a text compiled anew resolves
        # its labels again
        cli._compiled.cache_clear()
        fresh, again = cli._fibered_input(RunConfig("zeta", (path,),
                                                    rep="sign"))
        assert fresh is not bundle and fresh.reps == {"sign": again}
        assert again is not rep and again == rep
        assert resolved == ["trivial", "sign", "sign"]

    def test_deviation_warning_is_printed_on_every_call(self, capsys):
        for _ in range(3):
            status, out, err = run(capsys, "nt", "analyze",
                                   fixture("pure_twist.json"), "--upto", "30")
            assert status == 0
            assert out == self.QUERY_GOLDEN["nt analyze pure_twist.json "
                                            "--upto 30"]
            assert err.startswith("warning: deviation is defined to be zero ")
            assert err.count("\n") == 1


class TestImportFootprint:
    """A torus or `nt shear` request in a fresh interpreter compiles only
    the modules it uses: `cli` imports the library modules in the handlers
    that need them.  No request loads `dataclasses` or `inspect`: the
    library's records build on `procong.record`."""

    SCRIPT = (
        "import json, sys\n"
        "from procong.cli import RunConfig, dispatch\n"
        "for sub, inputs in json.loads(sys.argv[1]):\n"
        "    assert dispatch(RunConfig(sub, tuple(inputs)))[0] == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in (\n"
        "                            'procong', 'fractions', 'dataclasses',\n"
        "                            'inspect'))))\n")

    def loaded_after(self, requests):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT,
                               json.dumps(requests)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout))

    def test_torus_requests_load_only_lattice_and_torus(self):
        loaded = self.loaded_after([
            ["torus conj", ["2,1;1,1", "1,1;1,2"]],
            ["torus congr", ["2,1;1,1", "1,1;1,2", "6"]],
            ["torus sweep", ["2,1;1,1", "1,1;1,2"]],
            ["torus klevel", ["6"]]])
        # no kernel, surfgrp, cellular, ntform, chars or serialize, and no
        # `fractions`, which only kernel's scalars need
        assert loaded == {"procong", "procong.cli", "procong.lattice",
                          "procong.record", "procong.torus"}

    def test_nt_shear_loads_only_kernel_and_ntform(self):
        loaded = self.loaded_after([["nt shear", ["1,2", "3,4"]]])
        assert loaded == {"fractions", "procong", "procong.cli",
                          "procong.kernel", "procong.ntform",
                          "procong.record"}

    def test_nt_and_chars_requests_leave_cellular_unloaded(self):
        # `serialize` imports every payload type but the fibered model,
        # which only a fibered fixture compiles to
        loaded = self.loaded_after(
            [["nt analyze", [fixture("two_pa_swap.json")]],
             ["chars bound", [fixture("orbit_s3.json")]]])
        assert loaded == {"fractions", "procong", "procong.chars",
                          "procong.cli", "procong.kernel", "procong.lattice",
                          "procong.ntform", "procong.record",
                          "procong.serialize", "procong.surfgrp",
                          "procong.torus"}

    def test_fibered_request_loads_no_dataclasses_or_inspect(self):
        # `serialize` imports every payload type and the fibered handlers
        # import `cellular`, so every module loads
        loaded = self.loaded_after(
            [["alexander", [fixture("torus_A211.json")]]])
        assert loaded == {"fractions", "procong", "procong.cellular",
                          "procong.chars", "procong.cli", "procong.kernel",
                          "procong.lattice", "procong.ntform",
                          "procong.record", "procong.serialize",
                          "procong.surfgrp", "procong.torus"}

    # every subcommand with inputs that parse; a fixture that does not
    # exist makes its handler return 2, but a parse error raises SystemExit
    ARGVS = [
        ["torus", "conj", "2,1;1,1", "1,1;1,2"],
        ["torus", "congr", "2,1;1,1", "1,1;1,2", "6", "--json"],
        ["torus", "sweep", "2,1;1,1", "1,1;1,2", "--max", "5"],
        ["torus", "klevel", "6"],
        ["alexander", "missing.json", "--rep", "sign"],
        ["torsion", "missing.json"],
        ["zeta", "missing.json", "--terms", "2"],
        ["lefschetz", "missing.json", "--upto", "2"],
        ["nt", "analyze", "missing.json", "--upto", "3", "--approx"],
        ["nt", "shear", "1,2", "-3,4"],
        ["chars", "decompose", "missing.json", "--group", "S3"],
        ["chars", "bound", "missing.json"],
    ]

    def test_dispatch_leaves_argparse_unloaded_and_main_parses(self, tmp_path):
        script = (
            "import contextlib, io, json, sys\n"
            "from procong.cli import COMMANDS, RunConfig, dispatch, main\n"
            "assert dispatch(RunConfig('torus conj', ('2,1;1,1', "
            "'1,1;1,2')))[0] == 0\n"
            "loaded = 'argparse' in sys.modules\n"
            "statuses = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        statuses.append(main(argv))\n"
            "print(json.dumps([loaded, statuses, sorted(COMMANDS)]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script,
                               json.dumps(self.ARGVS)],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded, statuses, handlers = json.loads(proc.stdout)
        assert loaded is False
        assert statuses == [0, 0, 0, 0, 2, 2, 2, 2, 2, 0, 2, 2]
        assert sorted(" ".join(argv[:2]) if argv[0] in ("torus", "nt",
                                                         "chars")
                      else argv[0] for argv in self.ARGVS) == handlers


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


class TestJsonReport:
    """`dispatch` writes a --json report with `cli._render_json`, which
    must print what `json.dumps(payload, indent=2, sort_keys=True)` does."""

    @staticmethod
    def oracle(payload):
        return json.dumps(payload, indent=2, sort_keys=True)

    # the subcommands no golden file covers
    EXTRA_ARGVS = [
        ["torus", "conj", PAIR_A, PAIR_B],
        ["torus", "conj", "2,1;1,1", "1,1;1,2"],
        ["torus", "conj", "0,-1;1,0", "0,1;-1,0"],
        ["torus", "congr", PAIR_A, PAIR_B, "12"],
        ["torus", "congr", "2,1;1,1", "1,1;1,2", "6"],
        ["torus", "klevel", "12"],
        ["nt", "shear", "1,2", "-3,4"],
    ]

    @staticmethod
    def golden_argvs(directory):
        """Every argv of both golden files, with fixture paths resolved and
        without --json, which does not change the payload."""
        import test_fibered_golden
        import test_query_golden
        test_fibered_golden.write_generated(directory)
        test_query_golden.write_generated(directory)
        keys = set()
        for golden in (test_fibered_golden.GOLDEN, test_query_golden.GOLDEN):
            keys |= {key.replace(" --json", "")
                     for key in json.loads(golden.read_text(encoding="utf-8"))}
        argvs = []
        for key in sorted(keys):
            argv = key.split()
            for i, word in enumerate(argv):
                if word.endswith(".json"):
                    shipped = (FIXTURES / word).is_file()
                    argv[i] = str((FIXTURES if shipped else directory) / word)
            argvs.append(argv)
        return argvs

    def test_every_handler_payload_matches_json_dumps(self, monkeypatch,
                                                      tmp_path):
        payloads = []
        write = cli._render_json
        monkeypatch.setattr(cli, "_render_json",
                            lambda payload: payloads.append(payload)
                            or write(payload))
        parser = build_parser()
        handled = set()
        for argv in self.golden_argvs(tmp_path) + self.EXTRA_ARGVS:
            config = config_from_args(parser.parse_args(argv + ["--json"]))
            status, report = dispatch(config)
            assert status == 0
            assert report == self.oracle(payloads[-1]), argv
            handled.add(config.subcommand)
        assert handled == set(cli.COMMANDS)

    TREES = st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.integers(-10 ** 40, 10 ** 40) | st.text(),
        lambda children: (st.lists(children)
                          | st.lists(children).map(tuple)
                          | st.dictionaries(st.text(), children)),
        max_leaves=40)

    @given(TREES)
    def test_drawn_trees_match_json_dumps(self, tree):
        assert cli._render_json(tree) == self.oracle(tree)

    def test_escapes_and_empty_containers(self):
        tree = {"": [], "a": {}, "\u00e9\n\"\\": ["\U0001f600", "\t\x00"],
                "b": [[], {}, ()], "n": [-(10 ** 30), 0, True, False, None]}
        assert cli._render_json(tree) == self.oracle(tree)

    @pytest.mark.parametrize("payload", [
        1.5, Fraction(1, 2), {1: "a"}, {"a": [0.5]}, [{"b": Fraction(3)}],
        {("a",): 1}])
    def test_anything_else_is_a_type_error(self, payload):
        with pytest.raises(TypeError):
            cli._render_json(payload)
