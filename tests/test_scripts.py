"""Smoke tests of the scripts under ``scripts/``: each one runs in a
subprocess with small arguments, exits 0 and prints its verdict, and
``make_fixtures.py`` reproduces the shipped fixtures."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)


def source_lines():
    return sum(path.read_text(encoding="utf-8").count("\n")
               for path in (ROOT / "src" / "procong").glob("*.py"))


# (argv, verdict); a verdict may name the line count of src/, which is
# read after the script has run, so it is not part of the case's id
SMOKE_CASES = [
    pytest.param(("large_rep_timings.py", "3"), "all stages finished",
                 id="large_rep_timings.py-all stages finished"),
    pytest.param(("reach.py",),
                 "unreached lines of function bodies in src/procong, "
                 "which has {lines:,} lines\n", id="reach.py"),
]


@pytest.mark.parametrize("argv, verdict", SMOKE_CASES)
def test_script_runs_and_reports(argv, verdict):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert verdict.format(lines=source_lines()) in proc.stdout


def test_make_fixtures_reproduces_the_shipped_files(tmp_path):
    proc = run_script("make_fixtures.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()


def test_reach_marks_what_the_benchmark_pins():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    pinned = reach.bench_pins({"HomologyAction", "LaurentPolynomial",
                               "PolyMatrix", "RationalFunction",
                               "SurfacePresentation"})
    # a tracer target, names that perfbench/oracles.py imports or reads,
    # and a constructor hook of a class it names
    for module, name in [("kernel", "PolyMatrix.determinant"),
                         ("kernel", "parse_scalar"),
                         ("kernel", "LaurentPolynomial.unit_equal"),
                         ("kernel", "LaurentPolynomial.from_json"),
                         ("cellular", "HomologyAction.__init__")]:
        assert pinned(module, name), name
    # the oracles read `one` off LaurentPolynomial, not off RationalFunction
    for module, name in [("kernel", "RationalFunction.one"),
                         ("kernel", "LaurentPolynomial.__pow__"),
                         ("surfgrp", "SurfacePresentation.with_boundary")]:
        assert not pinned(module, name), name


def test_every_script_runs_here():
    tested = {case.values[0][0] for case in SMOKE_CASES} | {"make_fixtures.py"}
    assert tested == {p.name for p in (ROOT / "scripts").glob("*.py")}
