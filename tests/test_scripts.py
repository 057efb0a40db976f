"""Smoke tests of the experiment scripts under ``scripts/``: each one runs
in a subprocess with small arguments, exits 0 and prints its verdict."""

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


@pytest.mark.parametrize("argv, verdict", [
    (("zeta_lab.py", "fixtures/torus_A211.json", "--reps", "trivial",
      "zeta:4"), "routes AGREE"),
    (("pair_sweep.py", "--max", "50"), "all levels conjugate"),
    (("characteristic_levels.py", "--max", "5"), "all levels agree"),
    (("shear_invariance.py", "--trials", "20"),
     "unimodular invariance and scaling law held throughout"),
    (("nt_demo.py", "--upto", "4"), "certified within 1%"),
    (("large_rep_timings.py", "2"), "all stages finished"),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_script_runs_and_reports(argv, verdict):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert verdict in proc.stdout


def test_make_fixtures_reproduces_the_shipped_files(tmp_path):
    proc = run_script("make_fixtures.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
