"""Byte-for-byte golden reports of the fibered subcommands.

`golden_fibered_reports.json` holds the stdout of ``alexander``, ``torsion``,
``zeta`` and ``lefschetz`` on two small fixtures under five rank-1
representations (text mode), plus the JSON mode under ``zeta:4``, and two
reports on the long-word bundle ``torus_pair_a.json``.  Any change
to how the twisted matrices, determinants or series are computed must keep
these reports identical.  To regenerate (only when a report is meant to
change, and say why): ``PYTHONPATH=src python tests/test_fibered_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from procong.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden_fibered_reports.json"

SUBCOMMANDS = ("alexander", "torsion", "zeta", "lefschetz")
SOURCES = ("torus_A211.json", "genus2_finite_order.json")
REPS = ("trivial", "sign", "zeta:4", "zeta:6:5", "zeta:12")
# relators of 444 and 587 letters: chain assembly on long words
PAIR_KEYS = ("alexander torus_pair_a.json --rep trivial",
             "lefschetz torus_pair_a.json --rep zeta:4")


def invocations():
    """Keys of the golden file: the argv after the fixture path."""
    keys = []
    for sub in SUBCOMMANDS:
        for source in SOURCES:
            for rep in REPS:
                keys.append(f"{sub} {source} --rep {rep}")
            keys.append(f"{sub} {source} --rep zeta:4 --json")
    return keys + list(PAIR_KEYS)


def report(key):
    sub, source, *rest = key.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([sub, str(FIXTURES / source), *rest])
    return status, out.getvalue()


@pytest.mark.parametrize("key", invocations())
def test_report_is_byte_identical(key):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    status, out = report(key)
    assert status == 0
    assert out == golden[key]


def test_golden_file_covers_every_invocation():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(invocations())


if __name__ == "__main__":
    reports = {}
    for key in invocations():
        status, out = report(key)
        if status != 0:
            raise SystemExit(f"{key}: exit status {status}")
        reports[key] = out
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
