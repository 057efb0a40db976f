"""Byte-for-byte golden reports of the non-fibered subcommands.

`golden_query_reports.json` holds the stdout of ``torus sweep --max 1000``
on the classical pair and on a pair conjugate in SL(2,Z), of ``chars
decompose`` and ``chars bound`` on the two shipped orbit projection tables
and on seeded ``cyclic(31)``, ``cyclic(48)`` and ``cyclic(59)`` tables
written at test time (see `write_generated`), of ``nt analyze --approx``
on the three pseudo-Anosov decompositions and of ``nt analyze --upto 30`` on
all five shipped decompositions, each in text and ``--json`` mode.
A sweep's witness at each level is the one `CommutationSolver.witness_mod`
glues by CRT from its prime-power witnesses, and every level's verdict is
pinned to the committed one by a test of its own.  Any change to how
character sums or stretch-factor intervals are computed must keep these
reports identical.  One test replays every report
of both golden files through one process, twice, in a seeded shuffled
order, so no state kept between requests may change a report.  To
regenerate (only when a report is meant to change, and say why):
``PYTHONPATH=src python tests/test_query_golden.py``.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

import test_fibered_golden as fibered
from procong import cli
from procong.cli import main
from procong.serialize import KIND_ORBIT_PROJECTION, save_fixture
from procong.torus import CommutationSolver, Mat2, congruence_sweep

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden_query_reports.json"

# the classical pair, and 2,1;1,1 conjugated by 3,2;4,3
SWEEP_PAIRS = (("188,275;121,177", "188,11;3025,177"),
               ("2,1;1,1", "4,-1;5,-1"))
ORBIT_SOURCES = ("orbit_cyclic2.json", "orbit_s3.json")
# cyclic order -> orbit rows of the table written at test time
GENERATED = {31: 7, 48: 12, 59: 5}
NT_SOURCES = ("two_pa_swap.json", "five_cases.json", "star_rotation.json")
# every shipped decomposition, past each one's orbit-row period
NT_TABLE_SOURCES = NT_SOURCES + ("separating_twist.json", "pure_twist.json")
MODES = ((), ("--json",))


def write_generated(directory):
    """Write `cyclic<n>.json` for each n of GENERATED: seeded rows with
    indices in -3..3 landing on random classes, attainment asserted on
    every other table."""
    for k, (n, count) in enumerate(sorted(GENERATED.items())):
        rng = random.Random(n)
        rows = [[f"o{j}", rng.choice([-3, -2, -1, 1, 2, 3]),
                 rng.randrange(n)] for j in range(count)]
        save_fixture(Path(directory) / f"cyclic{n}.json",
                     KIND_ORBIT_PROJECTION,
                     {"group": f"cyclic({n})", "attained": k % 2 == 0,
                      "rows": rows})


def invocations():
    """Keys of the golden file: argv, with fixtures named by file name."""
    keys = []
    for a, b in SWEEP_PAIRS:
        keys += [" ".join(("torus", "sweep", a, b, "--max", "1000") + mode)
                 for mode in MODES]
    sources = ORBIT_SOURCES + tuple(f"cyclic{n}.json" for n in GENERATED)
    for sub in ("decompose", "bound"):
        keys += [" ".join(("chars", sub, source) + mode)
                 for source in sources for mode in MODES]
    keys += [" ".join(("nt", "analyze", source, "--approx") + mode)
             for source in NT_SOURCES for mode in MODES]
    keys += [" ".join(("nt", "analyze", source, "--upto", "30") + mode)
             for source in NT_TABLE_SOURCES for mode in MODES]
    return keys


def report(key, generated_dir):
    argv = key.split()
    for i, word in enumerate(argv):
        if word.endswith(".json"):
            root = (Path(generated_dir) if word.startswith("cyclic")
                    else FIXTURES)
            argv[i] = str(root / word)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("generated")
    write_generated(directory)
    return directory


@pytest.mark.parametrize("key", invocations())
def test_report_is_byte_identical(key, generated_dir):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    status, out = report(key, generated_dir)
    assert status == 0
    assert out == golden[key]


@pytest.mark.parametrize("a,b", SWEEP_PAIRS, ids=["classical", "conjugate"])
def test_sweep_verdicts_match_the_golden_levels(a, b):
    # a witness may change with the search that finds it, a verdict may not;
    # every committed witness still intertwines the pair with a unit
    key = " ".join(("torus", "sweep", a, b, "--max", "1000", "--json"))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    levels = json.loads(golden[key])["levels"]
    a, b = Mat2.from_string(a), Mat2.from_string(b)
    report = congruence_sweep(a, b, 1000)
    assert [level["modulus"] for level in levels] == list(range(1, 1001))
    assert [v.modulus for v in report.verdicts
            if v.conjugate != levels[v.modulus - 1]["conjugate"]] == []
    solver = CommutationSolver(a, b)
    for level in levels:
        if level["witness"] is not None:
            solver.verify(Mat2.from_string(level["witness"]), level["modulus"])


def test_every_golden_report_replays_in_one_process(tmp_path_factory):
    # both golden files twice over, shuffled, from a cold cache: more texts
    # than the cache holds, so entries are evicted and compiled again, and
    # each decomposition's kept rows serve bounds in any order
    cli._compiled.cache_clear()
    query_dir = tmp_path_factory.mktemp("query")
    fibered_dir = tmp_path_factory.mktemp("fibered")
    write_generated(query_dir)
    fibered.write_generated(fibered_dir)
    golden = {}
    for path, report_of, directory in (
            (fibered.GOLDEN, fibered.report, fibered_dir),
            (GOLDEN, report, query_dir)):
        for key, out in json.loads(path.read_text(encoding="utf-8")).items():
            golden[report_of, directory, key] = out
    runs = sorted(golden, key=lambda run: run[2]) * 2
    random.Random(20261019).shuffle(runs)
    for run in runs:
        report_of, directory, key = run
        assert report_of(key, directory) == (0, golden[run]), key


def test_golden_file_covers_every_invocation():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(invocations())


if __name__ == "__main__":
    reports = {}
    with tempfile.TemporaryDirectory() as scratch:
        write_generated(scratch)
        for key in invocations():
            status, out = report(key, scratch)
            if status != 0:
                raise SystemExit(f"{key}: exit status {status}")
            reports[key] = out
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
