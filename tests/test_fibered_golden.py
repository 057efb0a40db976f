"""Byte-for-byte golden reports of the fibered subcommands.

`golden_fibered_reports.json` holds the stdout of ``alexander``, ``torsion``,
``zeta`` and ``lefschetz`` on two small fixtures under five rank-1
representations (text mode), plus the JSON mode under ``zeta:4``, two
reports on each of the long-word bundles ``torus_pair_a.json`` and
``torus_pair_b.json``, and the fibered subcommands under ``trivial`` and
``zeta:4`` on fixtures written at test time whose presentation is not the
canonical mapping torus of its monodromy (see `write_generated`).  That
re-chosen cell lifts leave the invariants alone is checked in process
(`test_cellular.TestLiftIndependence`).  Any change
to how the twisted matrices, determinants or series are computed must keep
these reports identical.  The rank-1 representations are also checked
against the trivial invariants with t replaced by u t (see
`test_every_rep_is_the_trivial_invariant_at_u_t`).  To regenerate (only when a report is meant to
change, and say why): ``PYTHONPATH=src python tests/test_fibered_golden.py``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from procong.cellular import lefschetz_numbers, zeta_from_cellular
from procong.cli import RunConfig, _fibered_input, main
from procong.kernel import (Cyclotomic, LaurentPolynomial, RationalFunction,
                            as_exact)
from procong.serialize import (KIND_MAPPING_TORUS, encode_mapping_torus,
                               load_fixture, save_fixture)
from procong.surfgrp import (GeneratorEndomorphism, SurfacePresentation,
                             mapping_torus, twisted_alexander)
import reference  # noqa: F401  (attaches the relator moves)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden_fibered_reports.json"

SUBCOMMANDS = ("alexander", "torsion", "zeta", "lefschetz")
SOURCES = ("torus_A211.json", "genus2_finite_order.json")
REPS = ("trivial", "sign", "zeta:4", "zeta:6:5", "zeta:12")
# relators of 312 and 455 letters (pair A) and of 3,216 and 191 letters
# (pair B): chain assembly on long words
PAIR_KEYS = tuple(f"{key} torus_pair_{pair}.json --rep {rep}"
                  for pair in "ab"
                  for key, rep in (("alexander", "trivial"),
                                   ("lefschetz", "zeta:4")))
# Written by `write_generated`.  The two mapping_torus fixtures present the
# torus_A211 bundle by other relators than the canonical ones, and
# `extended_A211.json` by one more generator: every invariant is read from
# the canonical presentation, and the fixture's own relators are checked
# against it on Delta_0/Delta_1.
GENERATED = {"moved_A211.json": SUBCOMMANDS,
             "extended_A211.json": SUBCOMMANDS}
GENERATED_REPS = ("trivial", "zeta:4")
# Also written by `write_generated`, and not in the golden file: the
# canonical torus_A211 presentation with its generators listed in another
# order (the old index of each new generator), which must print the
# torus_A211.json reports under REORDERED_REPS.
REORDERED = {"t_first_A211.json": (3, 1, 2),
             "swapped_A211.json": (2, 1, 3)}
REORDERED_REPS = ("trivial", "sign", "zeta:4", "zeta:12")


def write_generated(directory):
    """Write the GENERATED fixtures into `directory`.

    `moved_A211.json` presents the torus_A211 bundle after a relator cycle,
    an inversion and a conjugation; `extended_A211.json` adds a redundant
    fourth generator to it.  The REORDERED fixtures list the generators of
    torus_A211 in another order."""
    directory = Path(directory)
    phi = GeneratorEndomorphism.torus_monodromy(
        load_fixture(FIXTURES / "torus_A211.json").payload)
    mt = mapping_torus(SurfacePresentation.closed(1), phi)
    for name, order in REORDERED.items():
        save_fixture(directory / name, KIND_MAPPING_TORUS,
                     encode_mapping_torus(mt.permute_generators(order)))
    moved = (mt.cycle_relator(0, 1).invert_relator(1)
             .conjugate_relator(2, (3, 1)))
    save_fixture(directory / "moved_A211.json", KIND_MAPPING_TORUS,
                 encode_mapping_torus(moved))
    save_fixture(directory / "extended_A211.json", KIND_MAPPING_TORUS,
                 encode_mapping_torus(moved.add_generator("x", (1, 3, -2))))


def invocations():
    """Keys of the golden file: the argv after the fixture path."""
    keys = []
    for sub in SUBCOMMANDS:
        for source in SOURCES:
            for rep in REPS:
                keys.append(f"{sub} {source} --rep {rep}")
            keys.append(f"{sub} {source} --rep zeta:4 --json")
        for source, subcommands in GENERATED.items():
            if sub in subcommands:
                keys += [f"{sub} {source} --rep {rep}"
                         for rep in GENERATED_REPS]
    return keys + list(PAIR_KEYS)


def report(key, generated_dir):
    sub, source, *rest = key.split()
    root = FIXTURES if (FIXTURES / source).is_file() else Path(generated_dir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([sub, str(root / source), *rest])
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


def test_pair_b_prints_the_pair_a_report(generated_dir):
    # A and B have equal trace, so every rank-1 invariant agrees
    runs = [(sub, rep) for sub in SUBCOMMANDS
            for rep in ("trivial", "zeta:12")]
    runs += [("torsion", "sign"), ("torsion", "zeta:4")]
    for sub, rep in runs:
        (status_a, out_a), (status_b, out_b) = (
            report(f"{sub} torus_pair_{pair}.json --rep {rep}", generated_dir)
            for pair in "ab")
        assert status_a == status_b == 0 and out_a == out_b, (sub, rep)


# each label with the root u it sends t to
DEGREE_REPS = (("sign", Cyclotomic.root(2)), ("zeta:5", Cyclotomic.root(5)),
               ("zeta:12", Cyclotomic.root(12)),
               ("zeta:6:5", Cyclotomic.root(6, 5)))


def at_u_t(p: LaurentPolynomial, u) -> LaurentPolynomial:
    """p(u t): the coefficient of t^e scaled by u^e."""
    return LaurentPolynomial({e: as_exact(c * u ** e)
                              for e, c in p.terms.items()})


@pytest.mark.parametrize("label, u", DEGREE_REPS,
                         ids=[label for label, _ in DEGREE_REPS])
@pytest.mark.parametrize("source", ["torus_A211.json",
                                    "genus2_finite_order.json",
                                    "torus_pair_a.json"])
def test_every_rep_is_the_trivial_invariant_at_u_t(source, label, u):
    # every --rep sends g to u^(degree g), so its twisted complex is the
    # untwisted one with t replaced by u t: an oracle that shares nothing
    # with the cyclotomic elimination
    path = str(FIXTURES / source)
    bundle, trivial = _fibered_input(RunConfig("zeta", (path,)))
    _, rep = _fibered_input(RunConfig("zeta", (path,), rep=label))
    surface, flow = bundle.surface, bundle.flow
    mt = surface.presentation
    for n in range(4):
        assert twisted_alexander(mt, rep, n) == at_u_t(
            twisted_alexander(mt, trivial, n), u).monic_normal(), n
    zeta = zeta_from_cellular(surface, flow, trivial)
    assert zeta_from_cellular(surface, flow, rep) == RationalFunction(
        at_u_t(zeta.num, u), at_u_t(zeta.den, u))
    plain = lefschetz_numbers(surface, flow, trivial, 6)
    assert lefschetz_numbers(surface, flow, rep, 6) == [
        u ** m * value for m, value in enumerate(plain, 1)]


@pytest.mark.parametrize("source", list(REORDERED))
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_reordered_generators_print_the_canonical_report(sub, source,
                                                         generated_dir):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for rep in REORDERED_REPS:
        status, out = report(f"{sub} {source} --rep {rep}", generated_dir)
        assert (status, out) == (
            0, golden[f"{sub} torus_A211.json --rep {rep}"]), rep


def test_extended_presentation_prints_the_canonical_report():
    # every invariant is read from the canonical presentation, and the
    # fixture's own relators are only checked: the reports are torus_A211's
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for sub in SUBCOMMANDS:
        for rep in GENERATED_REPS:
            assert (golden[f"{sub} extended_A211.json --rep {rep}"]
                    == golden[f"{sub} torus_A211.json --rep {rep}"])


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
