"""The benchmark's own tests: correct outputs pass the oracles, corrupted
reports and witnesses count as failures, and batches depend on the seed
alone.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import random

import pytest

import run
import workloads
from procong.cellular import CellularTorsion
from procong.cli import RunConfig
from procong.kernel import (LaurentPolynomial, RationalFunction,
                            normalize_unit_class)
from workloads import Request, affine_matrices


def _answer(req):
    out = run.execute(req)
    assert run.count_failures([req], [out]) == 0
    return out


def _corrupt(req, out, edit):
    """Apply edit to the JSON payload of a CLI output; return the failure
    count of the edited output."""
    status, text = out
    payload = json.loads(text)
    edit(payload)
    return run.count_failures([req], [(status, json.dumps(payload))])


@pytest.fixture(scope="module")
def torus_fixture(tmp_path_factory):
    return workloads._torus_fixture(tmp_path_factory.mktemp("fx"), "2,1;1,1")


def _fibered(sub, path, rep):
    return Request("cli", sub, config=RunConfig(sub, (path,), rep=rep,
                                                output="json"),
                   bundle=("2,1;1,1", rep),
                   expect={"h1": ((2, 1), (1, 1)), "rep": rep})


@pytest.mark.parametrize("rep", ["trivial", "zeta:12"])
@pytest.mark.parametrize("degree", range(4))
def test_alexander_report_corrupted(torus_fixture, rep, degree):
    req = _fibered("alexander", torus_fixture, rep)
    out = _answer(req)

    def edit(payload):
        payload["orders"][degree].append([5, "3"])
    assert _corrupt(req, out, edit) == 1


def test_lefschetz_and_zeta_reports_corrupted(torus_fixture):
    req = _fibered("lefschetz", torus_fixture, "sign")
    out = _answer(req)
    assert _corrupt(req, out, lambda p: p["lefschetz"].__setitem__(2, "0")) == 1
    req = _fibered("zeta", torus_fixture, "zeta:4")
    out = _answer(req)
    assert _corrupt(req, out, lambda p: p.__setitem__(
        "zeta", {"num": [[0, "1"]], "den": [[0, "1"]]})) == 1


def test_torsion_report_corrupted(torus_fixture):
    req = _fibered("torsion", torus_fixture, "trivial")
    out = _answer(req)
    assert _corrupt(req, out, lambda p: p["torsion"]["num"].append([9, "1"])) == 1
    assert _corrupt(req, out, lambda p: p.__setitem__("acyclic", False)) == 1


def _corrupt_library(req, out, key, edit):
    """Apply edit to a copy of one entry of a library output; return the
    failure count of the edited output."""
    value = list(out[key]) if isinstance(out[key], list) else out[key]
    return run.count_failures([req], [dict(out, **{key: edit(value)})])


def _shifted(values):
    values[2] = values[3]
    return values


def test_affine_request_corrupted(torus_fixture):
    req = Request("fibered", "affine", fixture=torus_fixture,
                  rep=("affine", 2, affine_matrices("2,1;1,1", 2)),
                  bundle=("2,1;1,1", "affine:2"))
    out = _answer(req)
    for n in range(4):
        def edit(deltas, n=n):
            deltas[n] = deltas[n] * LaurentPolynomial.from_coefficients((1, 5))
            return deltas
        assert _corrupt_library(req, out, "deltas", edit) == 1
    wrong = normalize_unit_class(LaurentPolynomial.from_coefficients((1, 5)))
    assert _corrupt_library(req, out, "alexander_torsion",
                            lambda _: wrong) == 1
    assert _corrupt_library(req, out, "cellular",
                            lambda c: CellularTorsion(wrong, True)) == 1
    assert _corrupt_library(req, out, "zeta", lambda z: RationalFunction(
        z.num * LaurentPolynomial.from_coefficients((1, 1)), z.den)) == 1
    assert _corrupt_library(req, out, "lefschetz", _shifted) == 1


def test_rank1_library_request_corrupted():
    req = Request("fibered", "genus2", rep=("rank1", "zeta:5:2"),
                  fixture=str(run.ROOT / workloads.GENUS2_FIXTURE),
                  bundle=("genus2", "zeta:5:2"))
    out = _answer(req)
    assert _corrupt_library(req, out, "lefschetz", _shifted) == 1

    def wrong_delta2(deltas):
        deltas[2] = deltas[0].constant(1)
        return deltas
    assert _corrupt_library(req, out, "deltas", wrong_delta2) == 1


def _pair_request(sub, pair, kind, *extra, **config):
    return workloads._pair_request(sub, pair, kind, extra, **config)


def test_sweep_witness_and_verdict_corrupted():
    req = _pair_request("torus sweep", ("2,1;1,1", "1,1;1,2"), "conjugated",
                        max_modulus=12)
    out = _answer(req)

    def bad_witness(payload):
        payload["levels"][4]["witness"] = "1,0;0,1"

    def false_negative(payload):
        payload["levels"][2].update(conjugate=False, witness=None)
        payload["all_levels_pass"] = False
        payload["first_failure"] = 3

    assert _corrupt(req, out, bad_witness) == 1
    assert _corrupt(req, out, false_negative) == 1


def test_congr_and_conj_corrupted():
    req = _pair_request("torus congr", workloads.CLASSICAL_PAIR, "classical",
                        "999999937")
    out = _answer(req)
    assert _corrupt(req, out, lambda p: p["level"].update(
        witness="1,1;0,1")) == 1
    req = _pair_request("torus conj", ("2,1;1,1", "1,1;1,2"), "conjugated")
    out = _answer(req)
    assert _corrupt(req, out, lambda p: p["sl2"].update(
        witness="1,0;0,1")) == 1
    assert _corrupt(req, out, lambda p: p["sl2"].update(
        conjugate=False, witness=None)) == 1


def test_klevel_nt_and_chars_corrupted(tmp_path):
    req = Request("cli", "klevel", config=RunConfig(
        "torus klevel", ("9",), output="json"), expect={"bound": 9})
    out = _answer(req)
    assert _corrupt(req, out, lambda p: p.update(characteristic_level=840)) == 1

    req = Request("cli", "nt", config=RunConfig(
        "nt analyze", (str(run.ROOT / "fixtures" / "five_cases.json"),),
        upto=6, approx=True, output="json"))
    out = _answer(req)
    assert _corrupt(req, out, lambda p: p["table"]["rows"][0].update(
        nielsen=99)) == 1
    assert _corrupt(req, out, lambda p: p.update(dilatation_approx="3.5")) == 1
    assert _corrupt(req, out, lambda p: p.update(split_order=2)) == 1
    assert _corrupt(req, out, lambda p: p.update(deviation="0")) == 1
    assert _corrupt(req, out, lambda p: p["dilatation"].update(
        factor=None)) == 1

    req = Request("cli", "shear", config=RunConfig(
        "nt shear", ("2,3", "1,5"), output="json"),
        expect={"slopes": [(2, 3), (1, 5)]})
    out = _answer(req)
    assert _corrupt(req, out, lambda p: p.update(degree=6)) == 1

    for sub in ("chars decompose", "chars bound"):
        req = workloads._chars_request(random.Random(sub), tmp_path, "t",
                                       "cyclic(6)", 6, 12)
        req.config = RunConfig(sub, req.config.inputs, output="json")
        out = _answer(req)
        key = "class_indicators" if sub == "chars decompose" else "bound"

        def edit(payload):
            if key == "bound":
                payload["bound"] += 1
            else:
                payload[key][0] += 1
        assert _corrupt(req, out, edit) == 1


def test_raised_request_counts_as_failure(tmp_path):
    req = Request("cli", "missing", config=RunConfig(
        "alexander", (str(tmp_path / "missing.json"),), output="json"))
    _, outputs, _, _ = run.run_pass([req], budget_s=60)
    assert isinstance(outputs[0], run.Failed)
    assert run.count_failures([req], outputs) == 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_batches_depend_on_the_seed_alone(tmp_path, workload):
    def labels(seed):
        return [r.label for r in
                workloads.build(workload, seed, 10, tmp_path, run.ROOT)]
    assert labels(5) == labels(5) != labels(6)


def test_overrun_pass_fails_its_requests(monkeypatch):
    monkeypatch.setattr(run, "WORKER_LIMIT", 1e-3)
    attempted, failed, metrics = run.measure("queries", 1, 10, trace=False)
    assert attempted == failed + run.SETUP_REPEATS
    assert failed > 0
    assert set(metrics) == {"setup_s", "ok_ratio"}
