"""procong benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload fibered_long --seed 1 --seconds 33 --trace 0

Run from the root of a source tree; the library is imported from ``src``.
A worker process sends the requests of a fixed, seeded batch one after the
other, each after the previous one returned (closed loop, one client, one
thread).  Requests go in-process through ``procong.cli.dispatch``, or
through the library functions the CLI handlers call when the CLI cannot
express the request (representations of degree > 1).  The worker checks
every output with an oracle after its timed loop (see ``oracles.py``).

The batch runs in three workers, one after the other; a request's latency
is its fastest pass, and the batch time is the fastest pass's wall time.
Between requests a worker times a fixed chunk of pure-Python work that does
not use procong, and every time is scaled by its speed to the speed of the
machine that recorded the baseline (see ``reference_chunk``).
A worker that crashes or overruns its time limit fails all its requests,
and the result line is still printed.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` one untraced and one traced pass run, and the metrics are the
per-layer ones (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    from procong import cellular, cli, serialize, surfgrp
except ImportError:  # not run from a procong source tree
    cli = None
else:
    import oracles
    import workloads
    from tracer import BENCH_LAYER, Tracer

WORKLOADS = ("fibered_long", "fibered_wide", "queries")
SETUP_REPEATS = 5
# passes over the batch, each in a fresh process; a request's latency is its
# fastest pass
PASSES = 3
# Time limits, as multiples of a pass's nominal time --seconds / PASSES: a
# pass's requests must start within PASS_BUDGET of it, a worker is killed
# after WORKER_LIMIT and a set-up probe after SETUP_LIMIT.  At --seconds 33
# a run ends within 5 * 5.5 + 3 * 48.4 = 173 s even when every limit is hit.
PASS_BUDGET = 4.0
WORKER_LIMIT = 4.4
SETUP_LIMIT = 0.5
TAIL_MIN_BEYOND = 10
# The virtual machine that recorded the baseline runs the same code up to a
# third faster or slower from one minute to the next.  A worker spends this
# share of its pass timing reference chunks between requests, and scales its
# times by REFERENCE_S over the median chunk time, REFERENCE_S being about
# that median on the baseline machine.  In a ten-minute trial, eight fixed
# requests timed between reference chunks spread 0.10 ((q3 - q1) / median
# of 35 s windows) raw and 0.03 scaled.
REFERENCE_SHARE = 0.05
REFERENCE_S = 0.0085
# reference chunks timed before each set-up probe
SETUP_REFERENCE_CHUNKS = 3

WARMUP = {
    "fibered_long": ("alexander", str(ROOT / "fixtures" / "torus_A211.json")),
    "fibered_wide": ("alexander", str(ROOT / "fixtures" / "torus_A211.json")),
    "queries": ("torus conj", "188,275;121,177", "188,11;3025,177"),
}
# import procong and answer one warm-up request, timed inside the child
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from procong.cli import RunConfig, dispatch
status, _ = dispatch(RunConfig(sys.argv[2], tuple(sys.argv[3:]), output="json"))
print(time.perf_counter() - start)
sys.exit(status)
"""


def reference_chunk() -> float:
    """Time one fixed chunk of exact-fraction, big-integer and dict work,
    the kind procong's requests spend their time on; the chunk is the
    benchmark's own and never changes with the code under test."""
    start = perf_counter()
    for _ in range(3):
        acc = Fraction(0)
        table = {}
        for i in range(1, 300):
            acc += Fraction(i, i + 1)
            table[(i, i % 7)] = acc.numerator % 1000
        total = 0
        for i in range(20000):
            total += i * i % 7
    return perf_counter() - start


class Failed:
    """Output slot of a request that raised or never ran."""

    def __init__(self, reason: str):
        self.reason = reason


def measure_setup(workload: str, limit_s: float):
    """Median over fresh interpreters of: import procong, one request,
    scaled to the reference speed; and the number of probes that failed or
    ran out of time."""
    samples, chunks, failed = [], [], 0
    for _ in range(SETUP_REPEATS):
        chunks += [reference_chunk() for _ in range(SETUP_REFERENCE_CHUNKS)]
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC),
                 *WARMUP[workload]],
                cwd=ROOT, capture_output=True, text=True, timeout=limit_s,
                check=True)
            samples.append(float(done.stdout))
        except (subprocess.SubprocessError, ValueError) as exc:
            failed += 1
            print(f"FAILED set-up probe: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    if not samples:
        return None, failed
    scale = REFERENCE_S / statistics.median(chunks)
    return statistics.median(samples) * scale, failed


def execute(req):
    """Answer one request through the public API."""
    if req.kind == "cli":
        return cli.dispatch(req.config)
    fixture = serialize.load_fixture(req.fixture)
    if fixture.kind == serialize.KIND_TORUS:
        phi = surfgrp.GeneratorEndomorphism.torus_monodromy(fixture.payload)
        mt = surfgrp.mapping_torus(surfgrp.SurfacePresentation.closed(1), phi)
    else:
        mt = fixture.payload
    surface, flow = cellular.cellular_model(mt)
    if req.rep[0] == "affine":
        _, n, matrices = req.rep
        rep = surfgrp.FiniteRepresentation(n * n, matrices)
    elif req.rep[1] == "trivial":
        rep = surfgrp.FiniteRepresentation.trivial(mt)
    else:
        rep = surfgrp.FiniteRepresentation.fibered_character(
            mt, workloads.rep_unit(req.rep[1]))
    return {
        "mt": mt,
        "deltas": [surfgrp.twisted_alexander(mt, rep, n) for n in range(4)],
        "cellular": cellular.torsion_from_cellular(surface, flow, rep),
        "alexander_torsion": surfgrp.twisted_torsion(mt, rep),
        "zeta": cellular.zeta_from_cellular(surface, flow, rep),
        "lefschetz": cellular.lefschetz_numbers(surface, flow, rep, 10),
    }


def run_pass(batch, budget_s, tracer=None):
    """Send the batch in a closed loop; return each request's latency and
    output, the wall time of the loop without the reference chunks, and the
    median reference chunk time.  Requests not started within the budget
    fail, with latency None."""
    outputs, latencies, chunks = [], [], []
    reference_s = 0.0
    start = perf_counter()
    for index, req in enumerate(batch):
        while (not chunks or reference_s
               < REFERENCE_SHARE * (perf_counter() - start)):
            chunks.append(reference_chunk())
            reference_s += chunks[-1]
        if perf_counter() - start > budget_s:
            outputs.append(Failed("not started within the time budget"))
            latencies.append(None)
            continue
        sent = perf_counter()
        try:
            if tracer is None:
                out = execute(req)
            else:
                tracer.request = index
                out = tracer.span("request", BENCH_LAYER, execute, req)
        except Exception as exc:  # a failed request must not stop the run
            out = Failed(f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - sent)
        outputs.append(out)
    wall = perf_counter() - start - reference_s
    return latencies, outputs, wall, statistics.median(chunks)


def count_failures(batch, outputs) -> int:
    failed = 0
    for req, out in zip(batch, outputs):
        if isinstance(out, Failed):
            reason = out.reason
        else:
            try:
                oracles.check(req, out)
                continue
            except Exception as exc:  # any oracle crash is a wrong output
                reason = f"{type(exc).__name__}: {exc}"
        failed += 1
        if failed <= 5:
            print(f"FAILED {req.label}: {reason}", file=sys.stderr)
    return failed


def tail_latency(latencies):
    """(percentile, value) for the highest whole percentile with at least
    ten requests beyond it; the maximum when there are fewer than 20."""
    n = len(latencies)
    p = math.floor(100 * (1 - TAIL_MIN_BEYOND / n))
    if p < 50:
        return "max", max(latencies)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return f"p{p}", cuts[p - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_worker(args) -> dict:
    """One pass over the batch in this process; the result goes to stdout
    as JSON for the parent."""
    pass_s = args.seconds / PASSES
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        batch = workloads.build(args.workload, args.seed, pass_s,
                                Path(scratch), ROOT)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        latencies, outputs, wall, reference = run_pass(
            batch, PASS_BUDGET * pass_s, tracer)
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = count_failures(batch, outputs)
    scale = REFERENCE_S / reference
    return {"latencies": [t if t is None else t * scale for t in latencies],
            "wall": wall * scale, "raw_wall": wall, "failed": failed,
            "attempted": len(batch), "peak_rss_mb": peak_rss_mb,
            "reuse_share": workloads.reuse_share(batch),
            "layers": tracer.metrics(wall, len(batch)) if tracer else None}


def spawn_worker(workload, seed, seconds, traced: bool) -> dict:
    """Run one pass in a fresh worker.  A worker that fails, overruns its
    limit or prints no result fails every request of its batch."""
    try:
        done = subprocess.run(
            [sys.executable, __file__, "--worker", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_LIMIT * seconds / PASSES, check=True)
        return json.loads(done.stdout.splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"FAILED pass: {type(exc).__name__}: {exc}", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        size = len(workloads.build(workload, seed, seconds / PASSES,
                                   Path(scratch), ROOT))
    return {"latencies": [None] * size, "wall": None, "raw_wall": None,
            "failed": size,
            "attempted": size, "peak_rss_mb": None, "reuse_share": None,
            "layers": None}


def measure(workload, seed, seconds, trace):
    """Run one workload; return (attempted, failed, metrics).  Metrics that
    no request of any pass finished for are left out; the run has failed
    requests then."""
    attempted = failed = 0
    if not trace:
        setup_s, setup_failed = measure_setup(workload,
                                              SETUP_LIMIT * seconds / PASSES)
        attempted, failed = SETUP_REPEATS, setup_failed
    passes = [spawn_worker(workload, seed, seconds, traced)
              for traced in ((False, True) if trace else (False,) * PASSES)]
    attempted += sum(p["attempted"] for p in passes)
    failed += sum(p["failed"] for p in passes)
    # each request's fastest pass; a request some pass never finished is
    # already counted as failed
    latencies = [min(t for t in times if t is not None)
                 for times in zip(*(p["latencies"] for p in passes))
                 if any(t is not None for t in times)]
    finished = [p for p in passes if p["wall"] is not None]
    share = f"{finished[0]['reuse_share']:.3f}" if finished else "unknown"
    tail_note = (f"latency_tail_s is {tail_latency(latencies)[0]} of "
                 f"{len(latencies)} requests" if latencies
                 else "no request finished")
    print(f"workload {workload} seed {seed}: {len(passes[0]['latencies'])} "
          f"requests in {workloads.rounds_for(workload, seconds / PASSES)} "
          f"rounds, reuse share {share}, {tail_note}, "
          "raw pass walls " + ", ".join(
              "failed" if p["wall"] is None
              else f"{p['raw_wall']:.3f} (scaled {p['wall']:.3f})"
              for p in passes))
    if trace:
        plain, traced = passes
        if plain["wall"] is None or traced["wall"] is None:
            return attempted, failed, {}
        layers = dict(traced["layers"],
                      **{"trace.overhead_s": traced["wall"] - plain["wall"]})
        return attempted, failed, {name: metric(value, _unit(name))
                                   for name, value in layers.items()}
    metrics = {}
    if setup_s is not None:
        metrics["setup_s"] = metric(setup_s, "s")
    if finished:
        # the batch time of the fastest pass
        metrics["wall_s"] = metric(min(p["wall"] for p in finished), "s")
    if latencies:
        metrics["latency_p50_s"] = metric(statistics.median(latencies), "s")
        metrics["latency_tail_s"] = metric(tail_latency(latencies)[1], "s")
    if finished:
        metrics["peak_rss_mb"] = metric(
            max(p["peak_rss_mb"] for p in finished), "MB")
    metrics["ok_ratio"] = metric((attempted - failed) / attempted, "ratio")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if cli is None:
        print(f"error: cannot import procong from {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(run_worker(args)))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = measure(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update((prefix + k, v) for k, v in m.items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "_per_request", "_per_indicator")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
