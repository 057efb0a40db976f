"""Count the lines of `src/procong` that no subcommand or workload reaches.

Before profiling, the script writes one fixture into a temporary
directory: the mapping torus of 2,1;1,1 on the once-punctured torus as a
`mapping_torus` fixture.  Under `sys.setprofile` it then runs every
subcommand on inputs that cover its branches: the four fibered
subcommands on every shipped fixture and on the written one under the
representations trivial, sign, zeta:5 and zeta:8:2, `nt analyze`
with and without `--approx`, `chars decompose` and `chars bound` under
every built-in group, `torus conj`, `congr` and `sweep` on hyperbolic,
elliptic, parabolic and central pairs and on a pair of different traces,
`torus klevel` up to a bound past the printing cap, `nt shear`, and `zeta`
on a bare fixture name; each in text and in `--json` form.  It then
answers one seed-1 batch of each benchmark workload
(`perfbench/workloads.py`) through the benchmark's own `run.execute`.

It prints, per module, its unreached lines, its line count and how many
of the unreached lines the benchmark pins, then every function whose
body was never entered with that body's line count; last the total and
the line count of `src/procong/*.py`.  Line counts are as `wc -l` counts
them.  A line is counted once: a function nested in an unreached
function adds nothing.

A function is marked "(pinned by perfbench)" when the benchmark would
break without it: `perfbench/tracer.py` lists it in `TARGETS`, or
`perfbench/oracles.py` or `perfbench/run.py` names it.  A method counts
as named when the script names its class and either reads the method off
that class, reads an attribute of its name off anything else (an
instance), or the method is `__init__`.  The other
unreached functions are free to delete without touching the benchmark.

    PYTHONPATH=src python3 scripts/reach.py
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "procong"
FIXTURES = ROOT / "fixtures"
PERFBENCH = ROOT / "perfbench"

FIBERED = ("alexander", "torsion", "zeta", "lefschetz")
REPS = ("trivial", "sign", "zeta:5", "zeta:8:2")
GROUPS = ("cyclic(1)", "cyclic(2)", "cyclic(6)", "cyclic(60)", "S3", "D4",
          "Q8")
# (matrix A, matrix B): hyperbolic, elliptic, parabolic and central pairs,
# then a pair of traces 3 and 2, which no level n >= 2 conjugates
TORUS_PAIRS = (
    ("188,275;121,177", "188,11;3025,177"),
    ("2,1;1,1", "1,1;1,2"),
    ("0,-1;1,0", "0,1;-1,0"),
    ("0,-1;1,1", "1,-1;1,0"),
    ("-1,1;-1,0", "0,1;-1,-1"),
    ("1,2;0,1", "1,0;-2,1"),
    ("1,3;0,1", "1,-3;0,1"),
    ("-1,4;0,-1", "-1,0;4,-1"),
    ("1,0;0,1", "1,0;0,1"),
    ("-1,0;0,-1", "-1,0;0,-1"),
    ("2,1;1,1", "1,1;0,1"),
)
SWEEP_MAX = "60"
# a prime, and the product of the primes 1000003 and 1000033, which trial
# division leaves to Pollard's rho
CONGR_MODULI = ("12", "1000000007", "1000036000099")
# the last bound's level has too many digits to print
KLEVEL_BOUNDS = ("1", "10", "60", "3000", "10000")
SLOPES = (("1,2", "3,4"), ("2,4", "-1,-2"))
WORKLOADS = ("fibered_long", "fibered_wide", "queries")


def write_fixtures(directory: Path):
    """Write a `mapping_torus` fixture with a bounded fiber into
    `directory`; return the list of its path."""
    from procong.serialize import (KIND_MAPPING_TORUS, encode_mapping_torus,
                                   save_fixture)
    from procong.surfgrp import (GeneratorEndomorphism, SurfacePresentation,
                                 mapping_torus)
    from procong.torus import Mat2
    free = SurfacePresentation.with_boundary(1, 1)
    knot = GeneratorEndomorphism.torus_monodromy(Mat2(2, 1, 1, 1))
    bounded = directory / "bounded_211.json"
    save_fixture(bounded, KIND_MAPPING_TORUS, encode_mapping_torus(
        mapping_torus(free, GeneratorEndomorphism(free, knot.images,
                                                  knot.inverse_images))))
    return [bounded]


def cli_runs(written=()):
    """Every argument vector the script passes to `procong.cli.main`:
    (subcommand and options, positional arguments), each in text and in
    `--json` form; the fibered subcommands also run on the `written`
    fixture paths."""
    runs = []
    for path in written:
        runs += [([sub, "--rep", rep], [str(path)])
                 for sub in FIBERED for rep in REPS]
    for path in sorted(FIXTURES.glob("*.json")):
        fixture = [str(path)]
        for sub in FIBERED:
            runs += [([sub, "--rep", rep], fixture) for rep in REPS]
        runs += [(["nt", "analyze"], fixture),
                 (["nt", "analyze", "--approx"], fixture)]
        runs += [(["chars", sub], fixture) for sub in ("decompose", "bound")]
        if path.name.startswith("orbit_"):
            runs += [(["chars", sub, "--group", group], fixture)
                     for sub in ("decompose", "bound") for group in GROUPS]
    for pair in TORUS_PAIRS:
        runs += [(["torus", "conj"], pair),
                 (["torus", "sweep", "--max", SWEEP_MAX], pair)]
        runs += [(["torus", "congr"], (*pair, n)) for n in CONGR_MODULI]
    runs += [(["torus", "klevel"], (n,)) for n in KLEVEL_BOUNDS]
    runs += [(["nt", "shear"], pair) for pair in SLOPES]
    # a bare file name is looked up under the fixture root
    runs.append((["zeta"], ("torus_A211.json",)))
    return [[*words, *form, *positionals]
            for words, positionals in runs for form in ([], ["--json"])]


def run_everything(written):
    from procong import cli
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in cli_runs(written):
            cli.main(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    import workloads
    with tempfile.TemporaryDirectory() as scratch:
        for name in WORKLOADS:
            for request in workloads.build(name, 1, 1.0, Path(scratch), ROOT):
                with contextlib.redirect_stderr(sink):
                    run.execute(request)


def functions(tree):
    """(qualified name, first line of its code object, body lines) of every
    function and method in a module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                body = range(child.body[0].lineno, child.end_lineno + 1)
                out.append((prefix + child.name, first, body))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def bench_pins(classes):
    """A test `pinned(module, name)` of whether the benchmark pins the
    function `name` (qualified as `functions` qualifies it) of `module`;
    `classes` are the class names of the package."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    targets = {(module, path) for node in tracer.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "TARGETS"
                       for t in node.targets)
               for module, path, _ in ast.literal_eval(node.value)}
    names, on_class, on_instance = set(), set(), set()
    for script in ("oracles.py", "run.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                owner = getattr(node.value, "id",
                                getattr(node.value, "attr", None))
                if owner in classes:
                    on_class.add((owner, node.attr))
                else:
                    on_instance.add(node.attr)

    def pinned(module, name):
        if (module, name) in targets:
            return True
        outer, *inner = name.split(".")
        if outer not in classes or not inner:
            return outer in names
        return outer in names and (
            (outer, inner[0]) in on_class or inner[0] in on_instance
            or inner[0] == "__init__")

    return pinned


def main():
    sys.path.insert(0, str(ROOT / "src"))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as directory:
        written = write_fixtures(Path(directory))
        # the profiled run imports the package afresh, so the calls made
        # at import time count as they did without the written fixtures
        for name in [n for n in sys.modules if n.split(".")[0] == "procong"]:
            del sys.modules[name]
        sys.setprofile(profile)
        try:
            run_everything(written)
        finally:
            sys.setprofile(None)

    entered = {(str(Path(f).resolve()), line) for f, line in entered}
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    trees = {path: ast.parse(source) for path, source in sources.items()}
    pinned = bench_pins({node.name for tree in trees.values()
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ClassDef)})
    total = size = 0
    for path, source in sources.items():
        lines_in_module = source.count("\n")
        size += lines_in_module
        filename = str(path.resolve())
        lines, missed, held = set(), [], 0
        for name, first, body in functions(trees[path]):
            if (filename, first) not in entered:
                new = set(body) - lines
                lines |= set(body)
                pin = pinned(path.stem, name)
                held += len(new) if pin else 0
                missed.append((name, len(new), pin))
        print(f"{path.stem}: {len(lines)} unreached lines of "
              f"{lines_in_module}, {held} pinned by perfbench")
        for name, count, pin in missed:
            print(f"    {name} ({count})"
                  + (" (pinned by perfbench)" if pin else ""))
        total += len(lines)
    print(f"total: {total} unreached lines of function bodies in src/procong, "
          f"which has {size:,} lines")


if __name__ == "__main__":
    main()
