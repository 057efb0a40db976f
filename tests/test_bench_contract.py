"""The benchmark's span tracer (``perfbench/tracer.py``) wraps procong names
by module and attribute path.  Installing it here makes a deleted or renamed
traced name fail the test suite, not only a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

# every module the tracer patches; `cli` imports most of them only on use
import procong.cellular  # noqa: F401
import procong.chars  # noqa: F401
import procong.cli  # noqa: F401
import procong.kernel  # noqa: F401
import procong.ntform  # noqa: F401
import procong.serialize  # noqa: F401
import procong.surfgrp  # noqa: F401
import procong.torus  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(module_name, path):
    module = sys.modules[f"procong.{module_name}"]
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(module, cls_name).__dict__[attr]
    return getattr(module, path)


def test_tracer_installs_and_uninstalls_every_target():
    tracer = _load_tracer()
    before = {(m, p): _current(m, p) for m, p, _ in tracer.TARGETS}
    bench = tracer.Tracer()
    try:
        bench.install()
    finally:
        bench.uninstall()
    for (module_name, path), original in before.items():
        assert _current(module_name, path) is original, \
            f"{module_name}.{path} was not restored"
