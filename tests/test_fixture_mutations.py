"""Deterministic mutation sweep over the shipped fixtures: every malformed
input exits 0 or 2, never 1 and never with a traceback, and an exit-2
message names the field instead of repeating Python's own type error.

Each fixture that a subcommand reads is mutated at every key and at the
first three entries of every list, at any depth, of the whole file: the
envelope's `schema`, `kind` and `body` and everything in the body.  The
entry is dropped, or replaced by each of 5, "x", [], {}, null and 1.5.  The maps
of a decomposition are also mutated by swapping the targets of two keys.
Each mutant runs through `main` in-process."""

import contextlib
import copy
import io
import itertools
import json
from pathlib import Path

import pytest

from procong.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the subcommand that reads each fixture kind
SUBCOMMANDS = {
    "torus_monodromy": ["alexander"],
    "mapping_torus": ["alexander"],
    "nt_decomposition": ["nt", "analyze"],
    "orbit_projection": ["chars", "decompose"],
}

DROP = object()
REPLACEMENTS = (DROP, 5, "x", [], {}, None, 1.5)
LIST_ENTRIES = 3
# Python's wording when a decoder indexes, iterates or measures an
# unchecked value
NAMELESS = ("object is not iterable", "object is not subscriptable",
            "values to unpack", "has no len()")


def _kind(path: Path) -> str:
    return json.loads(path.read_text())["kind"]


SOURCES = sorted(p.name for p in FIXTURES.glob("*.json")
                 if _kind(p) in SUBCOMMANDS)


def locations(node, path=()):
    """Every key of every object, and the first entries of every list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:LIST_ENTRIES])
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from locations(child, path + (key,))


def mutated(body, path, value):
    body = copy.deepcopy(body)
    owner = body
    for step in path[:-1]:
        owner = owner[step]
    if value is DROP:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    return body


def run_main(argv):
    """(exit status, or the exception `main` raised; stderr) of one run."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        try:
            status = main(argv)
        except Exception as exc:  # noqa: BLE001  (reported by the caller)
            status = f"{type(exc).__name__}: {exc}"
    return status, stderr.getvalue()


def test_every_subcommand_reading_a_fixture_is_covered():
    assert {_kind(FIXTURES / name) for name in SOURCES} == set(SUBCOMMANDS)


def sweep_faults(data, argv, target: Path):
    """Each mutant of `data`, written to `target` and run under `argv`, that
    exits other than 0 or 2 or prints a traceback or a nameless message."""
    faults = []
    for path in locations(data):
        for value in REPLACEMENTS:
            target.write_text(json.dumps(mutated(data, path, value)))
            status, message = run_main([*argv, str(target)])
            if status not in (0, 2) or "Traceback" in message or any(
                    phrase in message for phrase in NAMELESS):
                change = "drop" if value is DROP else json.dumps(value)
                faults.append(f"{list(path)} {change}: {status} "
                              f"{message.strip()}")
    return faults


@pytest.mark.parametrize("source", SOURCES)
def test_mutated_fixture_exits_zero_or_two(tmp_path, source):
    data = json.loads((FIXTURES / source).read_text())
    faults = sweep_faults(data, SUBCOMMANDS[data["kind"]], tmp_path / source)
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("source", [name for name in SOURCES if _kind(
    FIXTURES / name) == "nt_decomposition"])
def test_transposed_map_targets_exit_zero_or_two(tmp_path, source):
    # each map stays a permutation, so no mutant misses a key
    data = json.loads((FIXTURES / source).read_text())
    target = tmp_path / source
    faults = []
    for field in ("piece_map", "circle_map"):
        mapping = data["body"][field]
        for a, b in itertools.combinations(sorted(mapping), 2):
            mutant = copy.deepcopy(data)
            swapped = mutant["body"][field]
            swapped[a], swapped[b] = mapping[b], mapping[a]
            target.write_text(json.dumps(mutant))
            status, message = run_main(["nt", "analyze", str(target)])
            if status not in (0, 2) or "missing key" in message:
                faults.append(f"{field} {a} <-> {b}: {status} "
                              f"{message.strip()}")
    assert not faults, "\n".join(faults)


# the word lists of a mapping_torus body: (path to the list, its name in
# an error, the key of the generators its letters index)
WORD_LISTS = [
    (("relators",), "relators", ("generators",)),
    (("fiber", "relators"), "fiber relators", ("fiber", "generators")),
    (("monodromy", "images"), "images", ("fiber", "generators")),
    (("monodromy", "inverse_images"), "inverse_images",
     ("fiber", "generators")),
]


def _at(body, path):
    for step in path:
        body = body[step]
    return body


@pytest.mark.parametrize("source", [name for name in SOURCES if _kind(
    FIXTURES / name) == "mapping_torus"])
def test_out_of_range_letter_names_its_word(tmp_path, source):
    # letters 0, rank + 1 and -(rank + 1) appended to every word
    data = json.loads((FIXTURES / source).read_text())
    target = tmp_path / source
    faults = []
    for path, name, generators in WORD_LISTS:
        rank = len(_at(data["body"], generators))
        for i in range(len(_at(data["body"], path))):
            for letter in (0, rank + 1, -(rank + 1)):
                mutant = copy.deepcopy(data)
                _at(mutant["body"], path)[i].append(letter)
                target.write_text(json.dumps(mutant))
                status, message = run_main(["alexander", str(target)])
                reason = (f"letter {letter} exceeds generator count {rank}"
                          if letter else
                          "generator indices are signed and nonzero")
                want = f"error: {name}[{i}]: {reason}\n"
                if (status, message) != (2, want):
                    faults.append(f"{name}[{i}] + {letter}: {status} "
                                  f"{message.strip()}")
    assert not faults, "\n".join(faults)
