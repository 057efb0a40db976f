"""Regenerate ``pool.json``, the frozen matrix pool the fibered workloads
draw from.

The pool lists hyperbolic matrices of SL(2,Z) with entries of absolute
value at most ``BOUND``, each as ``[letters, inverse_letters, matrix]``:
the total relator length of the genus-1 mapping torus presentation, and the
total length of the inverse generator images, which the cellular model
reads.  The lengths are those of the library at the commit that added the
benchmark; the workloads choose matrices from length bands of this file, so
that the inputs of a seed never depend on the code under test.  Do not
regenerate it when the monodromy construction changes: that would change
the workloads.

    PYTHONPATH=src python3 perfbench/make_pool.py
"""

import json
import signal
from pathlib import Path

from procong.surfgrp import (GeneratorEndomorphism, SurfacePresentation,
                             mapping_torus)
from procong.torus import Mat2

BOUND = 20
OUT = Path(__file__).with_name("pool.json")
SHORT_BAND = (15, 30)
LONG_BAND = (60, 250)
# matrices whose monodromy takes longer than this to build are skipped
BUILD_LIMIT_S = 0.5


class _Slow(Exception):
    pass


def _alarm(*_):
    raise _Slow()


def word_lengths(matrix: Mat2):
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, BUILD_LIMIT_S)
    try:
        phi = GeneratorEndomorphism.torus_monodromy(matrix)
        mt = mapping_torus(SurfacePresentation.closed(1), phi)
    except _Slow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return (sum(len(r) for r in mt.relators),
            sum(len(w) for w in phi.inverse_images))


def main():
    short, long_ = [], []
    for a in range(-BOUND, BOUND + 1):
        for b in range(-BOUND, BOUND + 1):
            for c in range(-BOUND, BOUND + 1):
                if a == 0 or b == 0 or (1 + b * c) % a:
                    continue
                d = (1 + b * c) // a
                if abs(d) > BOUND or abs(a + d) <= 2:
                    continue
                matrix = Mat2(a, b, c, d)
                lengths = word_lengths(matrix)
                if lengths is None:
                    continue
                letters = lengths[0]
                entry = [*lengths, matrix.to_string()]
                if SHORT_BAND[0] <= letters <= SHORT_BAND[1]:
                    short.append(entry)
                elif LONG_BAND[0] <= letters <= LONG_BAND[1]:
                    long_.append(entry)
    with open(OUT, "w", encoding="utf-8") as handle:
        handle.write(f'{{\n "bound": {BOUND},\n')
        for key, entries in (("short", short), ("long", long_)):
            rows = ",\n".join(" " + json.dumps(e) for e in sorted(entries))
            handle.write(f' "{key}": [\n{rows}\n ]')
            handle.write(",\n" if key == "short" else "\n}\n")
    print(f"short: {len(short)}, long: {len(long_)}")


if __name__ == "__main__":
    main()
