"""Sweep congruence levels for the classical non-conjugate pair.

The pair A = [[188, 275], [121, 177]], B = [[188, 11], [3025, 177]] is not
conjugate in SL(2,Z) but becomes conjugate in GL(2, Z/n) for every level n.
This script verifies both claims exactly up to a chosen bound.

    python3 scripts/pair_sweep.py --max 1000
"""

import argparse
import time

from procong.torus import Mat2, congruence_sweep

PAIR_A = "188,275;121,177"
PAIR_B = "188,11;3025,177"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=1000,
                        help="largest modulus to test (default 1000)")
    parser.add_argument("--pair", nargs=2, metavar=("A", "B"),
                        default=(PAIR_A, PAIR_B),
                        help="override the matrix pair ('a,b;c,d' forms)")
    args = parser.parse_args()

    a = Mat2.from_string(args.pair[0])
    b = Mat2.from_string(args.pair[1])
    start = time.perf_counter()
    report = congruence_sweep(a, b, args.max)
    elapsed = time.perf_counter() - start
    print(report.render_text())
    print(f"elapsed: {elapsed:.2f} s")


if __name__ == "__main__":
    main()
