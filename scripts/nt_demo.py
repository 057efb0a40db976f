"""Tour of the normal-form invariants across the shipped decompositions.

For every decomposition fixture the script prints the split order,
dilatation, deviation, and the indexed orbit table; it then runs the
growth-estimate certification on the Anosov orbit table, confirming that
max(1, N_m)^(1/m) approaches the stretch factor.

    python3 scripts/nt_demo.py --upto 8
"""

import argparse
import warnings
from fractions import Fraction
from pathlib import Path

from procong.ntform import (Dilatation, StretchFactor,
                            certify_growth_estimate, deviation, dilatation,
                            dilatation_from_nielsen, indexed_orbit_numbers,
                            split_order)
from procong.serialize import (KIND_NT, KIND_ORBIT_TABLE,
                               default_fixture_root, load_fixture)

GOLDEN_RATIO_SQUARED = StretchFactor((1, -3, 1), Fraction(5, 2), 3)


def show_decomposition(path, upto):
    nt = load_fixture(path).payload
    print(f"\n== {path.name} ==")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dil = dilatation(nt)
        dev = deviation(nt)
    print(f"split order {split_order(nt)}, dilatation ~ {dil.approx(12)}, "
          f"deviation {dev}")
    table = indexed_orbit_numbers(nt, upto)
    for row in table.rows:
        counts = " ".join(f"{i}:{c}" for i, c in row.counts) or "-"
        print(f"  m={row.iterate:2d}  N={row.nielsen:3d}  {counts}")
    if table.remainder:
        print(f"  (regular-orbit remainder: {', '.join(table.remainder)})")


def certify_anosov(root):
    print("\n== growth certification on the Anosov orbit table ==")
    table = load_fixture(root / "anosov_orbit_table.json").payload
    brackets = dilatation_from_nielsen(table)
    target = Dilatation(GOLDEN_RATIO_SQUARED, 1)
    final = brackets[-1]
    certify_growth_estimate(final, target, relative=Fraction(1, 100))
    print(f"m={final.iterate}: N_m={final.nielsen}, bracket "
          f"[{float(final.low):.6f}, {float(final.high):.6f}] certified "
          "within 1% of the stretch factor (3+sqrt(5))/2")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--upto", type=int, default=6,
                        help="largest iterate per fixture (default 6)")
    parser.add_argument("--root", default=None,
                        help="fixture directory (default: shipped fixtures)")
    args = parser.parse_args()
    root = Path(args.root) if args.root else default_fixture_root()

    for path in sorted(root.glob("*.json")):
        fixture = load_fixture(path)
        if fixture.kind == KIND_NT:
            show_decomposition(path, args.upto)
        elif fixture.kind == KIND_ORBIT_TABLE:
            pass  # handled below
    certify_anosov(root)


if __name__ == "__main__":
    main()
