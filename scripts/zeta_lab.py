"""Compare the zeta, torsion, and Alexander invariants of a fibered fixture.

For each chosen representation the script prints the twisted Lefschetz
zeta function, the first Lefschetz numbers, the four twisted homology
orders, and both torsion routes (determinant ratio vs alternating
Alexander product), checking that they agree.

    python3 scripts/zeta_lab.py fixtures/torus_A211.json --reps trivial sign
"""

import argparse

from procong.cellular import (lefschetz_numbers, torsion_from_cellular,
                              zeta_from_cellular)
from procong.cli import RunConfig, _fibered_input
from procong.kernel import render_scalar
from procong.surfgrp import twisted_alexander, twisted_torsion


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fixture", nargs="?",
                        default="fixtures/torus_A211.json")
    parser.add_argument("--reps", nargs="+", default=["trivial", "sign"],
                        help="representations: trivial, sign, zeta:n[:k]")
    parser.add_argument("--terms", type=int, default=8,
                        help="Lefschetz numbers per representation")
    args = parser.parse_args()

    bundle = _fibered_input(RunConfig("zeta", (args.fixture,)))
    mt, surface, flow = bundle.mt, bundle.surface, bundle.flow
    print(f"fixture: {args.fixture}")
    print(f"fiber generators: {mt.fiber.rank}; relators: {len(mt.relators)}")

    for label in args.reps:
        # rank-1, so defined on mt and on the model's presentation alike
        rep = bundle.rep(mt, label)
        cellular_rep = bundle.rep(surface.presentation, label)
        print(f"\n== rep {label} ==")
        zeta = zeta_from_cellular(surface, flow, cellular_rep)
        print(f"zeta = {zeta.pretty()}")
        values = lefschetz_numbers(surface, flow, cellular_rep, args.terms)
        print("L_m  = " + ", ".join(render_scalar(v) for v in values))
        for n in range(4):
            print(f"Delta_{n} = {twisted_alexander(mt, rep, n).pretty()}")
        cellular = torsion_from_cellular(surface, flow, cellular_rep)
        alexander_route = twisted_torsion(mt, rep)
        print(f"torsion (determinant ratio) = {cellular.value.pretty()}"
              f"  [acyclic: {cellular.acyclic}]")
        print(f"torsion (alexander product) = {alexander_route.pretty()}")
        verdict = "AGREE" if cellular.homological == alexander_route else "DISAGREE"
        print(f"routes {verdict}")
        if verdict == "DISAGREE":
            raise SystemExit(1)


if __name__ == "__main__":
    main()
