"""Stage times of the fibered invariants under large affine representations.

For each n given, the script builds affine:n, the permutation
representation of a fibered group on the points of (Z/n)^(2g): the fiber
generators translate by the unit vectors and the stable letter acts by the
monodromy's matrix on H1 of the fiber.  On `torus_A211` (degree n^2) and
`genus2_finite_order` (degree n^4) it prints the in-process seconds of each
stage, in this order, each reading what the earlier ones built:
certification of the representation (the closure enumeration, which lists
the generated group and in it the inverse of each generator image, then
the relator kills), printed with the order of the group it certified,
Delta_0..Delta_3 and the cellular zeta function.

    PYTHONPATH=src python3 scripts/large_rep_timings.py 2 3
"""

import argparse
import itertools
from time import perf_counter

from procong.cellular import zeta_from_cellular
from procong.cli import RunConfig, _fibered_input
from procong.surfgrp import FiniteRepresentation, twisted_alexander

FIXTURES = ("fixtures/torus_A211.json", "fixtures/genus2_finite_order.json")


def affine_rep(mt, n: int) -> FiniteRepresentation:
    """affine:n on the canonical presentation `mt` of a closed-fiber
    mapping torus, as transposed permutation matrices (the convention in
    which the relators die)."""
    rank = mt.fiber.rank
    action = mt.monodromy.abelianization()
    points = list(itertools.product(range(n), repeat=rank))
    index = {p: i for i, p in enumerate(points)}

    def perm(f):
        rows = [[0] * len(points) for _ in points]
        for p in points:
            rows[index[f(p)]][index[p]] = 1
        return rows

    def translate(k):
        return perm(lambda p: tuple((x + (i == k)) % n
                                    for i, x in enumerate(p)))

    def monodromy(p):
        return tuple(sum(a * x for a, x in zip(row, p)) % n for row in action)

    return FiniteRepresentation(len(points), tuple(
        perm(monodromy) if j == mt.stable_index else translate(j - 1)
        for j in range(1, mt.rank + 1)))


def timed(stage):
    start = perf_counter()
    stage()
    return perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", nargs="*", type=int, default=[2],
                        help="moduli of the affine representations")
    args = parser.parse_args()

    for path in FIXTURES:
        bundle, _ = _fibered_input(RunConfig("zeta", (path,)))
        surface, flow = bundle.surface, bundle.flow
        mt = surface.presentation
        for n in args.n:
            rep = affine_rep(mt, n)
            stages = [("certify", lambda: rep.validate(mt))]
            stages += [(f"Delta_{d}", lambda d=d: twisted_alexander(mt, rep, d))
                       for d in range(4)]
            stages.append(
                ("zeta", lambda: zeta_from_cellular(surface, flow, rep)))
            times = [f"{name} {timed(stage):.3f} s" for name, stage in stages]
            times[0] += f" (group order {rep._listing[1]})"
            print(f"{path.split('/')[-1][:-5]} affine:{n} "
                  f"(degree {rep.dimension}): {', '.join(times)}")
    print("all stages finished")


if __name__ == "__main__":
    main()
