"""Regenerate every fixture file shipped under fixtures/.

Run from the repository root:

    python3 scripts/make_fixtures.py [--out fixtures]

The files are deterministic (sorted keys, fixed indentation), so a rerun
on an unchanged tree is a no-op byte-for-byte.
"""

import argparse
from fractions import Fraction as F
from pathlib import Path

from procong.ntform import (InteriorOrbit, NTDecomposition, ReductionAnnulus,
                            StretchFactor, VertexPiece)
from procong.serialize import (KIND_MAPPING_TORUS, KIND_NT,
                               KIND_ORBIT_PROJECTION, KIND_TORUS, dumps,
                               encode_mapping_torus, encode_nt)
from procong.surfgrp import (GeneratorEndomorphism, SurfacePresentation,
                             mapping_torus)
from procong.torus import Mat2

GOLDEN_RATIO_SQUARED = StretchFactor((1, -3, 1), F(5, 2), F(3))


def swap_decomposition():
    """Two pseudo-Anosov pieces exchanged by the map, joined by a half-twist
    annulus, with one declared size-2 singular orbit."""
    return NTDecomposition(
        pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,),
                        GOLDEN_RATIO_SQUARED,
                        orbits=(InteriorOrbit("o", 2, 4, 0),)),
            VertexPiece("Q", "pseudoAnosov", -1, ("cQ",), (1,),
                        GOLDEN_RATIO_SQUARED, orbits=()),
        ),
        annuli=(ReductionAnnulus("A", F(1, 2), ("cP", "cQ")),),
        piece_map={"P": "Q", "Q": "P", "A": "A"},
        circle_map={"cP": "cQ", "cQ": "cP"},
    )


def five_cases_decomposition():
    """One fixture whose iterates realize all five essential class cases."""
    return NTDecomposition(
        pieces=(
            VertexPiece("P", "pseudoAnosov", -2, ("c1", "c2", "c5", "c6"),
                        (2, 2, 1, 1), GOLDEN_RATIO_SQUARED,
                        orbits=(InteriorOrbit("sing", 1, 3, 1),)),
            VertexPiece("E", "periodic", -1, ("c3",), period=2,
                        orbits=(InteriorOrbit("ell", 1),)),
        ),
        annuli=(
            ReductionAnnulus("A1", F(0), ("c2", "c3")),
            ReductionAnnulus("A2", F(1), ("c5", "c6")),
        ),
        piece_map={"P": "P", "E": "E", "A1": "A1", "A2": "A2"},
        circle_map={c: c for c in ("c1", "c2", "c3", "c5", "c6")},
    )


def star_decomposition():
    """A fixed central pA piece with three periodic satellites cycled by the
    map through three third-twist annuli."""
    pieces = [VertexPiece("C", "pseudoAnosov", -3, ("b1", "b2", "b3"),
                          (1, 1, 1), GOLDEN_RATIO_SQUARED, orbits=())]
    annuli = []
    for i in (1, 2, 3):
        pieces.append(VertexPiece(f"E{i}", "periodic", -1, (f"d{i}",)))
        annuli.append(ReductionAnnulus(f"A{i}", F(1, 3), (f"b{i}", f"d{i}")))
    piece_map = {"C": "C"}
    circle_map = {}
    for i in (1, 2, 3):
        j = i % 3 + 1
        piece_map[f"E{i}"] = f"E{j}"
        piece_map[f"A{i}"] = f"A{j}"
        circle_map[f"b{i}"] = f"b{j}"
        circle_map[f"d{i}"] = f"d{j}"
    return NTDecomposition(tuple(pieces), tuple(annuli), piece_map, circle_map)


def pure_twist_decomposition():
    """No pA part: one periodic piece and a 7/2-twist annulus to the
    ambient boundary."""
    return NTDecomposition(
        pieces=(VertexPiece("E", "periodic", -1, ("e1",)),),
        annuli=(ReductionAnnulus("T", F(7, 2), ("e1", None)),),
        piece_map={"E": "E", "T": "T"},
        circle_map={"e1": "e1"},
    )


def separating_twist_decomposition():
    """The algebraically finite model: two pointwise-fixed pieces joined by
    one full-twist annulus (a separating-curve Dehn twist)."""
    return NTDecomposition(
        pieces=(VertexPiece("E1", "periodic", -1, ("s1",)),
                VertexPiece("E2", "periodic", -1, ("s2",))),
        annuli=(ReductionAnnulus("T", F(1), ("s1", "s2")),),
        piece_map={"E1": "E1", "E2": "E2", "T": "T"},
        circle_map={"s1": "s1", "s2": "s2"},
    )


def genus2_finite_order_bundle():
    """Mapping torus of the order-two genus-2 map swapping the handles."""
    genus2 = SurfacePresentation.closed(2)
    swap = GeneratorEndomorphism(genus2, ((3,), (4,), (1,), (2,)),
                                 ((3,), (4,), (1,), (2,)))
    return mapping_torus(genus2, swap)


def all_fixtures():
    yield "torus_A211.json", KIND_TORUS, {
        "matrix": Mat2.from_rows(((2, 1), (1, 1))).to_string()}
    yield "torus_pair_a.json", KIND_TORUS, {
        "matrix": Mat2.from_rows(((188, 275), (121, 177))).to_string()}
    yield "torus_pair_b.json", KIND_TORUS, {
        "matrix": Mat2.from_rows(((188, 11), (3025, 177))).to_string()}
    yield ("genus2_finite_order.json", KIND_MAPPING_TORUS,
           encode_mapping_torus(genus2_finite_order_bundle()))
    yield "two_pa_swap.json", KIND_NT, encode_nt(swap_decomposition())
    yield "five_cases.json", KIND_NT, encode_nt(five_cases_decomposition())
    yield "star_rotation.json", KIND_NT, encode_nt(star_decomposition())
    yield "pure_twist.json", KIND_NT, encode_nt(pure_twist_decomposition())
    yield ("separating_twist.json", KIND_NT,
           encode_nt(separating_twist_decomposition()))
    yield "orbit_cyclic2.json", KIND_ORBIT_PROJECTION, {
        "group": "cyclic(2)",
        "rows": [["o1", -1, 0], ["o2", -1, 1]],
        "attained": True}
    yield "orbit_s3.json", KIND_ORBIT_PROJECTION, {
        "group": "S3",
        "rows": [["w", 2, 1]],
        "attained": False}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="fixtures",
                        help="output directory (default: fixtures)")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, kind, body in all_fixtures():
        path = out / name
        text = dumps(kind, body)
        if path.exists() and path.read_text(encoding="utf-8") == text:
            print(f"unchanged  {path}")
            continue
        path.write_text(text, encoding="utf-8")
        print(f"wrote      {path}")


if __name__ == "__main__":
    main()
