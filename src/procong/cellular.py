"""Cellular models of fibered 3-complexes: flow matrices, zeta, torsion.

A fiber surface is modeled by a cell structure whose incidence data is
decorated with group words read in an ambient fibered presentation (module
`surfgrp`): boundary decorations have degree 0, flow-return decorations have
degree 1 under the distinguished degree class.  Applying a finite matrix
representation entrywise turns the decorated data into exact matrices; the
twisted zeta function and the cellular torsion expression are determinant
ratios of those matrices.

Matrix conventions: decorated maps are realized on row-vector coefficient
blocks, so every assembled matrix here stores transposed k-blocks; the
exported flow matrices ``rho_*(F_n)`` are block matrices with one k-block per
(target, source) cell pair, and all determinant-based quantities are
independent of that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .kernel import (
    LaurentPolynomial,
    NormalizedTorsionClass,
    PolyMatrix,
    RationalFunction,
    log_coefficients,
    normalize_unit_class,
)
from .surfgrp import (
    FiniteRepresentation,
    MappingTorusPresentation,
    Word,
    _boundary_one,
    _boundary_two,
    _mat_identity,
    _mat_mul,
    fox_derivative,
    free_reduce,
    group_ring_image,
    mapping_torus,
    twisted_alexander,
)

# A decorated chain: (target cell index, integer coefficient, group word).
Chain = Tuple[Tuple[int, int, Word], ...]


def _freeze_chain(chain, n_targets: int, n_letters: int) -> Chain:
    out = []
    for target, coeff, word in chain:
        target = int(target)
        coeff = int(coeff)
        if not 0 <= target < n_targets:
            raise ValueError(f"chain target {target} out of range")
        w = free_reduce(word)
        for letter in w:
            if abs(letter) > n_letters:
                raise ValueError(f"decoration letter {letter} out of range")
        out.append((target, coeff, w))
    return tuple(out)


@dataclass(frozen=True)
class CellularSurface:
    """Cell structure of the fiber with decorated incidence data.

    `boundary_one[j]` is the decorated chain of 0-cells bounding 1-cell j;
    `boundary_two[j]` the chain of 1-cells bounding 2-cell j.  Decorations
    are words over the generators of the ambient fibered presentation and
    must have degree 0.
    """

    presentation: MappingTorusPresentation
    cell_names: Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]
    boundary_one: Tuple[Chain, ...]
    boundary_two: Tuple[Chain, ...]

    def __post_init__(self):
        r0, r1, r2 = (len(names) for names in self.cell_names)
        for names in self.cell_names:
            if len(set(names)) != len(names):
                raise ValueError("cell names must be distinct per dimension")
        if len(self.boundary_one) != r1 or len(self.boundary_two) != r2:
            raise ValueError("need one boundary chain per positive-dim cell")
        letters = self.presentation.rank
        object.__setattr__(
            self, "boundary_one",
            tuple(_freeze_chain(c, r0, letters) for c in self.boundary_one))
        object.__setattr__(
            self, "boundary_two",
            tuple(_freeze_chain(c, r1, letters) for c in self.boundary_two))
        for chain in self.boundary_one + self.boundary_two:
            for _, _, word in chain:
                if self.presentation.degree(word) != 0:
                    raise ValueError("boundary decorations must have degree 0")

    @property
    def cell_counts(self) -> Tuple[int, int, int]:
        return tuple(len(names) for names in self.cell_names)

    @property
    def euler_characteristic(self) -> int:
        r0, r1, r2 = self.cell_counts
        return r0 - r1 + r2

    def to_json(self):
        return {
            "cells": [list(names) for names in self.cell_names],
            "boundary_one": [[[t, c, list(w)] for t, c, w in chain]
                             for chain in self.boundary_one],
            "boundary_two": [[[t, c, list(w)] for t, c, w in chain]
                             for chain in self.boundary_two],
            "presentation": self.presentation.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "CellularSurface":
        mt = MappingTorusPresentation.from_json(data["presentation"])
        names = tuple(tuple(n) for n in data["cells"])
        return cls(
            mt, names,
            tuple(tuple((t, c, tuple(w)) for t, c, w in chain)
                  for chain in data["boundary_one"]),
            tuple(tuple((t, c, tuple(w)) for t, c, w in chain)
                  for chain in data["boundary_two"]))


@dataclass(frozen=True)
class CellularSelfMap:
    """Flow-return images of the fiber cells.

    `images[n][j]` is the decorated chain (over dimension-n cells) covered by
    the flow of the j-th n-cell; every decoration must have degree 1.
    """

    surface: CellularSurface
    images: Tuple[Tuple[Chain, ...], Tuple[Chain, ...], Tuple[Chain, ...]]

    def __post_init__(self):
        counts = self.surface.cell_counts
        letters = self.surface.presentation.rank
        frozen = []
        for n in range(3):
            if len(self.images[n]) != counts[n]:
                raise ValueError("need one image chain per cell")
            frozen.append(tuple(_freeze_chain(c, counts[n], letters)
                                for c in self.images[n]))
        object.__setattr__(self, "images", tuple(frozen))
        for dim_images in self.images:
            for chain in dim_images:
                for _, _, word in chain:
                    if self.surface.presentation.degree(word) != 1:
                        raise ValueError(
                            "flow decorations must have degree 1")

    def to_json(self):
        return {"images": [[[[t, c, list(w)] for t, c, w in chain]
                           for chain in dim] for dim in self.images]}

    @classmethod
    def from_json(cls, surface: CellularSurface, data) -> "CellularSelfMap":
        return cls(surface, tuple(
            tuple(tuple((t, c, tuple(w)) for t, c, w in chain)
                  for chain in dim)
            for dim in data["images"]))


@dataclass(frozen=True)
class HomologyAction:
    """Induced integer matrices on fiber homology in degrees 0, 1, 2."""

    h0: Tuple[Tuple[int, ...], ...]
    h1: Tuple[Tuple[int, ...], ...]
    h2: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "h0",
                           tuple(tuple(int(e) for e in row) for row in self.h0))
        object.__setattr__(self, "h1",
                           tuple(tuple(int(e) for e in row) for row in self.h1))
        object.__setattr__(self, "h2",
                           tuple(tuple(int(e) for e in row) for row in self.h2))
        if self.h0 != ((1,),):
            raise ValueError("degree-0 action must be [1]")
        if self.h2 not in (((1,),), ((-1,),)):
            raise ValueError("degree-2 action must be [1] or [-1]")
        n = len(self.h1)
        if any(len(row) != n for row in self.h1):
            raise ValueError("degree-1 action must be square")

    @classmethod
    def from_monodromy_matrix(cls, rows) -> "HomologyAction":
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        det = _int_det(rows)
        if det not in (1, -1):
            raise ValueError("monodromy action must be unimodular")
        return cls(((1,),), rows, ((det,),))


def _int_det(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in rows[1:])
        term = rows[0][j] * _int_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def classical_lefschetz(action: HomologyAction, m: int) -> int:
    """Alternating trace sum of the m-th iterate on fiber homology."""
    if m < 1:
        raise ValueError("iterate count must be at least 1")
    total = 0
    for sign, mat in ((1, action.h0), (-1, action.h1), (1, action.h2)):
        power = _mat_identity(len(mat))
        for _ in range(m):
            power = _mat_mul(power, mat)
        total += sign * sum(power[i][i] for i in range(len(power)))
    return total


# ---------------------------------------------------------------------------
# assembling decorated data into exact matrices
# ---------------------------------------------------------------------------

def _chain_matrix(mt: MappingTorusPresentation, rep: FiniteRepresentation,
                  chains: Sequence[Chain], n_targets: int,
                  strip_degree: int = 0) -> PolyMatrix:
    """Block matrix of decorated chains: block (target, source) collects the
    images of the decorations, each divided by t^strip_degree; blocks are
    transposed for the row-vector convention."""
    k = rep.dimension
    columns = []
    for chain in chains:
        per_target: Dict[int, List[Tuple[int, Word]]] = {}
        for target, coeff, word in chain:
            per_target.setdefault(target, []).append((coeff, word))
        blocks = []
        for target in range(n_targets):
            combo = per_target.get(target, [])
            block = group_ring_image(mt, rep, combo).grid_transpose()
            if strip_degree:
                block = block.scale(LaurentPolynomial.t_power(-strip_degree))
            blocks.append(block)
        column = PolyMatrix.zero(0, k)
        for b in blocks:
            column = column.vstack(b)
        columns.append(column)
    out = PolyMatrix.zero(k * n_targets, 0)
    for c in columns:
        out = out.hstack(c)
    return out


def flow_boundary_matrices(surface: CellularSurface, flow: CellularSelfMap,
                           rep: FiniteRepresentation):
    """Exact matrices (rho_*(F_0), rho_*(F_1), rho_*(F_2)) of the flow-return
    map, after checking the decorated chain and grading conditions.

    The degree-1 decorations contribute one uniform power of t, which is
    stripped: the returned matrices are constant.  Raises ValueError when the
    flow chains fail to commute with the decorated boundaries.
    """
    if flow.surface != surface:
        raise ValueError("flow map does not live on the given surface")
    mt = surface.presentation
    rep.validate(mt)
    r0, r1, r2 = surface.cell_counts

    d1 = _chain_matrix(mt, rep, surface.boundary_one, r0)
    d2 = _chain_matrix(mt, rep, surface.boundary_two, r1)
    if d1.cols and d2.cols and not (d1 @ d2).is_zero():
        raise ValueError("decorated boundaries do not compose to zero")

    f_mats = [_chain_matrix(mt, rep, flow.images[n], (r0, r1, r2)[n],
                            strip_degree=1)
              for n in range(3)]
    # chain-map condition, with the degree-1 twist restored on both sides
    t_unit = LaurentPolynomial.t_power(1)
    if (d1 @ f_mats[1].scale(t_unit)) != (f_mats[0].scale(t_unit) @ d1):
        raise ValueError("flow chains do not commute with the boundary "
                         "in degree 1")
    if (d2 @ f_mats[2].scale(t_unit)) != (f_mats[1].scale(t_unit) @ d2):
        raise ValueError("flow chains do not commute with the boundary "
                         "in degree 2")
    return tuple(f_mats)


def _det_one_minus_t(mat: PolyMatrix) -> LaurentPolynomial:
    n = mat.rows
    shifted = PolyMatrix.identity(n) - mat.scale(LaurentPolynomial.t_power(1))
    return shifted.determinant()


def zeta_from_cellular(surface: CellularSurface, flow: CellularSelfMap,
                       rep: FiniteRepresentation) -> RationalFunction:
    """Twisted zeta function det(1 - t F_1) / (det(1 - t F_0) det(1 - t F_2))
    of the flow-return map; always has constant term exactly 1."""
    f0, f1, f2 = flow_boundary_matrices(surface, flow, rep)
    numerator = _det_one_minus_t(f1)
    denominator = _det_one_minus_t(f0) * _det_one_minus_t(f2)
    zeta = RationalFunction(numerator, denominator)
    series0 = zeta.series(1)[0]
    if series0 != 1:
        raise AssertionError("zeta lost its constant term 1")
    return zeta


@dataclass(frozen=True)
class CellularTorsion:
    """Result of the cellular torsion expression.

    `value` is the normalized class of the determinant-ratio formula;
    `acyclic` records whether every twisted homology order is nonzero on the
    matched presentation.  The homological torsion is `value` when acyclic
    and the zero class otherwise.
    """

    value: NormalizedTorsionClass
    acyclic: bool

    @property
    def homological(self) -> NormalizedTorsionClass:
        if self.acyclic:
            return self.value
        return normalize_unit_class(RationalFunction.zero())


def torsion_from_cellular(surface: CellularSurface, flow: CellularSelfMap,
                          rep: FiniteRepresentation) -> CellularTorsion:
    """Normalized class of the determinant-ratio expression, together with
    the acyclicity flag computed from the matched presentation."""
    zeta = zeta_from_cellular(surface, flow, rep)
    value = normalize_unit_class(zeta)
    mt = surface.presentation
    acyclic = all(not twisted_alexander(mt, rep, n).is_zero()
                  for n in range(4))
    return CellularTorsion(value, acyclic)


def lefschetz_numbers(surface: CellularSurface, flow: CellularSelfMap,
                      rep: FiniteRepresentation, upto: int):
    """Exact twisted Lefschetz numbers L_1..L_upto, read off from the
    logarithmic derivative of the zeta function."""
    if upto < 1:
        raise ValueError("need at least one Lefschetz number")
    zeta = zeta_from_cellular(surface, flow, rep)
    series = zeta.series(upto + 1)
    return log_coefficients(series, upto)


# ---------------------------------------------------------------------------
# canonical model of a fibered presentation
# ---------------------------------------------------------------------------

def cellular_model(mt: MappingTorusPresentation
                   ) -> Tuple[CellularSurface, CellularSelfMap]:
    """Canonical decorated cell structure of the fiber with its flow-return
    map: one 0-cell, one 1-cell per fiber generator, one 2-cell for a closed
    fiber.  The flow-return decorations realize conjugation by the inverse
    stable letter, so the monodromy must carry an inverse witness.
    """
    canonical = _canonical_presentation(mt)
    fiber = canonical.fiber
    t = canonical.stable_index
    psi = canonical.monodromy.inverse()

    names0 = ("p",)
    names1 = fiber.generators
    names2 = tuple(f"F{i}" for i in range(len(fiber.relators)))

    boundary_one = tuple(
        ((0, 1, (j,)), (0, -1, ()))
        for j in range(1, fiber.rank + 1))
    boundary_two = tuple(
        tuple((j - 1, coeff, word)
              for j in range(1, fiber.rank + 1)
              for coeff, word in fox_derivative(r, j))
        for r in fiber.relators)
    surface = CellularSurface(canonical, (names0, names1, names2),
                              boundary_one, boundary_two)

    images0 = (((0, 1, (t,)),),)
    images1 = tuple(
        tuple((j - 1, coeff, free_reduce((t,) + word))
              for j in range(1, fiber.rank + 1)
              for coeff, word in fox_derivative(psi.images[g - 1], j))
        for g in range(1, fiber.rank + 1))
    images2 = []
    for index, r in enumerate(fiber.relators):
        sign, conj = psi.relator_conjugacy()
        images2.append(((index, sign, free_reduce((t,) + conj)),))
    flow = CellularSelfMap(surface, (images0, images1, tuple(images2)))
    return surface, flow


def _canonical_presentation(mt: MappingTorusPresentation) -> MappingTorusPresentation:
    """Rebuild the untouched presentation of the same fibered space."""
    return mapping_torus(mt.fiber, mt.monodromy)


# ---------------------------------------------------------------------------
# the three-dimensional chain model behind degrees 2 and 3
# ---------------------------------------------------------------------------

def mapping_torus_boundaries(mt: MappingTorusPresentation,
                             rep: FiniteRepresentation):
    """Boundary matrices (d1, d2, d3) of the three-dimensional cellular chain
    model of the fibered space over F[t^{+-1}], in the row-vector block
    convention.  d1 and d2 are the presentation-complex boundaries; d3 is the
    boundary of the flow cell of the fiber 2-cell.
    """
    canonical = _canonical_presentation(mt)
    fiber = canonical.fiber
    indices = list(range(1, fiber.rank + 1)) + [mt.stable_index]
    sub = rep.restricted(indices)
    sub.validate(canonical)

    d1 = _boundary_one(canonical, sub)
    d2 = _boundary_two(canonical, sub)
    k = rep.dimension
    if fiber.boundary_count != 0 or not fiber.relators:
        d3 = PolyMatrix.zero(k * len(canonical.relators), 0)
    else:
        t = canonical.stable_index
        phi = canonical.monodromy
        sign, conj = phi.relator_conjugacy()
        # The 3-cell is glued along the free identity
        #     t r t^-1 = C * (conj r^sign conj^-1)
        # where C collects one flow relator per letter of r.  The fiber
        # 2-cell therefore receives sign*conj - t, and pushing t through
        # the letters of r leaves the monodromy image of each Fox
        # derivative on the flow cell of the matching generator.
        top = group_ring_image(
            canonical, sub, ((sign, conj), (-1, (t,)))).grid_transpose()
        blocks = [top]
        relator = fiber.relators[0]
        for j in range(1, fiber.rank + 1):
            pushed = tuple((coeff, phi.apply(word))
                           for coeff, word in fox_derivative(relator, j))
            blocks.append(group_ring_image(
                canonical, sub, pushed).grid_transpose())
        d3 = blocks[0]
        for b in blocks[1:]:
            d3 = d3.vstack(b)
    if d2.cols and d3.cols and not (d2 @ d3).is_zero():
        raise AssertionError("three-dimensional chain model lost d.d = 0")
    if d1.cols and d2.cols and not (d1 @ d2).is_zero():
        raise AssertionError("presentation complex lost d.d = 0")
    return d1, d2, d3
