"""Cellular models of fibered 3-complexes: flow matrices, zeta, torsion.

A fiber surface is modeled by a cell structure whose incidence data is
decorated with group words read in an ambient fibered presentation (module
`surfgrp`): boundary decorations have degree 0, flow-return decorations have
degree 1 under the distinguished degree class.  Applying a finite matrix
representation entrywise turns the decorated data into exact matrices; the
twisted zeta function and the cellular torsion expression are determinant
ratios of those matrices.  The flow matrices and the zeta function are kept
in the twisted complex of the presentation under the representation (module
`surfgrp`), with the orders Delta_0..Delta_3 and the three-dimensional model
(`mapping_torus_boundaries`, re-exported here), so each is built once.

Matrix conventions: decorated maps are realized on row-vector coefficient
blocks, so every assembled matrix here stores transposed k-blocks; the
exported flow matrices ``rho_*(F_n)`` are block matrices with one k-block per
(target, source) cell pair, and all determinant-based quantities are
independent of that choice.
"""

from __future__ import annotations

from typing import Tuple

from .kernel import (
    LaurentPolynomial,
    NormalizedTorsionClass,
    PolyMatrix,
    RationalFunction,
    as_exact,
    charpoly_coefficients,
    log_coefficients,
    normalize_unit_class,
    products_cancel,
)
from .record import Record
from .surfgrp import (  # noqa: F401  (mapping_torus_boundaries: re-exported)
    Chain,
    FiniteRepresentation,
    MappingTorusPresentation,
    _chain_matrix,
    _fox_chain,
    _sparse,
    _sparse_identity,
    _sparse_mul,
    _per_complex,
    _presentation_chains,
    mapping_torus,
    mapping_torus_boundaries,
    twisted_alexander,
)


class CellularSurface(Record):
    """Cell structure of the fiber with decorated incidence data.

    `boundary_one[j]` is the decorated chain of 0-cells bounding 1-cell j;
    `boundary_two[j]` the chain of 1-cells bounding 2-cell j.  Decorations
    are words over the generators of the ambient fibered presentation, of
    degree 0.  `cellular_model` builds it, and the flow checks it (d.d = 0).
    """

    def __init__(self, presentation: MappingTorusPresentation,
                 cell_names: Tuple[Tuple[str, ...], ...],
                 boundary_one: Tuple[Chain, ...],
                 boundary_two: Tuple[Chain, ...]):
        self.__dict__.update(presentation=presentation, cell_names=cell_names,
                             boundary_one=boundary_one,
                             boundary_two=boundary_two)

    @property
    def cell_counts(self) -> Tuple[int, int, int]:
        return tuple(len(names) for names in self.cell_names)


class CellularSelfMap(Record):
    """Flow-return images of the fiber cells.

    `images[n][j]` is the decorated chain (over dimension-n cells) covered by
    the flow of the j-th n-cell; every decoration has degree 1.
    `cellular_model` builds it, and the flow checks it (chain map).
    """

    def __init__(self, surface: CellularSurface,
                 images: Tuple[Tuple[Chain, ...], ...]):
        self.__dict__.update(surface=surface, images=images)


class HomologyAction(Record):
    """Induced integer matrices on fiber homology in degrees 0, 1, 2."""

    def __init__(self, h0: Tuple[Tuple[int, ...], ...],
                 h1: Tuple[Tuple[int, ...], ...],
                 h2: Tuple[Tuple[int, ...], ...]):
        h0, h1, h2 = (tuple(map(tuple, rows)) for rows in (h0, h1, h2))
        if h0 != ((1,),):
            raise ValueError("degree-0 action must be [1]")
        if h2 not in (((1,),), ((-1,),)):
            raise ValueError("degree-2 action must be [1] or [-1]")
        n = len(h1)
        if any(len(row) != n for row in h1):
            raise ValueError("degree-1 action must be square")
        self.__dict__.update(h0=h0, h1=h1, h2=h2)

    @classmethod
    def from_monodromy_matrix(cls, rows) -> "HomologyAction":
        rows = tuple(map(tuple, rows))
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("monodromy action must be square")
        det = (-1) ** len(rows) * charpoly_coefficients(_sparse(rows))[-1]
        if det not in (1, -1):
            raise ValueError("monodromy action must be unimodular")
        return cls(((1,),), rows, ((det,),))


def classical_lefschetz(action: HomologyAction, m: int) -> int:
    """Alternating trace sum of the m-th iterate on fiber homology."""
    if m < 1:
        raise ValueError("iterate count must be at least 1")
    total = 0
    for sign, mat in ((1, action.h0), (-1, action.h1), (1, action.h2)):
        step, power = _sparse(mat), _sparse_identity(len(mat))
        for _ in range(m):
            power = _sparse_mul(power, step)
        total += sign * sum(e for i, row in enumerate(power)
                            for j, e in row if i == j)
    return total


# ---------------------------------------------------------------------------
# assembling decorated data into exact matrices
# ---------------------------------------------------------------------------

def flow_boundary_matrices(surface: CellularSurface, flow: CellularSelfMap,
                           rep: FiniteRepresentation):
    """Exact matrices (rho_*(F_0), rho_*(F_1), rho_*(F_2)) of the flow-return
    map, after checking the decorated chain and grading conditions.

    The degree-1 decorations contribute one uniform power of t, which is
    stripped: the returned matrices are constant.  Raises ValueError when the
    flow chains fail to commute with the decorated boundaries.
    """
    return _flow(surface.presentation, rep, surface, flow)[0]


def zeta_from_cellular(surface: CellularSurface, flow: CellularSelfMap,
                       rep: FiniteRepresentation) -> RationalFunction:
    """Twisted zeta function det(1 - t F_1) / (det(1 - t F_0) det(1 - t F_2))
    of the flow-return map; always has constant term exactly 1."""
    return _flow(surface.presentation, rep, surface, flow)[1]


def _det_one_minus_t(mat: PolyMatrix) -> LaurentPolynomial:
    """det(1 - tF) = sum c_k t^k, where det(xI - F) = sum c_k x^(n-k), for
    a square F; Berkowitz reads the constant terms of F's stored rows."""
    if any(e.terms.keys() != {0} for row in mat.sparse for _, e in row):
        raise ValueError("flow matrix entries must be constant")
    return LaurentPolynomial(enumerate(charpoly_coefficients(
        [[(j, e.terms[0]) for j, e in row] for row in mat.sparse])))


@_per_complex
def _flow(mt: MappingTorusPresentation, rep: FiniteRepresentation,
          surface: CellularSurface, flow: CellularSelfMap):
    """The flow matrices of `flow_boundary_matrices` and the zeta function
    of `zeta_from_cellular`."""
    if flow.surface != surface:
        raise ValueError("flow map does not live on the given surface")
    r0, r1, r2 = surface.cell_counts

    d1 = _chain_matrix(mt, rep, surface.boundary_one, r0)
    d2 = _chain_matrix(mt, rep, surface.boundary_two, r1)
    if d1.cols and d2.cols and not products_cancel((1, d1, d2)):
        raise ValueError("decorated boundaries do not compose to zero")

    f0, f1, f2 = [_chain_matrix(mt, rep, flow.images[n], (r0, r1, r2)[n],
                                strip_degree=1)
                  for n in range(3)]
    # chain-map condition; restoring the degree-1 twist would multiply
    # both sides by t, which is injective, so it is left out
    if not products_cancel((1, d1, f1), (-1, f0, d1)):
        raise ValueError("flow chains do not commute with the boundary "
                         "in degree 1")
    if not products_cancel((1, d2, f2), (-1, f1, d2)):
        raise ValueError("flow chains do not commute with the boundary "
                         "in degree 2")
    numerator = _det_one_minus_t(f1)
    denominator = _det_one_minus_t(f0) * _det_one_minus_t(f2)
    zeta = RationalFunction(numerator, denominator)
    # the canonical denominator has constant term 1, so zeta(0) is num(0)
    if not (zeta.num.valuation == 0 and zeta.num.coefficient(0) == 1):
        raise AssertionError("zeta lost its constant term 1")
    return (f0, f1, f2), zeta


class CellularTorsion(Record):
    """Result of the cellular torsion expression.

    `value` is the normalized class of the determinant-ratio formula;
    `acyclic` records whether every twisted homology order is nonzero on the
    matched presentation.  The homological torsion is `value` when acyclic
    and the zero class otherwise.
    """

    def __init__(self, value: NormalizedTorsionClass, acyclic: bool):
        self.__dict__.update(value=value, acyclic=acyclic)

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


# the most Lefschetz numbers one call computes: each costs a number of
# products linear in the degree of the zeta function, but L_m has about
# m log10(dilatation) digits
LEFSCHETZ_LIMIT = 2000


def lefschetz_numbers(surface: CellularSurface, flow: CellularSelfMap,
                      rep: FiniteRepresentation, upto: int):
    """Exact twisted Lefschetz numbers L_1..L_upto (upto at most
    `LEFSCHETZ_LIMIT`), read off from the logarithmic derivative of the
    zeta function N/D: L_m = m [t^m] log N - m [t^m] log D, where N and D
    both have constant term 1, so no power series of N/D is expanded."""
    if upto < 1:
        raise ValueError("need at least one Lefschetz number")
    if upto > LEFSCHETZ_LIMIT:
        raise ValueError(
            f"at most {LEFSCHETZ_LIMIT} Lefschetz numbers, got {upto}")
    zeta = zeta_from_cellular(surface, flow, rep)
    num, den = (log_coefficients([p.coefficient(k) for k in range(upto + 1)],
                                 upto) for p in (zeta.num, zeta.den))
    return [as_exact(a - b) for a, b in zip(num, den)]


# ---------------------------------------------------------------------------
# canonical model of a fibered presentation
# ---------------------------------------------------------------------------

def cellular_model(mt: MappingTorusPresentation
                   ) -> Tuple[CellularSurface, CellularSelfMap]:
    """Canonical decorated cell structure of the fiber with its flow-return
    map: one 0-cell, one 1-cell per fiber generator, one 2-cell for a closed
    fiber.  The flow-return decorations realize conjugation by the inverse
    stable letter, whose images the monodromy's inverse witness gives.
    """
    canonical = mapping_torus(mt.fiber, mt.monodromy)
    fiber = canonical.fiber
    t = canonical.stable_index
    psi = canonical.monodromy.inverse()

    names0 = ("p",)
    names1 = fiber.generators
    names2 = tuple(f"F{i}" for i in range(len(fiber.relators)))

    boundary_one, boundary_two = _presentation_chains(fiber.rank,
                                                      fiber.relators)
    surface = CellularSurface(canonical, (names0, names1, names2),
                              boundary_one, boundary_two)

    # t is not a fiber generator, so every Fox term keeps its t prefix
    images0 = ((((t,), ((1, 0, 1),)),),)
    images1 = tuple(_fox_chain((t,) + image, fiber.rank)
                    for image in psi.images)
    images2 = ()
    if fiber.relators:
        sign, conj = psi.relator_conjugacy()
        images2 = ((((t,) + conj, ((1 + len(conj), 0, sign),)),),)
    flow = CellularSelfMap(surface, (images0, images1, images2))
    return surface, flow
