"""Tests for decorated cellular models, flow matrices, zeta, and torsion."""

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from procong import cellular, cli, kernel, lattice, surfgrp
from procong.cellular import (
    _det_one_minus_t,
    CellularSelfMap,
    CellularTorsion,
    HomologyAction,
    LEFSCHETZ_LIMIT,
    cellular_model,
    classical_lefschetz,
    flow_boundary_matrices,
    lefschetz_numbers,
    mapping_torus_boundaries,
    torsion_from_cellular,
    zeta_from_cellular,
)
from procong.kernel import (
    Cyclotomic,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    normalize_unit_class,
)
from procong.surfgrp import (
    FiniteRepresentation,
    GeneratorEndomorphism,
    SurfacePresentation,
    mapping_torus,
    twisted_alexander,
    twisted_torsion,
    word_concat,
    word_inverse,
)
from procong.serialize import load_fixture
from procong.torus import Mat2
import reference  # noqa: F401  (attaches FiniteRepresentation.conjugate)
from reference import poly_matrix, replace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def poly(*coeffs, valuation=0):
    return LaurentPolynomial.from_coefficients(coeffs, valuation)


def const_matrix(rows, cols=None):
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return PolyMatrix.build(
        len(rows), cols,
        lambda i, j: LaurentPolynomial.constant(rows[i][j]))


TORUS = SurfacePresentation.closed(1)
GENUS2 = SurfacePresentation.closed(2)

ANOSOV_WORDS = GeneratorEndomorphism(
    TORUS, ((1, 1, 2), (1, 2)), ((1, -2), (2, -1, 2)))


def anosov_bundle():
    return mapping_torus(TORUS, ANOSOV_WORDS)


def identity_bundle():
    return mapping_torus(TORUS, GeneratorEndomorphism.identity(TORUS))


def genus2_swap_bundle():
    swap = GeneratorEndomorphism(GENUS2, ((3,), (4,), (1,), (2,)),
                                 ((3,), (4,), (1,), (2,)))
    return mapping_torus(GENUS2, swap)


def two_dim_rep(mt):
    ident = ((1, 0), (0, 1))
    return FiniteRepresentation(2, (ident, ident, ((1, 0), (0, -1))))


def mod2_permutation_rep(mt, matrix):
    """Permutation action of the fiber translations and the induced linear
    map on the four points of (Z/2)^2; nontrivial on fiber generators."""
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    index = {p: i for i, p in enumerate(points)}

    def perm_matrix(images):
        return tuple(tuple(1 if images[j] == i else 0 for j in range(4))
                     for i in range(4))

    def translation(v):
        return perm_matrix([index[((p[0] + v[0]) % 2, (p[1] + v[1]) % 2)]
                            for p in points])

    def linear(m):
        return perm_matrix([index[((m.a * p[0] + m.b * p[1]) % 2,
                                   (m.c * p[0] + m.d * p[1]) % 2)]
                            for p in points])

    rep = FiniteRepresentation(
        4, (translation((1, 0)), translation((0, 1)), linear(matrix)))
    return rep.validate(mt)


def change_lifts(surface, flow, lifts):
    """Rebuild the decorated model after replacing each cell lift c by u*c
    for the degree-0 words u in `lifts` (one tuple of words per dimension).
    Each term's decoration gains its own target's lift, so every term
    becomes a one-term path."""

    def redec(chain, source_word, target_lifts):
        moved = []
        for word, terms in chain:
            for end, tgt, coeff in terms:
                w = word_concat(source_word, word[:end],
                                word_inverse(target_lifts[tgt]))
                moved.append((w, ((len(w), tgt, coeff),)))
        return tuple(moved)

    l0, l1, l2 = lifts
    moved_surface = replace(
        surface,
        boundary_one=tuple(redec(chain, l1[j], l0)
                           for j, chain in enumerate(surface.boundary_one)),
        boundary_two=tuple(redec(chain, l2[j], l1)
                           for j, chain in enumerate(surface.boundary_two)))
    moved_images = tuple(
        tuple(redec(chain, lifts[n][j], lifts[n])
              for j, chain in enumerate(flow.images[n]))
        for n in range(3))
    return moved_surface, CellularSelfMap(moved_surface, moved_images)


# ---------------------------------------------------------------------------
# homology actions and classical Lefschetz numbers
# ---------------------------------------------------------------------------

class TestHomologyAction:
    def test_from_monodromy_matrix(self):
        action = HomologyAction.from_monodromy_matrix(((2, 1), (1, 1)))
        assert action.h0 == ((1,),)
        assert action.h1 == ((2, 1), (1, 1))
        assert action.h2 == ((1,),)

    def test_orientation_reversing_matrix_flips_top_degree(self):
        action = HomologyAction.from_monodromy_matrix(((0, 1), (1, 0)))
        assert action.h2 == ((-1,),)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            HomologyAction.from_monodromy_matrix(((2, 0), (0, 1)))

    @staticmethod
    def _dense_unimodular(n, seed):
        """A product of random elementary row operations, dense after
        4 n^2 of them: determinant 1."""
        rng = random.Random(seed)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n * n):
            i, j = rng.sample(range(n), 2)
            k = rng.choice((-1, 1))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        return rows

    def test_accepts_large_unimodular_matrices(self):
        # a cofactor expansion would take seconds on this size
        rows = self._dense_unimodular(10, 1)
        assert all(rows[i][j] for i in range(10) for j in range(10))
        assert HomologyAction.from_monodromy_matrix(rows).h2 == ((1,),)
        rows[0], rows[1] = rows[1], rows[0]
        assert HomologyAction.from_monodromy_matrix(rows).h2 == ((-1,),)

    def test_rejects_large_matrix_of_determinant_two(self):
        rows = self._dense_unimodular(9, 2)
        rows[4] = [2 * a for a in rows[4]]
        with pytest.raises(ValueError, match="unimodular"):
            HomologyAction.from_monodromy_matrix(rows)

    @pytest.mark.parametrize("rows", [((1, 0), (0,)), ((1,), (0, 1)),
                                      ((1, 0),)])
    def test_rejects_non_square_monodromy_matrix(self, rows):
        with pytest.raises(ValueError, match="monodromy action must be square"):
            HomologyAction.from_monodromy_matrix(rows)

    def test_degree_constraints(self):
        ident2 = ((1, 0), (0, 1))
        with pytest.raises(ValueError, match="degree-0"):
            HomologyAction(((2,),), ident2, ((1,),))
        with pytest.raises(ValueError, match="degree-2"):
            HomologyAction(((1,),), ident2, ((2,),))
        with pytest.raises(ValueError, match="square"):
            HomologyAction(((1,),), ((1, 0),), ((1,),))

    def test_classical_trace_values(self):
        anosov = HomologyAction.from_monodromy_matrix(((2, 1), (1, 1)))
        assert classical_lefschetz(anosov, 1) == -1
        assert classical_lefschetz(anosov, 2) == -5
        assert classical_lefschetz(anosov, 3) == -16

        genus2 = HomologyAction(
            ((1,),),
            tuple(tuple(int(i == j) for j in range(4)) for i in range(4)),
            ((1,),))
        assert all(classical_lefschetz(genus2, m) == -2 for m in range(1, 6))

        quarter_turn = HomologyAction.from_monodromy_matrix(((0, -1), (1, 0)))
        assert classical_lefschetz(quarter_turn, 1) == 2
        assert classical_lefschetz(quarter_turn, 2) == 4
        assert classical_lefschetz(quarter_turn, 4) == 0

    def test_iterate_must_be_positive(self):
        action = HomologyAction.from_monodromy_matrix(((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            classical_lefschetz(action, 0)


# ---------------------------------------------------------------------------
# the canonical decorated model
# ---------------------------------------------------------------------------

class TestCellularModel:
    def test_cell_structure(self):
        surface, flow = cellular_model(anosov_bundle())
        assert surface.cell_names == (("p",), ("a1", "b1"), ("F0",))
        assert surface.cell_counts == (1, 2, 1)
        r0, r1, r2 = surface.cell_counts
        assert r0 - r1 + r2 == 0
        assert flow.surface == surface

    def test_boundary_decorations_of_explicit_words(self):
        surface, _ = cellular_model(mapping_torus(TORUS, ANOSOV_WORDS))
        # a path (word, ((end, target, coeff), ...)) puts coeff times
        # word[:end] on the target: a1 bounds a1 - 1, F0 bounds
        # (1 - a1 b1 a1^-1) a1 + (a1 - a1 b1 a1^-1 b1^-1) b1
        assert surface.boundary_one == (
            (((1,), ((0, 0, -1), (1, 0, 1))),),
            (((2,), ((0, 0, -1), (1, 0, 1))),),
        )
        assert surface.boundary_two == (
            (((1, 2, -1, -2),
              ((0, 0, 1), (1, 1, 1), (3, 0, -1), (4, 1, -1))),),
        )

    def test_flow_decorations_realize_inverse_monodromy(self):
        _, flow = cellular_model(mapping_torus(TORUS, ANOSOV_WORDS))
        assert flow.images[0] == ((((3,), ((1, 0, 1),)),),)
        # the inverse substitution is a -> a b^-1, b -> b a^-1 b; each
        # image is one path on t times the image word
        assert flow.images[1] == (
            (((3, 1, -2), ((1, 0, 1), (3, 1, -1))),),
            (((3, 2, -1, 2), ((1, 1, 1), (3, 0, -1), (3, 1, 1))),),
        )
        assert flow.images[2] == ((((3, 2, -1), ((3, 0, 1),)),),)

    def test_bounded_fiber_has_no_two_cells(self):
        free = SurfacePresentation.with_boundary(1, 1)
        phi = GeneratorEndomorphism(free, ((1, 1, 2), (1, 2)),
                                    ((1, -2), (2, -1, 2)))
        surface, flow = cellular_model(mapping_torus(free, phi))
        assert surface.cell_counts == (1, 2, 0)
        assert flow.images[2] == ()

    def test_requires_inverse_witness(self):
        bare = GeneratorEndomorphism(TORUS, ((1, 1, 2), (1, 2)))
        with pytest.raises(ValueError, match="witness"):
            cellular_model(mapping_torus(TORUS, bare))


# ---------------------------------------------------------------------------
# flow matrices
# ---------------------------------------------------------------------------

class TestFlowMatrices:
    def test_identity_model_gives_identity_matrices(self):
        surface, flow = cellular_model(identity_bundle())
        rep = FiniteRepresentation.trivial(identity_bundle())
        f0, f1, f2 = flow_boundary_matrices(surface, flow, rep)
        assert f0 == const_matrix([[1]])
        assert f1 == const_matrix([[1, 0], [0, 1]])
        assert f2 == const_matrix([[1]])

    def test_hyperbolic_model_realizes_inverse_matrix(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        f0, f1, f2 = flow_boundary_matrices(surface, flow, rep)
        assert f0 == const_matrix([[1]])
        assert f1 == const_matrix([[1, -1], [-1, 2]])
        assert f2 == const_matrix([[1]])

    def test_trivial_representation_forgets_decorations(self):
        mt = genus2_swap_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        f0, f1, f2 = flow_boundary_matrices(surface, flow, rep)
        assert f1 == const_matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                                   [1, 0, 0, 0], [0, 1, 0, 0]])
        assert f0 == const_matrix([[1]])
        assert f2 == const_matrix([[1]])

    def test_sign_character_negates_the_returns(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        sign = FiniteRepresentation.fibered_character(mt, -1)
        f0, f1, f2 = flow_boundary_matrices(surface, flow, sign)
        assert f0 == const_matrix([[-1]])
        assert f1 == const_matrix([[-1, 1], [1, -2]])
        assert f2 == const_matrix([[-1]])

    def test_flow_must_live_on_the_surface(self):
        surface, _ = cellular_model(anosov_bundle())
        other_surface, other_flow = cellular_model(identity_bundle())
        rep = FiniteRepresentation.trivial(anosov_bundle())
        with pytest.raises(ValueError, match="does not live"):
            flow_boundary_matrices(surface, other_flow, rep)

    # The tampering checks use a representation that is nontrivial on the
    # fiber generators; a fiber-blind character would not see the damage.

    def test_broken_boundary_composition_is_detected(self):
        mt = mapping_torus(TORUS, ANOSOV_WORDS)
        surface, flow = cellular_model(mt)
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        ((word, terms),) = surface.boundary_two[0]
        tampered_chain = ((word, terms[:-1]),)
        bad_surface = replace(
            surface, boundary_two=(tampered_chain,))
        bad_flow = CellularSelfMap(bad_surface, flow.images)
        with pytest.raises(ValueError, match="compose to zero"):
            flow_boundary_matrices(bad_surface, bad_flow, rep)

    def test_broken_chain_map_is_detected_in_degree_one(self):
        mt = mapping_torus(TORUS, ANOSOV_WORDS)
        surface, flow = cellular_model(mt)
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        ((word, terms),) = flow.images[1][0]
        tampered = (flow.images[0],
                    (((word, terms[:1]),), flow.images[1][1]),
                    flow.images[2])
        bad_flow = CellularSelfMap(surface, tampered)
        with pytest.raises(ValueError, match="^flow chains do not commute "
                           "with the boundary in degree 1$"):
            flow_boundary_matrices(surface, bad_flow, rep)

    def test_broken_chain_map_is_detected_in_degree_two(self):
        mt = mapping_torus(TORUS, ANOSOV_WORDS)
        surface, flow = cellular_model(mt)
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        ((word, ((end, target, sign),)),) = flow.images[2][0]
        tampered = (flow.images[0], flow.images[1],
                    (((word, ((end, target, -sign),)),),))
        bad_flow = CellularSelfMap(surface, tampered)
        with pytest.raises(ValueError, match="^flow chains do not commute "
                           "with the boundary in degree 2$"):
            flow_boundary_matrices(surface, bad_flow, rep)

    def test_moved_degree_two_decoration_is_detected(self):
        # The 2-cell's image keeps its sign and its degree, but its
        # decoration gains a fiber generator: F2 changes only under a
        # representation that sees the fiber, and only the degree-2
        # chain-map check can tell.
        mt = mapping_torus(TORUS, ANOSOV_WORDS)
        surface, flow = cellular_model(mt)
        ((word, ((end, target, sign),)),) = flow.images[2][0]
        tampered = (flow.images[0], flow.images[1],
                    ((((1,) + word, ((end + 1, target, sign),)),),))
        bad_flow = CellularSelfMap(surface, tampered)
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        with pytest.raises(ValueError, match="degree 2"):
            flow_boundary_matrices(surface, bad_flow, rep)
        trivial = FiniteRepresentation.trivial(mt)
        assert (flow_boundary_matrices(surface, bad_flow, trivial)
                == flow_boundary_matrices(surface, flow, trivial))


# ---------------------------------------------------------------------------
# zeta, torsion, and Lefschetz numbers
# ---------------------------------------------------------------------------

class TestZeta:
    def test_hyperbolic_bundle(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        zeta = zeta_from_cellular(surface, flow, rep)
        assert zeta == RationalFunction(poly(1, -3, 1), poly(1, -2, 1))

    def test_hyperbolic_bundle_sign_character(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        sign = FiniteRepresentation.fibered_character(mt, -1)
        zeta = zeta_from_cellular(surface, flow, sign)
        assert zeta == RationalFunction(poly(1, 3, 1), poly(1, 2, 1))

    def test_hyperbolic_bundle_two_dimensional_character(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        zeta = zeta_from_cellular(surface, flow, two_dim_rep(mt))
        assert zeta == RationalFunction(poly(1, 0, -7, 0, 1),
                                        poly(1, 0, -2, 0, 1))

    def test_identity_bundle_is_trivial(self):
        mt = identity_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        assert zeta_from_cellular(surface, flow, rep) == RationalFunction.one()

    def test_genus_two_identity(self):
        mt = mapping_torus(GENUS2, GeneratorEndomorphism.identity(GENUS2))
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        zeta = zeta_from_cellular(surface, flow, rep)
        assert zeta == RationalFunction(poly(1, -2, 1))

    def test_genus_two_swap(self):
        mt = genus2_swap_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        assert (zeta_from_cellular(surface, flow, rep)
                == RationalFunction(poly(1, 2, 1)))
        sign = FiniteRepresentation.fibered_character(mt, -1)
        assert (zeta_from_cellular(surface, flow, sign)
                == RationalFunction(poly(1, -2, 1)))

    def test_orientation_reversing_bundle(self):
        phi = GeneratorEndomorphism.torus_monodromy(Mat2(0, 1, 1, 0))
        mt = mapping_torus(TORUS, phi)
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        assert zeta_from_cellular(surface, flow, rep) == RationalFunction.one()

    def test_bounded_fiber(self):
        free = SurfacePresentation.with_boundary(1, 1)
        phi = GeneratorEndomorphism(free, ((1, 1, 2), (1, 2)),
                                    ((1, -2), (2, -1, 2)))
        mt = mapping_torus(free, phi)
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        zeta = zeta_from_cellular(surface, flow, rep)
        assert zeta == RationalFunction(poly(1, -3, 1), poly(1, -1))

    def test_constant_term_is_one(self):
        for mt in (anosov_bundle(), identity_bundle(), genus2_swap_bundle()):
            surface, flow = cellular_model(mt)
            rep = FiniteRepresentation.trivial(mt)
            assert zeta_from_cellular(surface, flow, rep).series(1) == [1]

    def test_conjugate_representation_leaves_zeta_unchanged(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = two_dim_rep(mt)
        conj = rep.conjugate(((1, 1), (0, 1)))
        assert (zeta_from_cellular(surface, flow, rep)
                == zeta_from_cellular(surface, flow, conj))

    def test_conjugate_permutation_representation_leaves_zeta_unchanged(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        basis = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1))
        assert (zeta_from_cellular(surface, flow, rep)
                == zeta_from_cellular(surface, flow, rep.conjugate(basis)))


class TestLiftIndependence:
    """The zeta/torsion formulas only see the flow blocks, so re-choosing the
    cell lifts (which rewrites every decoration in the model) must leave the
    computed values untouched."""

    LIFTS = (((2,),), ((1,), (1, -2)), ((2, 1),))

    def test_hyperbolic_model_with_fiber_visible_representation(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        moved_surface, moved_flow = change_lifts(surface, flow, self.LIFTS)
        assert moved_surface.boundary_two != surface.boundary_two
        assert (zeta_from_cellular(moved_surface, moved_flow, rep)
                == zeta_from_cellular(surface, flow, rep))

    def test_lift_change_preserves_lefschetz_numbers(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        moved_surface, moved_flow = change_lifts(surface, flow, self.LIFTS)
        assert (lefschetz_numbers(moved_surface, moved_flow, rep, 8)
                == lefschetz_numbers(surface, flow, rep, 8))

    def test_genus_two_lift_change(self):
        mt = genus2_swap_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.fibered_character(mt, -1)
        lifts = (((1,),), ((2,), (), (3, -4), (1,)), ((4, 3, -4),))
        moved_surface, moved_flow = change_lifts(surface, flow, lifts)
        assert (zeta_from_cellular(moved_surface, moved_flow, rep)
                == zeta_from_cellular(surface, flow, rep))

    @pytest.mark.parametrize("label", ["trivial", "sign", "zeta:4",
                                       "zeta:12"])
    def test_finite_order_genus_two_lift_change(self, label):
        # every invariant a fibered subcommand reads from the flow
        mt = load_fixture(FIXTURES / "genus2_finite_order.json").payload
        surface, flow = cellular_model(mt)
        rep = cli._resolve_rep(surface.presentation, label)
        lifts = (((1,),), ((2,), (), (3, -4), (1,)), ((4, 3, -4),))
        moved_surface, moved_flow = change_lifts(surface, flow, lifts)
        assert moved_surface.boundary_two != surface.boundary_two
        for invariant in (zeta_from_cellular, torsion_from_cellular,
                          lambda *model: lefschetz_numbers(*model, 10)):
            assert (invariant(moved_surface, moved_flow, rep)
                    == invariant(surface, flow, rep))


class TestComputedOnce:
    """Every invariant of one (presentation, representation) is read from
    one twisted complex: the orders, the three-dimensional model and the
    flow matrices are each built once, however many readers ask."""

    @staticmethod
    def count(monkeypatch, original, keep=lambda *args, **kwargs: True):
        """Record the calls of `original` through every procong module that
        holds it."""
        calls = []

        def counted(*args, **kwargs):
            if keep(*args, **kwargs):
                calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "procong" or name.startswith("procong."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    def test_every_reader_shares_one_complex(self, monkeypatch):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        orders = self.count(monkeypatch, kernel.homology_order)
        # d1 d2 and d2 d3 by their builders, three by the flow's
        checks = self.count(monkeypatch, kernel.products_cancel)
        # the model rebuilds the canonical presentation once per build
        models = self.count(monkeypatch, surfgrp.mapping_torus)
        # one flow build assembles F0, F1 and F2
        flow_blocks = self.count(
            monkeypatch, surfgrp._chain_matrix,
            keep=lambda *args, **kwargs: kwargs.get("strip_degree") == 1)
        deltas = [twisted_alexander(mt, rep, n) for n in range(4)]
        torsion = twisted_torsion(mt, rep)
        cellular = torsion_from_cellular(surface, flow, rep)
        zeta = zeta_from_cellular(surface, flow, rep)
        lefschetz = lefschetz_numbers(surface, flow, rep, 5)
        assert (len(orders), len(models), len(flow_blocks),
                len(checks)) == (4, 1, 3, 5)
        monkeypatch.undo()
        fresh = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        assert deltas == [twisted_alexander(mt, fresh, n) for n in range(4)]
        assert torsion == cellular.homological == twisted_torsion(mt, fresh)
        assert zeta == zeta_from_cellular(surface, flow, fresh)
        assert lefschetz == lefschetz_numbers(surface, flow, fresh, 5)

    def test_each_boundary_is_eliminated_once(self, monkeypatch):
        # d1, d2 and d3 each serve two orders; the determinant ratio reads
        # characteristic polynomials, not the Bareiss determinant
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        eliminations = self.count(monkeypatch, kernel.smith_diagonalize,
                                  keep=lambda m: m._diagonal is None)
        determinants = []
        bareiss = PolyMatrix.determinant
        monkeypatch.setattr(PolyMatrix, "determinant",
                            lambda m: determinants.append(m) or bareiss(m))
        deltas = [twisted_alexander(mt, rep, n) for n in range(4)]
        torsion = twisted_torsion(mt, rep)
        cellular = torsion_from_cellular(surface, flow, rep)
        lefschetz_numbers(surface, flow, rep, 5)
        zeta_from_cellular(surface, flow, rep)
        assert (len(eliminations), len(determinants)) == (3, 0)
        assert not any(d.is_zero() for d in deltas)
        assert torsion == cellular.value

    def count_builds(self, monkeypatch):
        """Record the presentations built, the relator searches run and the
        integer Smith forms computed."""
        built, searches = [], []
        init = surfgrp.MappingTorusPresentation.__init__

        def counted(mt, *args, **kwargs):
            built.append(mt)
            init(mt, *args, **kwargs)

        monkeypatch.setattr(surfgrp.MappingTorusPresentation, "__init__",
                            counted)
        substitute = GeneratorEndomorphism.apply

        def apply(phi, word):
            # a relator search substitutes the fiber relator once
            if tuple(word) == phi.source.relators[0]:
                searches.append(phi)
            return substitute(phi, word)

        monkeypatch.setattr(GeneratorEndomorphism, "apply", apply)
        return built, searches, self.count(monkeypatch, lattice.smith_integer)

    @pytest.mark.parametrize("subcommand",
                             ["alexander", "torsion", "zeta", "lefschetz"])
    def test_fibered_request_builds_one_presentation(self, monkeypatch,
                                                     subcommand):
        # a cold request: no fixture compiled by an earlier one
        cli._compiled.cache_clear()
        built, searches, smith = self.count_builds(monkeypatch)
        status, _ = cli.dispatch(cli.RunConfig(
            subcommand, (str(FIXTURES / "torus_pair_a.json"),)))
        assert status == 0
        # the monodromy's search and its inverse's (for the flow map); the
        # two Smith forms of the abelianization cross-check (unimodularity
        # reads the characteristic polynomial)
        assert (len(built), len(searches), len(smith)) == (1, 2, 2)

    @pytest.mark.parametrize("subcommand",
                             ["alexander", "torsion", "zeta", "lefschetz"])
    def test_later_request_on_the_same_text_builds_nothing(
            self, monkeypatch, tmp_path, subcommand):
        # the cache is keyed by the fixture text, not by its path
        source = FIXTURES / "torus_pair_a.json"
        copy = tmp_path / "copy.json"
        copy.write_bytes(source.read_bytes())
        cli._compiled.cache_clear()
        assert cli.dispatch(cli.RunConfig("alexander", (str(source),)))[0] == 0
        built, searches, smith = self.count_builds(monkeypatch)
        orders = self.count(monkeypatch, kernel.homology_order)
        # --rep trivial: the orders the first request computed are read
        status, _ = cli.dispatch(cli.RunConfig(subcommand, (str(copy),)))
        assert status == 0
        assert (len(built), len(searches), len(smith), len(orders)) == (
            0, 0, 0, 0)

    @pytest.mark.parametrize("source, work", [
        # the canonical presentation: d1, d2, d3 and the flow's five
        ("torus_pair_a.json", (8, 4, 1)),
        # its relators are checked on Delta_0/Delta_1 under their own
        # representation, which adds two boundaries, two orders and one
        # closure; Delta_2/Delta_3 are read only on the canonical one
        ("moved_A211.json", (10, 6, 2)),
    ])
    def test_fibered_subcommands_share_one_representation(
            self, monkeypatch, tmp_path, source, work):
        from test_fibered_golden import write_generated
        write_generated(tmp_path)
        path = FIXTURES / source
        if not path.is_file():
            path = tmp_path / source
        cli._compiled.cache_clear()
        chains = self.count(monkeypatch, surfgrp._chain_matrix)
        orders = self.count(monkeypatch, kernel.homology_order)
        closures = []
        closure = FiniteRepresentation._closure
        monkeypatch.setattr(FiniteRepresentation, "_closure",
                            lambda rep: closures.append(rep) or closure(rep))
        for sub in ("alexander", "torsion", "zeta", "lefschetz"):
            status, _ = cli.dispatch(cli.RunConfig(sub, (str(path),),
                                                   rep="zeta:4"))
            assert status == 0
        assert (len(chains), len(orders), len(closures)) == work

    def test_each_representation_enumerates_its_closure_once(
            self, monkeypatch, tmp_path):
        # the torus_A211 bundle presented by moved relators: the label is
        # certified on the model's canonical presentation and on the moved
        # one, which builds a second representation of the same value
        from test_fibered_golden import write_generated
        write_generated(tmp_path)
        path = tmp_path / "moved_A211.json"
        cli._compiled.cache_clear()
        closures = []
        closure = FiniteRepresentation._closure
        monkeypatch.setattr(FiniteRepresentation, "_closure",
                            lambda rep: closures.append(rep) or closure(rep))
        for sub in ("alexander", "torsion", "zeta", "lefschetz"):
            status, _ = cli.dispatch(cli.RunConfig(sub, (str(path),),
                                                   rep="zeta:4"))
            assert status == 0
        assert len(closures) == 2
        assert closures[0] == closures[1] and closures[0] is not closures[1]

    def test_each_monodromy_is_checked_once_per_object(self, monkeypatch):
        pres = SurfacePresentation.closed(1)
        phi = GeneratorEndomorphism.torus_monodromy(Mat2(2, 1, 1, 1))
        twin = GeneratorEndomorphism(pres, phi.images, phi.inverse_images)
        smith = self.count(monkeypatch, lattice.smith_integer)
        mt = mapping_torus(pres, phi)
        assert mapping_torus(pres, phi) is mt
        assert cellular_model(mt)[0].presentation is mt
        assert phi.relator_conjugacy() is phi.relator_conjugacy()
        # phi was validated when it was built: the build runs only the
        # abelianization cross-check; an equal monodromy is checked anew
        assert len(smith) == 2
        other = mapping_torus(pres, twin)
        assert other == mt and other is not mt
        assert len(smith) == 4
        with pytest.raises(ValueError, match="given presentation"):
            mapping_torus(SurfacePresentation.closed(2), phi)

    def test_torsion_subcommand_computes_each_order_once(self, monkeypatch):
        cli._compiled.cache_clear()
        orders = self.count(monkeypatch, kernel.homology_order)
        status, report = cli.dispatch(cli.RunConfig(
            "torsion", (str(FIXTURES / "torus_A211.json"),)))
        assert status == 0 and "alexander route agrees: yes" in report
        assert len(orders) == 4


class TestDetOneMinusT:
    """det(1 - tF) from the characteristic polynomial of a constant F equals
    the Bareiss determinant of I - tF over the Laurent ring."""

    SCALARS = {
        "Z": st.integers(-3, 3),
        "Q": st.fractions(-3, 3, max_denominator=4),
        "Q(zeta12)": st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(
            lambda c: Cyclotomic(12, c)),
    }

    @pytest.mark.parametrize("field", sorted(SCALARS))
    @given(data=st.data())
    def test_matches_bareiss(self, field, data):
        n = data.draw(st.integers(0, 6))
        scalar = st.one_of(st.just(0), self.SCALARS[field])
        f = const_matrix(data.draw(st.lists(
            st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n)), n)
        t_f = f.scale(LaurentPolynomial.t_power(1))
        assert _det_one_minus_t(f) == (PolyMatrix.identity(n) - t_f).determinant()

    def test_rejects_non_constant_entries(self):
        f = poly_matrix(2, 2, [[poly(1), poly(0, 1)], [poly(0), poly(2)]])
        with pytest.raises(ValueError, match="constant"):
            _det_one_minus_t(f)


class TestTorsionFromCellular:
    def test_matches_presentation_route(self):
        fixtures = []
        anosov = anosov_bundle()
        fixtures.append((anosov, FiniteRepresentation.trivial(anosov)))
        fixtures.append((anosov,
                         FiniteRepresentation.fibered_character(anosov, -1)))
        fixtures.append((anosov, two_dim_rep(anosov)))
        fixtures.append((anosov, mod2_permutation_rep(anosov, Mat2(2, 1, 1, 1))))
        ident = identity_bundle()
        fixtures.append((ident, FiniteRepresentation.trivial(ident)))
        swap = genus2_swap_bundle()
        fixtures.append((swap, FiniteRepresentation.trivial(swap)))
        fixtures.append((swap, FiniteRepresentation.fibered_character(swap, -1)))
        reversing = mapping_torus(
            TORUS, GeneratorEndomorphism.torus_monodromy(Mat2(0, 1, 1, 0)))
        fixtures.append((reversing, FiniteRepresentation.trivial(reversing)))
        for mt, rep in fixtures:
            surface, flow = cellular_model(mt)
            cellular = torsion_from_cellular(surface, flow, rep)
            assert cellular.value == twisted_torsion(mt, rep)
            assert cellular.acyclic
            assert cellular.homological == cellular.value

    def test_value_is_normalized_zeta(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        zeta = zeta_from_cellular(surface, flow, rep)
        assert (torsion_from_cellular(surface, flow, rep).value
                == normalize_unit_class(zeta))

    def test_non_acyclic_result_reports_zero_homological_class(self):
        value = normalize_unit_class(RationalFunction.one())
        record = CellularTorsion(value, acyclic=False)
        assert record.homological == normalize_unit_class(
            RationalFunction.zero())
        assert record.value == value


class TestLefschetzNumbers:
    def test_hyperbolic_bundle_values(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        assert lefschetz_numbers(surface, flow, rep, 6) == [
            -1, -5, -16, -45, -121, -320]

    def test_identity_bundles(self):
        mt = identity_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        assert lefschetz_numbers(surface, flow, rep, 5) == [0] * 5

        g2 = mapping_torus(GENUS2, GeneratorEndomorphism.identity(GENUS2))
        surface2, flow2 = cellular_model(g2)
        rep2 = FiniteRepresentation.trivial(g2)
        assert lefschetz_numbers(surface2, flow2, rep2, 2) == [-2, -2]

    def test_genus_two_swap_alternates(self):
        mt = genus2_swap_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        assert lefschetz_numbers(surface, flow, rep, 5) == [2, -2, 2, -2, 2]

    def test_needs_positive_count(self):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        with pytest.raises(ValueError):
            lefschetz_numbers(surface, flow, rep, 0)

    @pytest.mark.parametrize("upto", [LEFSCHETZ_LIMIT + 1, 10 ** 30])
    def test_count_past_the_limit_builds_no_zeta(self, monkeypatch, upto):
        mt = anosov_bundle()
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        monkeypatch.setattr(cellular, "zeta_from_cellular", None)
        with pytest.raises(ValueError, match=f"at most {LEFSCHETZ_LIMIT}"):
            lefschetz_numbers(surface, flow, rep, upto)

    @pytest.mark.parametrize("label", ["trivial", "zeta:4", "zeta:59"])
    @pytest.mark.parametrize("source", [
        "torus_A211.json", "torus_pair_a.json", "torus_pair_b.json",
        "genus2_finite_order.json"])
    def test_agrees_with_the_logarithm_of_the_zeta_series(self, source,
                                                          label):
        # L_m = m [t^m] log N - m [t^m] log D against the logarithm of the
        # power series of N/D itself
        bundle, rep = cli._fibered_input(
            cli.RunConfig("lefschetz", (str(FIXTURES / source),), rep=label))
        zeta = zeta_from_cellular(bundle.surface, bundle.flow, rep)
        assert (lefschetz_numbers(bundle.surface, bundle.flow, rep, 300)
                == kernel.log_coefficients(zeta.series(301), 300))

    def test_matches_classical_traces_for_random_monodromies(self):
        rng = random.Random(23)
        count = 0
        while count < 5:
            m = Mat2(rng.randint(-5, 5), rng.randint(-5, 5),
                     rng.randint(-5, 5), rng.randint(-5, 5))
            if m.det() != 1:
                continue
            count += 1
            mt = mapping_torus(
                TORUS, GeneratorEndomorphism.torus_monodromy(m))
            surface, flow = cellular_model(mt)
            rep = FiniteRepresentation.trivial(mt)
            action = HomologyAction.from_monodromy_matrix(
                ((m.a, m.b), (m.c, m.d)))
            computed = lefschetz_numbers(surface, flow, rep, 20)
            expected = [classical_lefschetz(action, i) for i in range(1, 21)]
            assert computed == expected

    def test_orientation_reversing_input_counts_the_inverse_class(self):
        # the flow-return map realizes the inverse substitution, so for an
        # orientation-reversing monodromy the model reproduces the classical
        # numbers of the inverse matrix (they differ at odd iterates)
        m = Mat2(0, 1, 1, 1)
        mt = mapping_torus(TORUS, GeneratorEndomorphism.torus_monodromy(m))
        surface, flow = cellular_model(mt)
        rep = FiniteRepresentation.trivial(mt)
        computed = lefschetz_numbers(surface, flow, rep, 6)
        assert computed == [1, -1, 4, -5, 11, -16]
        inv = m.inverse()
        inverse_action = HomologyAction.from_monodromy_matrix(
            ((inv.a, inv.b), (inv.c, inv.d)))
        assert computed == [classical_lefschetz(inverse_action, i)
                            for i in range(1, 7)]
        forward_action = HomologyAction.from_monodromy_matrix(
            ((m.a, m.b), (m.c, m.d)))
        assert computed != [classical_lefschetz(forward_action, i)
                            for i in range(1, 7)]


class TestShapiroOracle:
    """By Shapiro's lemma the permutation representation on (Z/n)^2
    computes the invariants of the cover with fiber R^2 / nZ^2 and the
    same monodromy, which are those of the bundle itself: each invariant
    under the degree-16 affine representation equals the trivial one."""

    def test_degree_sixteen_affine_matches_trivial(self):
        a211 = load_fixture(FIXTURES / "torus_A211.json").payload
        mt = mapping_torus(TORUS, GeneratorEndomorphism.torus_monodromy(a211))
        surface, flow = cellular_model(mt)

        def invariants(rep):
            return ([twisted_alexander(mt, rep, n) for n in range(4)],
                    torsion_from_cellular(surface, flow, rep),
                    twisted_torsion(mt, rep),
                    zeta_from_cellular(surface, flow, rep),
                    lefschetz_numbers(surface, flow, rep, 10))

        affine = reference.affine_rep(mt, 4)
        assert affine.dimension == 16
        deltas, by_flow, by_orders, zeta, lefschetz = invariants(affine)
        want = invariants(FiniteRepresentation.trivial(mt))
        assert all(d.unit_equal(w) for d, w in zip(deltas, want[0]))
        assert not any(d.is_zero() for d in deltas)
        assert by_flow == want[1] and by_flow.acyclic
        assert by_orders == want[2] == by_flow.value
        assert zeta == want[3]
        assert lefschetz == want[4]


class TestSparseFiberedPath:
    """The twisted matrices of the fibered path are assembled as sparse
    rows and never as a dense grid."""

    # Delta_0..Delta_3 of genus2_finite_order under the degree-16 affine
    # representation, as computed before matrices were stored sparse
    DELTAS = ((-1, 1),
              (1, 6, 1, -64, -104, 272, 792, -448, -3108, -728, 7644, 5824,
               -12376, -16016, 12584, 27456, -5434, -32604, -5434, 27456,
               12584, -16016, -12376, 5824, 7644, -728, -3108, -448, 792,
               272, -104, -64, 1, 6, 1),
              (-1, 1),
              (1,))
    ZETA = (1, 8, 16, -40, -200, -88, 816, 1272, -1380, -4760, -496, 9592,
            7304, -11000, -16720, 5016, 21318, 5016, -16720, -11000, 7304,
            9592, -496, -4760, -1380, 1272, 816, -88, -200, -40, 16, 8, 1)

    def test_matrices_store_only_their_nonzero_entries(self, monkeypatch):
        builds = []
        build = PolyMatrix.build
        monkeypatch.setattr(PolyMatrix, "build", staticmethod(
            lambda *args: builds.append(args) or build(*args)))
        surface, flow = cellular_model(
            load_fixture(FIXTURES / "genus2_finite_order.json").payload)
        mt = surface.presentation
        rep = reference.affine_rep(mt, 2)
        deltas = [twisted_alexander(mt, rep, n) for n in range(4)]
        zeta = zeta_from_cellular(surface, flow, rep)
        matrices = (surfgrp._presentation_boundaries(mt, rep)
                    + mapping_torus_boundaries(mt, rep)
                    + flow_boundary_matrices(surface, flow, rep))
        assert builds == []
        assert all(reference.canonical_rows(m) for m in matrices)
        assert [m.rows for m in matrices] == [16, 80, 16, 80, 80, 16, 64, 16]
        assert deltas == [LaurentPolynomial.from_coefficients(c)
                          for c in self.DELTAS]
        assert zeta == RationalFunction(
            LaurentPolynomial.from_coefficients(self.ZETA))


class TestMonomialFlowZeta:
    """Under affine:2 and affine:3 the flow matrices of genus2_finite_order
    are monomial, so each det(xI - F) is a product over the cycles of F's
    pattern: a route to the zeta function that runs no Berkowitz."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_zeta_matches_the_cycle_product(self, n):
        surface, flow = cellular_model(
            load_fixture(FIXTURES / "genus2_finite_order.json").payload)
        rep = reference.affine_rep(surface.presentation, n)
        assert rep.dimension == n ** 4
        f0, f1, f2 = (LaurentPolynomial(enumerate(reference.monomial_charpoly(
            [[(j, e.terms[0]) for j, e in row] for row in f.sparse])))
            for f in flow_boundary_matrices(surface, flow, rep))
        assert zeta_from_cellular(surface, flow, rep) == RationalFunction(
            f1, f0 * f2)


# ---------------------------------------------------------------------------
# the three-dimensional boundary stack
# ---------------------------------------------------------------------------

class TestMappingTorusBoundaries:
    def test_shapes_and_compositions(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation.trivial(mt)
        d1, d2, d3 = mapping_torus_boundaries(mt, rep)
        assert (d1.rows, d1.cols) == (1, 3)
        assert (d2.rows, d2.cols) == (3, 3)
        assert (d3.rows, d3.cols) == (3, 1)
        assert (d1 @ d2).is_zero()
        assert (d2 @ d3).is_zero()

    def test_broken_top_cell_is_detected(self, monkeypatch):
        # d3 is the only chain built with an offset: flip its first term
        mt = anosov_bundle()
        fox_chain = surfgrp._fox_chain

        def tampered(word, n_generators, offset=0, images=None):
            ((path, terms),) = fox_chain(word, n_generators, offset, images)
            if offset:
                (end, target, coeff), *rest = terms
                terms = ((end, target, -coeff), *rest)
            return ((path, tuple(terms)),)

        monkeypatch.setattr(surfgrp, "_fox_chain", tampered)
        with pytest.raises(AssertionError, match=re.escape(
                "three-dimensional chain model lost d.d = 0")):
            mapping_torus_boundaries(
                mt, mod2_permutation_rep(mt, Mat2(2, 1, 1, 1)))

    @staticmethod
    def break_presentation_complex(monkeypatch):
        """Make the 1-cell of the first generator bound g + 1 instead of
        g - 1 in every presentation complex built from now on."""
        chains = surfgrp._presentation_chains

        def tampered(n_generators, relators):
            one, two = chains(n_generators, relators)
            ((word, ((end, target, _), *rest)),) = one[0]
            return (((word, ((end, target, 1), *rest)),),) + one[1:], two

        monkeypatch.setattr(surfgrp, "_presentation_chains", tampered)

    def test_broken_presentation_complex_is_detected(self, monkeypatch):
        mt = anosov_bundle()
        self.break_presentation_complex(monkeypatch)
        with pytest.raises(AssertionError, match=re.escape(
                "presentation complex lost d.d = 0")):
            mapping_torus_boundaries(
                mt, mod2_permutation_rep(mt, Mat2(2, 1, 1, 1)))

    @pytest.mark.parametrize("move", [
        lambda mt: mt,
        lambda mt: mt.cycle_relator(1, 2),
    ], ids=["canonical", "cycled"])
    def test_broken_presentation_complex_fails_before_elimination(
            self, monkeypatch, move):
        # Delta_1 alone reads the presentation complex, whose builder owns
        # d1 d2 = 0: it raises before any Smith form, on the canonical
        # presentation and on a non-canonical one, which the
        # three-dimensional model never reads
        mt = move(anosov_bundle())
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        self.break_presentation_complex(monkeypatch)
        eliminations = []
        smith = kernel.smith_diagonalize
        monkeypatch.setattr(kernel, "smith_diagonalize",
                            lambda m: eliminations.append(m) or smith(m))
        with pytest.raises(AssertionError, match=re.escape(
                "presentation complex lost d.d = 0")):
            twisted_alexander(mt, rep, 1)
        assert eliminations == []

    def test_bounded_fiber_has_no_top_cell(self):
        free = SurfacePresentation.with_boundary(1, 1)
        phi = GeneratorEndomorphism(free, ((1, 1, 2), (1, 2)))
        mt = mapping_torus(free, phi)
        rep = FiniteRepresentation.trivial(mt)
        _, d2, d3 = mapping_torus_boundaries(mt, rep)
        assert (d2.rows, d2.cols) == (3, 2)
        assert d3.cols == 0

    def test_higher_dimensional_blocks(self):
        mt = anosov_bundle()
        rep = mod2_permutation_rep(mt, Mat2(2, 1, 1, 1))
        d1, d2, d3 = mapping_torus_boundaries(mt, rep)
        assert (d1.rows, d1.cols) == (4, 12)
        assert (d2.rows, d2.cols) == (12, 12)
        assert (d3.rows, d3.cols) == (12, 4)
        assert (d1 @ d2).is_zero()
        assert (d2 @ d3).is_zero()
