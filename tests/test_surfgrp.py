"""Tests for surface presentations, monodromies, and twisted invariants."""

import itertools
import random
import re
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from procong.kernel import (
    Cyclotomic,
    LaurentPolynomial,
    as_exact,
    RationalFunction,
    normalize_unit_class,
)
from procong import cellular, surfgrp
from procong.cellular import (cellular_model, flow_boundary_matrices,
                              mapping_torus_boundaries)
from procong.surfgrp import (
    FiniteRepresentation,
    GeneratorEndomorphism,
    SurfacePresentation,
    exponent_sum,
    fox_derivative,
    free_reduce,
    group_ring_image,
    mapping_torus,
    twisted_alexander,
    twisted_torsion,
    word_concat,
    word_inverse,
    _chain_matrix,
    _presentation_boundaries,
    _fox_chain,
)
from procong.serialize import (KIND_MAPPING_TORUS, dumps,
                               encode_mapping_torus, load_fixture,
                               parse_fixture)
from procong.torus import Mat2, rl_runs
from reference import (affine_rep, cyclic_reduce, dense, dense_entries,
                       mat_inverse, poly_matrix, replace)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def poly(*coeffs, valuation=0):
    return LaurentPolynomial.from_coefficients(coeffs, valuation)


TORUS = SurfacePresentation.closed(1)
GENUS2 = SurfacePresentation.closed(2)

# a -> a^2 b, b -> a b with its exact inverse a -> a b^-1, b -> b a^-1 b
ANOSOV_WORDS = GeneratorEndomorphism(
    TORUS, ((1, 1, 2), (1, 2)), ((1, -2), (2, -1, 2)))


def assert_witness_inverts(endo):
    """The whole-word witness check, as an oracle: each inverse word
    substituted into the images, and each image into the inverse words,
    is its generator."""
    for j in range(1, endo.source.rank + 1):
        assert endo.apply(endo.inverse_images[j - 1]) == (j,)
        assert surfgrp._substitute(endo.inverse_images,
                                   endo.images[j - 1]) == (j,)


def decoded(body):
    """The presentation that a `mapping_torus` fixture body decodes to."""
    return parse_fixture(dumps(KIND_MAPPING_TORUS, body)).payload


def anosov_bundle():
    phi = GeneratorEndomorphism.torus_monodromy(Mat2(2, 1, 1, 1))
    return mapping_torus(TORUS, phi)


def identity_bundle():
    return mapping_torus(TORUS, GeneratorEndomorphism.identity(TORUS))


def genus2_identity_bundle():
    return mapping_torus(GENUS2, GeneratorEndomorphism.identity(GENUS2))


def genus2_swap_bundle():
    swap = GeneratorEndomorphism(GENUS2, ((3,), (4,), (1,), (2,)),
                                 ((3,), (4,), (1,), (2,)))
    return mapping_torus(GENUS2, swap)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

letters3 = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
words3 = st.lists(letters3, max_size=10).map(tuple)
letters2 = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
words2 = st.lists(letters2, max_size=8).map(tuple)


def combo_dict(terms):
    """Collapse (coefficient, word) pairs into a word -> coefficient map."""
    acc = {}
    for coeff, word in terms:
        w = free_reduce(word)
        acc[w] = acc.get(w, 0) + coeff
        if acc[w] == 0:
            del acc[w]
    return acc


def is_rotation(u, v):
    if len(u) != len(v):
        return False
    if not u:
        return True
    return any(v[j:] + v[:j] == u for j in range(len(v)))


# ---------------------------------------------------------------------------
# free word calculus
# ---------------------------------------------------------------------------

class TestWordCalculus:
    def test_free_reduce_cancels_adjacent_inverse_pairs(self):
        assert free_reduce((1, 2, -2, -1, 3)) == (3,)
        assert free_reduce((1, -1)) == ()
        assert free_reduce(()) == ()

    def test_free_reduce_rejects_zero_letters(self):
        with pytest.raises(ValueError):
            free_reduce((1, 0, 2))

    @given(words3)
    def test_free_reduce_is_idempotent(self, w):
        once = free_reduce(w)
        assert free_reduce(once) == once

    @given(words3)
    def test_word_times_inverse_is_trivial(self, w):
        assert word_concat(w, word_inverse(w)) == ()
        assert word_concat(word_inverse(w), w) == ()

    def test_cyclic_reduce_strips_outer_conjugation(self):
        assert cyclic_reduce((1, 2, 3, -2, -1)) == (3,)
        assert cyclic_reduce((1, -1)) == ()

    @given(words3, words3)
    def test_cyclic_reduction_of_conjugates_agree_up_to_rotation(self, u, w):
        conjugated = word_concat(u, w, word_inverse(u))
        assert is_rotation(cyclic_reduce(conjugated), cyclic_reduce(w))

    def test_exponent_sum_counts_signed_occurrences(self):
        assert exponent_sum((1, 2, -1, 2, 2), 2) == 3
        assert exponent_sum((1, 2, -1), 1) == 0
        assert exponent_sum((), 3) == 0
        with pytest.raises(ValueError):
            exponent_sum((1,), 0)

    @given(words3, words3)
    def test_exponent_sum_additive_under_concatenation(self, u, v):
        for i in (1, 2, 3):
            assert (exponent_sum(word_concat(u, v), i)
                    == exponent_sum(u, i) + exponent_sum(v, i))

    def test_derivative_of_single_letters(self):
        assert fox_derivative((1,), 1) == ((1, ()),)
        assert fox_derivative((-1,), 1) == ((-1, (-1,)),)
        assert fox_derivative((2,), 1) == ()

    def test_derivative_of_commutator(self):
        # d(aba^-1b^-1)/da = 1 - aba^-1
        assert combo_dict(fox_derivative((1, 2, -1, -2), 1)) == {
            (): 1, (1, 2, -1): -1}
        # d(aba^-1b^-1)/db = a - aba^-1b^-1
        assert combo_dict(fox_derivative((1, 2, -1, -2), 2)) == {
            (1,): 1, (1, 2, -1, -2): -1}

    @given(words3, words3)
    def test_derivative_product_rule(self, u, v):
        # d(uv)/dg = du/dg + u * dv/dg in the group ring
        for g in (1, 2, 3):
            left = combo_dict(fox_derivative(word_concat(u, v), g))
            expected = combo_dict(
                tuple(fox_derivative(u, g))
                + tuple((c, word_concat(u, w))
                        for c, w in fox_derivative(v, g)))
            assert left == expected

    @given(words3)
    def test_derivative_fundamental_identity(self, w):
        # sum_g (dw/dg) * (g - 1) = w - 1 in the group ring
        acc = {}
        for g in (1, 2, 3):
            for coeff, u in fox_derivative(w, g):
                for c, piece in ((coeff, word_concat(u, (g,))), (-coeff, u)):
                    acc[piece] = acc.get(piece, 0) + c
                    if acc[piece] == 0:
                        del acc[piece]
        reduced = free_reduce(w)
        expected = {} if reduced == () else {reduced: 1, (): -1}
        assert acc == expected

    @staticmethod
    def textbook_derivative(word, g):
        """d(u x)/dg = du/dg + u dx/dg with dg/dg = 1 and d(g^-1)/dg = -g^-1,
        expanded letter by letter; term words are freely reduced."""
        terms = []
        prefix = ()
        for letter in word:
            if letter == g:
                terms.append((1, free_reduce(prefix)))
            elif letter == -g:
                terms.append((-1, free_reduce(prefix + (letter,))))
            prefix = prefix + (letter,)
        return tuple(terms)

    def test_derivative_is_pinned_to_the_textbook_recurrence(self):
        rng = random.Random(1953)
        letters = [x for x in range(-4, 5) if x != 0]
        for _ in range(200):
            raw = tuple(rng.choice(letters) for _ in range(rng.randrange(40)))
            reduced = free_reduce(raw)
            for g in (1, 2, 3, 4):
                terms = fox_derivative(reduced, g)
                assert terms == self.textbook_derivative(reduced, g)
                assert fox_derivative(raw, g) == terms
                assert (combo_dict(terms)
                        == combo_dict(self.textbook_derivative(raw, g)))
                for _, u in terms:
                    assert reduced[:len(u)] == u


# ---------------------------------------------------------------------------
# surface presentations
# ---------------------------------------------------------------------------

class TestSurfacePresentation:
    def test_closed_torus_shape(self):
        assert TORUS.generators == ("a1", "b1")
        assert TORUS.relators == ((1, 2, -1, -2),)
        assert TORUS.rank == 2
        assert TORUS.boundary_count == 0

    def test_closed_genus_two_shape(self):
        assert GENUS2.generators == ("a1", "b1", "a2", "b2")
        assert GENUS2.relators == ((1, 2, -1, -2, 3, 4, -3, -4),)

    def test_closed_genus_zero(self):
        sphere = SurfacePresentation.closed(0)
        assert sphere.generators == ()
        assert sphere.relators == ((),)

    def test_bounded_surfaces_are_free(self):
        punctured_torus = SurfacePresentation.with_boundary(1, 1)
        assert punctured_torus.rank == 2
        assert punctured_torus.relators == ()
        pair_of_pants = SurfacePresentation.with_boundary(0, 3)
        assert pair_of_pants.rank == 2
        assert pair_of_pants.generators == ("c1", "c2")
        assert SurfacePresentation.with_boundary(2, 3).rank == 6

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SurfacePresentation(1, 0, ("a1",), ((1,),))
        with pytest.raises(ValueError):
            SurfacePresentation(1, 0, ("a1", "a1"), ((1, 2, -1, -2),))
        with pytest.raises(ValueError):
            # relator not freely reduced
            SurfacePresentation(1, 0, ("a1", "b1"), ((1, -1, 2, -2),))
        with pytest.raises(ValueError):
            # letter out of range
            SurfacePresentation(1, 0, ("a1", "b1"), ((1, 3, -1, -3),))
        with pytest.raises(ValueError):
            SurfacePresentation.with_boundary(1, 0)

    def test_json_round_trip(self):
        for pres in (TORUS, GENUS2, SurfacePresentation.with_boundary(1, 2)):
            mt = mapping_torus(pres, GeneratorEndomorphism.identity(pres))
            assert decoded(encode_mapping_torus(mt)).fiber == pres


# ---------------------------------------------------------------------------
# generator endomorphisms
# ---------------------------------------------------------------------------

class TestGeneratorEndomorphism:
    def test_identity(self):
        ident = GeneratorEndomorphism.identity(TORUS)
        assert ident.apply((1, -2, 1)) == (1, -2, 1)
        assert ident.abelianization() == ((1, 0), (0, 1))
        assert ident.relator_conjugacy() == (1, ())

    def test_word_substitution(self):
        assert ANOSOV_WORDS.apply((1,)) == (1, 1, 2)
        assert ANOSOV_WORDS.apply((-2,)) == (-2, -1)
        # the image of the inverse-witness word a b^-1 collapses back to a
        assert ANOSOV_WORDS.apply((1, -2)) == (1,)
        assert ANOSOV_WORDS.abelianization() == ((2, 1), (1, 1))

    def test_inverse_witness_round_trip(self):
        inv = ANOSOV_WORDS.inverse()
        assert inv.abelianization() == ((1, -1), (-1, 2))
        ident = GeneratorEndomorphism.identity(TORUS)
        assert ANOSOV_WORDS.compose(inv).images == ident.images
        assert inv.compose(ANOSOV_WORDS).images == ident.images

    def test_wrong_inverse_witness_is_rejected(self):
        with pytest.raises(ValueError, match="witness"):
            GeneratorEndomorphism(TORUS, ((1, 1, 2), (1, 2)),
                                  ((-2, 1), (2, -1, -1, 1)))

    def test_missing_witness_blocks_inversion(self):
        bare = GeneratorEndomorphism(TORUS, ((1, 1, 2), (1, 2)))
        with pytest.raises(ValueError, match="witness"):
            bare.inverse()

    def test_composition_multiplies_homology_matrices(self):
        a = GeneratorEndomorphism.torus_monodromy(Mat2(2, 1, 1, 1))
        b = GeneratorEndomorphism.torus_monodromy(Mat2(1, 1, 0, 1))
        product = Mat2(2, 1, 1, 1) @ Mat2(1, 1, 0, 1)
        assert (a.compose(b).abelianization()
                == ((product.a, product.b), (product.c, product.d)))

    def test_power(self):
        squared = ANOSOV_WORDS.power(2)
        assert squared.abelianization() == ((5, 3), (3, 2))
        assert ANOSOV_WORDS.power(0).images == ((1,), (2,))
        with pytest.raises(ValueError):
            ANOSOV_WORDS.power(-1)

    def test_long_composed_words_are_refused(self):
        # the words of this product would have about 10^13 letters: the
        # lengths are counted, and the product refused, before any is built
        def too_slow(*_):
            raise TimeoutError("the product was not refused within 1 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1)
        try:
            phi = GeneratorEndomorphism.torus_monodromy(
                Mat2(188, 275, 121, 177))
            with pytest.raises(ValueError, match=(
                    f"above the bound of {surfgrp.WORD_CAP}$")):
                phi.compose(phi).power(3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_relator_conjugacy_certificates(self):
        sign, conj = ANOSOV_WORDS.relator_conjugacy()
        relator = TORUS.relators[0]
        rebuilt = word_concat(
            conj,
            relator if sign == 1 else word_inverse(relator),
            word_inverse(conj))
        assert rebuilt == ANOSOV_WORDS.apply(relator)

    def test_orientation_reversing_swap_has_negative_certificate(self):
        w = GeneratorEndomorphism.torus_monodromy(Mat2(0, 1, 1, 0))
        assert w.images == ((2,), (1,))
        assert w.relator_conjugacy() == (-1, ())

    def test_genus_two_handle_swap_certificate(self):
        swap = GeneratorEndomorphism(GENUS2, ((3,), (4,), (1,), (2,)))
        assert swap.relator_conjugacy() == (1, (2, 1, -2, -1))
        swap.validate()

    def test_non_unimodular_images_fail_validation(self):
        squaring = GeneratorEndomorphism(TORUS, ((1, 1), (2,)))
        # a failed check is not remembered as a pass
        for check in (squaring.validate, squaring.validate,
                      lambda: mapping_torus(TORUS, squaring)):
            with pytest.raises(ValueError, match="unimodular"):
                check()

    def test_unimodular_but_relator_breaking_images_fail(self):
        # swapping only one handle pair scrambles the relator
        partial = GeneratorEndomorphism(GENUS2, ((1,), (2,), (4,), (3,)))
        for check in (partial.validate, partial.relator_conjugacy,
                      lambda: mapping_torus(GENUS2, partial)):
            with pytest.raises(ValueError, match="relator"):
                check()

    def test_torus_monodromy_recovers_matrix(self):
        rng = random.Random(11)
        count = 0
        while count < 10:
            m = Mat2(rng.randint(-5, 5), rng.randint(-5, 5),
                     rng.randint(-5, 5), rng.randint(-5, 5))
            if m.det() not in (1, -1):
                continue
            count += 1
            endo = GeneratorEndomorphism.torus_monodromy(m)
            assert endo.abelianization() == ((m.a, m.b), (m.c, m.d))
            assert endo.inverse_images is not None
            inverse = m.inverse()
            assert (endo.inverse().abelianization()
                    == ((inverse.a, inverse.b), (inverse.c, inverse.d)))

    def test_torus_monodromy_checks_the_witness_once(self, monkeypatch):
        checked = []
        original = GeneratorEndomorphism.__init__

        def counted(self, *args, **kwargs):
            original(self, *args, **kwargs)
            checked.append((self.images, self.inverse_images))

        monkeypatch.setattr(GeneratorEndomorphism, "__init__", counted)
        for m in (Mat2(188, 275, 121, 177), Mat2(1, 1, 1, 0),
                  Mat2(188, 11, 3025, 177), Mat2(-2, -1, -1, -1),
                  Mat2(1, 2, 1, 1)):
            checked.clear()
            endo = GeneratorEndomorphism.torus_monodromy(m)
            sign, moves = rl_runs(m if m.det() == 1 else m @ Mat2(0, 1, 1, 0))
            moves += [("N", 1)] * (sign == -1) + [("W", 1)] * (m.det() == -1)
            # one short witness check per move; the product is never checked
            assert checked == [(surfgrp._torus_move(letter, k),
                                surfgrp._torus_move(letter, -k))
                               for letter, k in moves]
        # composite results are built without a check as well
        checked.clear()
        ANOSOV_WORDS.compose(ANOSOV_WORDS.inverse()).power(3)
        GeneratorEndomorphism.identity(TORUS)
        assert checked == []
        monkeypatch.undo()
        # a factor with a wrong witness is still rejected when it is built
        with pytest.raises(ValueError, match="witness"):
            GeneratorEndomorphism(TORUS, surfgrp._torus_move("R", 3),
                                  surfgrp._torus_move("R", -2))
        # the fold equals the composition of the R/L run moves
        m = Mat2(188, 275, 121, 177)
        sign, runs = rl_runs(m)
        assert sign == 1
        reference = GeneratorEndomorphism.identity(TORUS)
        for letter, k in runs:
            reference = reference.compose(GeneratorEndomorphism(
                TORUS, surfgrp._torus_move(letter, k),
                surfgrp._torus_move(letter, -k)))
        assert GeneratorEndomorphism.torus_monodromy(m) == reference

    def test_shipped_monodromies_pass_the_witness_oracle(self):
        lengths = {}
        for name in ("torus_A211", "torus_pair_a", "torus_pair_b"):
            endo = GeneratorEndomorphism.torus_monodromy(
                load_fixture(FIXTURES / f"{name}.json").payload)
            assert_witness_inverts(endo)
            lengths[name] = (sum(map(len, endo.images)),
                             sum(map(len, endo.inverse_images)))
        assert lengths == {"torus_A211": (5, 5), "torus_pair_a": (761, 761),
                           "torus_pair_b": (3401, 3401)}
        assert_witness_inverts(load_fixture(
            FIXTURES / "genus2_finite_order.json").payload.monodromy)

    def test_products_pass_the_witness_oracle(self):
        genus2 = load_fixture(
            FIXTURES / "genus2_finite_order.json").payload.monodromy
        for a, b in ((ANOSOV_WORDS,
                      GeneratorEndomorphism.torus_monodromy(Mat2(3, -1, 7, -2))),
                     (GeneratorEndomorphism.torus_monodromy(Mat2(0, 1, 1, 0)),
                      ANOSOV_WORDS.inverse()),
                     (genus2, genus2.inverse())):
            for endo in (a.compose(b), b.compose(a), a.inverse(),
                         b.inverse(), *(a.power(m) for m in range(6))):
                assert_witness_inverts(endo)
                assert endo.validate() is endo

    def test_random_unimodular_monodromies_pass_the_witness_oracle(self):
        rng = random.Random(20)
        count = 0
        while count < 200:
            m = Mat2(*(rng.randint(-20, 20) for _ in range(4)))
            if m.det() in (1, -1):
                count += 1
                assert_witness_inverts(GeneratorEndomorphism.torus_monodromy(m))

    def test_torus_monodromy_builds_every_small_matrix(self):
        count = 0
        for a, b, c, d in itertools.product(range(-10, 11), repeat=4):
            if a * d - b * c in (1, -1):
                endo = GeneratorEndomorphism.torus_monodromy(Mat2(a, b, c, d))
                assert endo.abelianization() == ((a, b), (c, d))
                count += 1
        assert count == 2024

    def test_torus_monodromy_of_pair_b(self):
        # positive runs never cancel: the images are as long as the column
        # sums, 3213 + 188 = 3401 letters
        def too_slow(*_):
            raise TimeoutError("pair B monodromy took over 20 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 20)
        try:
            endo = GeneratorEndomorphism.torus_monodromy(
                Mat2(188, 11, 3025, 177))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert [len(w) for w in endo.images] == [3213, 188]

    def test_torus_monodromy_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            GeneratorEndomorphism.torus_monodromy(Mat2(2, 0, 0, 1))
        with pytest.raises(ValueError):
            GeneratorEndomorphism.torus_monodromy(Mat2(1, 1, 1, 1))

    @given(words2, words2)
    def test_substitution_is_a_homomorphism(self, u, v):
        assert (ANOSOV_WORDS.apply(word_concat(u, v))
                == word_concat(ANOSOV_WORDS.apply(u), ANOSOV_WORDS.apply(v)))

    def test_image_word_count_enforced(self):
        with pytest.raises(ValueError):
            GeneratorEndomorphism(TORUS, ((1,),))

    @pytest.mark.parametrize("images", [((1.7,), (2.2,)), ((1,), (True,)),
                                        ((1, "2"), (2,))])
    def test_non_integer_letters_are_rejected(self, images):
        # int() would truncate ((1.7,), (2.2,)) to the identity
        bad = next(x for w in images for x in w if type(x) is not int)
        mt = mapping_torus(TORUS, ANOSOV_WORDS)
        for path, message in [
                (("monodromy", "images"),
                 re.escape(f"images must be an integer, got {bad!r}")),
                (("monodromy", "inverse_images"),
                 "inverse_images must be an integer"),
                (("fiber", "relators"), "fiber relators must be an integer")]:
            body = encode_mapping_torus(mt)
            words = [list(w) for w in images]
            if path[1] == "relators":
                words = [words[0] + words[1]]
            body[path[0]][path[1]] = words
            with pytest.raises(ValueError, match=message):
                decoded(body)
        body = encode_mapping_torus(mt)
        body["relators"][2][-1] = float(body["relators"][2][-1])
        with pytest.raises(ValueError, match="^relators must be an integer"):
            decoded(body)

    def test_json_round_trip(self):
        for endo in (ANOSOV_WORDS, GeneratorEndomorphism(TORUS, ((2,), (1,)))):
            body = encode_mapping_torus(mapping_torus(TORUS, endo))
            assert ("inverse_images" in body["monodromy"]) == (
                endo.inverse_images is not None)
            assert decoded(body).monodromy == endo


# ---------------------------------------------------------------------------
# mapping torus presentations
# ---------------------------------------------------------------------------

class TestMappingTorus:
    def test_flow_relators_conjugate_by_stable_letter(self):
        mt = mapping_torus(TORUS, ANOSOV_WORDS)
        assert mt.generators == ("a1", "b1", "t")
        assert mt.stable_index == 3
        assert mt.fiber_values == (0, 0, 1)
        assert mt.relators == (
            (1, 2, -1, -2),
            (3, 1, -3, -2, -1, -1),
            (3, 2, -3, -2, -1),
        )

    def test_degree_class(self):
        mt = anosov_bundle()
        assert mt.degree((3,)) == 1
        assert mt.degree((-3,)) == -1
        assert mt.degree((1, 2, -1)) == 0
        assert all(mt.degree(r) == 0 for r in mt.relators)

    def test_abelianizations(self):
        assert anosov_bundle().abelianization() == (1, ())
        assert identity_bundle().abelianization() == (3, ())
        assert genus2_identity_bundle().abelianization() == (5, ())
        assert genus2_swap_bundle().abelianization() == (3, ())

    def test_torsion_in_abelianization(self):
        # a -> a, b -> a^2 b has A - I = [[0,2],[0,0]]: coker Z + Z/2
        shear = GeneratorEndomorphism(TORUS, ((1,), (1, 1, 2)))
        mt = mapping_torus(TORUS, shear)
        assert mt.abelianization() == (2, (2,))

    def test_stable_letter_name_avoids_collision(self):
        pres = SurfacePresentation(0, 2, ("t",), ())
        mt = mapping_torus(pres, GeneratorEndomorphism.identity(pres))
        assert mt.generators == ("t", "t'")
        assert mt.stable_index == 2

    def test_monodromy_must_match_presentation(self):
        with pytest.raises(ValueError):
            mapping_torus(GENUS2, ANOSOV_WORDS)

    def test_invalid_monodromy_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            mapping_torus(TORUS, GeneratorEndomorphism(TORUS, ((1, 1), (2,))))

    def test_relators_must_have_degree_zero(self):
        mt = anosov_bundle()
        with pytest.raises(ValueError,
                           match="^every relator must have degree zero$"):
            replace(mt, relators=mt.relators + ((3,),))

    @pytest.mark.parametrize("generators, name", [
        (("x", "b1", "t"), "a1"),        # missing
        (("a1", "a1", "t"), "a1"),       # twice
        (("b1", "t", "a1"), "a1"),       # as the stable letter
        (("a1", "x", "b1"), "b1"),
    ])
    def test_generators_name_each_fiber_generator_once(self, generators,
                                                       name):
        # the canonical presentation is matched to this one by name
        mt = anosov_bundle()
        message = (f"generators must name fiber generator '{name}' once, "
                   "other than the stable letter")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(mt, generators=generators)

    def test_presentation_moves_preserve_abelianization(self):
        mt = anosov_bundle()
        moved = (mt.cycle_relator(1, 2)
                 .invert_relator(0)
                 .conjugate_relator(2, (1, -2))
                 .add_generator("x", (3, 1)))
        assert moved.rank == 4
        assert moved.fiber_values == (0, 0, 1, 1)
        assert moved.abelianization() == mt.abelianization()

    def test_cycle_relator_rotates(self):
        mt = anosov_bundle()
        assert mt.cycle_relator(0, 1).relators[0] == (2, -1, -2, 1)

    def test_invert_relator(self):
        mt = anosov_bundle()
        assert mt.invert_relator(0).relators[0] == (2, 1, -2, -1)

    def test_add_generator_records_definition(self):
        mt = anosov_bundle()
        extended = mt.add_generator("x", (3, 1, -3))
        assert extended.generators[-1] == "x"
        assert extended.relators[-1] == (4, 3, -1, -3)
        with pytest.raises(ValueError):
            mt.add_generator("t", (1,))

    def test_json_round_trip(self):
        for mt in (anosov_bundle(), genus2_swap_bundle()):
            assert decoded(encode_mapping_torus(mt)) == mt


# ---------------------------------------------------------------------------
# finite matrix representations
# ---------------------------------------------------------------------------

class TestFiniteRepresentation:
    def test_trivial_representation(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation.trivial(mt)
        assert rep.dimension == 1
        assert rep.matrices == (((1,),),) * 3
        rep.validate(mt)

    def test_fibered_character_powers_the_unit_by_degree(self):
        mt = anosov_bundle()
        sign = FiniteRepresentation.fibered_character(mt, -1)
        assert sign.matrices == (((1,),), ((1,),), ((-1,),))
        sign.validate(mt)

    def test_fibered_character_with_cyclotomic_unit(self):
        mt = anosov_bundle()
        z = Cyclotomic.root(4)
        rep = FiniteRepresentation.fibered_character(mt, z)
        rep.validate(mt)
        assert dense(rep.evaluate_word((3, 3))) == ((-1,),)
        assert dense(rep.evaluate_word((-3,))) == ((z ** 3,),)

    def test_negative_letters_invert(self):
        z = Cyclotomic.root(8, 3)
        rep = FiniteRepresentation(1, (((1,),), ((1,),), ((z,),)))
        assert dense(rep.evaluate_word((-3,))) == ((Cyclotomic.root(8, 5),),)
        assert dense(rep.evaluate_word((3, -3))) == ((1,),)
        assert dense(rep.evaluate_word((-3,) * 8)) == ((1,),)

    def test_word_under_an_infinite_order_generator_exceeds_cap(
            self, monkeypatch):
        # the inverse of 1/2 is no product of the generators: the word is
        # refused before any relator check
        monkeypatch.setattr(surfgrp, "ORDER_CAP", 50)
        halving = FiniteRepresentation(
            1, (((1,),), ((1,),), ((Fraction(1, 2),),)))
        for word in ((-3,), (1, 2)):
            with pytest.raises(ValueError, match="cap 50"):
                halving.evaluate_word(word)

    def test_validate_needs_one_matrix_per_generator(self):
        mt = anosov_bundle()
        with pytest.raises(ValueError, match="one matrix"):
            FiniteRepresentation(1, (((1,),), ((1,),))).validate(mt)

    def test_validate_rejects_relator_violation(self):
        mt = anosov_bundle()
        bad = FiniteRepresentation(1, (((-1,),), ((1,),), ((1,),)))
        with pytest.raises(ValueError, match="relator"):
            bad.validate(mt)

    def test_validate_rejects_singular_matrix(self):
        mt = anosov_bundle()
        degenerate = FiniteRepresentation(1, (((1,),), ((1,),), ((0,),)))
        with pytest.raises(ValueError, match="singular"):
            degenerate.validate(mt)

    def test_infinite_image_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(surfgrp, "ORDER_CAP", 50)
        mt = anosov_bundle()
        doubling = FiniteRepresentation(1, (((1,),), ((1,),), ((2,),)))
        with pytest.raises(ValueError, match="cap 50"):
            doubling.validate(mt)

    def test_conjugate_and_restrict(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation(
            2, (((1, 0), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, -1))))
        conj = rep.conjugate(((1, 1), (0, 1)))
        assert conj.dimension == 2
        assert conj.matrices[2] == ((1, -2), (0, -1))
        restricted = rep.restricted((3, 1))
        assert restricted.matrices == (rep.matrices[2], rep.matrices[0])

    def test_dimension_zero_is_allowed(self):
        mt = anosov_bundle()
        empty = FiniteRepresentation(0, ((), (), ()))
        empty.validate(mt)


# ---------------------------------------------------------------------------
# twisted chain data
# ---------------------------------------------------------------------------

class TestFoxMatrices:
    def test_group_ring_image_applies_degree_twist(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation.trivial(mt)
        image = group_ring_image(mt, rep, ((1, (3,)), (-1, ())))
        assert image.rows == 1 and image.cols == 1
        assert dense_entries(image) == ((poly(-1, 1),),)

    def test_matrix_of_explicit_monodromy_words(self):
        mt = mapping_torus(TORUS, ANOSOV_WORDS)
        rep = FiniteRepresentation.trivial(mt)
        fox = _presentation_boundaries(mt, rep)[1].grid_transpose()
        assert fox.rows == 3 and fox.cols == 3
        expected = [
            [poly(0), poly(0), poly(0)],
            [poly(-2, 1), poly(-1), poly(0)],
            [poly(-1), poly(-1, 1), poly(0)],
        ]
        assert dense_entries(fox) == tuple(map(tuple, expected))

    def test_dimension_zero_representation_gives_empty_matrix(self):
        mt = anosov_bundle()
        empty = FiniteRepresentation(0, ((), (), ()))
        fox = _presentation_boundaries(mt, empty)[1].grid_transpose()
        assert fox.rows == 0 and fox.cols == 0


def naive_chain_matrix(mt, rep, chains, n_targets, strip_degree=0):
    """Reference assembly: every term's prefix word[:end] evaluated from the
    identity."""
    k = rep.dimension
    grid = [[{} for _ in range(k * len(chains))] for _ in range(k * n_targets)]
    for source, chain in enumerate(chains):
        for word, terms in chain:
            for end, target, coeff in terms:
                mat = dense(rep.evaluate_word(word[:end]))
                exp = mt.degree(word[:end]) - strip_degree
                for i, row in enumerate(mat):
                    for j, value in enumerate(row):
                        entry = grid[target * k + j][source * k + i]
                        entry[exp] = entry.get(exp, 0) + coeff * value
    return poly_matrix(k * n_targets, k * len(chains),
                       [[LaurentPolynomial(e) for e in row] for row in grid])


def random_chains(rng, n_chains, n_targets):
    """Chains mixing one long path shared by many terms, short unrelated
    paths, the empty word, repeated ends and unreduced words with inverse
    letters (words over the 3 letters of the bundle)."""
    letters = [-3, -2, -1, 1, 2, 3]
    spine = tuple(rng.choice(letters) for _ in range(30))
    chains = []
    for _ in range(n_chains):
        chain = []
        for _ in range(rng.randrange(4)):
            kind = rng.randrange(3)
            if kind == 0:
                word, n_terms = spine, rng.randrange(8, 20)
            elif kind == 1:
                word = tuple(rng.choice(letters)
                             for _ in range(rng.randrange(12)))
                n_terms = rng.randrange(4)
            else:
                word, n_terms = (), rng.randrange(3)
            ends = sorted(rng.randrange(len(word) + 1)
                          for _ in range(n_terms))
            chain.append((word, tuple(
                (end, rng.randrange(n_targets), rng.choice([-2, -1, 1, 3]))
                for end in ends)))
        chains.append(tuple(chain))
    return tuple(chains)


class TestChainAssembly:
    @pytest.mark.parametrize("rep", [
        FiniteRepresentation(1, (((Cyclotomic.root(12, 1),),),
                                 ((Cyclotomic.root(12, 5),),),
                                 ((Cyclotomic.root(12, 2),),))),
        affine_rep(anosov_bundle(), 2),
    ], ids=["cyclotomic", "affine4"])
    def test_prefix_table_matches_naive_assembly(self, rep):
        mt = anosov_bundle()
        rng = random.Random(1994)
        for _ in range(10):
            n_targets = rng.randrange(1, 4)
            chains = random_chains(rng, rng.randrange(1, 4), n_targets)
            for strip in (0, 1):
                fast = _chain_matrix(mt, rep, chains, n_targets, strip)
                slow = naive_chain_matrix(mt, rep, chains, n_targets, strip)
                assert (fast.rows, fast.cols) == (slow.rows, slow.cols)
                assert fast.sparse == slow.sparse
                assert repr(fast) == repr(slow)

    def test_fox_chain_costs_at_most_one_product_per_letter(self,
                                                            monkeypatch):
        mt = anosov_bundle()
        rep = affine_rep(mt, 2)
        rng = random.Random(587)
        relator = free_reduce(rng.choice([-3, -2, -1, 1, 2, 3])
                              for _ in range(300))
        rep._letters  # the closure's products are not chain products
        calls = []
        product = surfgrp._sparse_mul

        def counting(a, b):
            calls.append(1)
            return product(a, b)

        monkeypatch.setattr(surfgrp, "_sparse_mul", counting)
        _chain_matrix(mt, rep, (_fox_chain(relator, 3),), 3)
        assert 0 < len(calls) <= len(relator)

    def test_pair_b_model_is_linear_in_image_length(self, monkeypatch):
        # Each flow image of the canonical model is one path on t psi(g):
        # the chains store the 3,401 letters of the inverse monodromy
        # images once, plus the 198-letter conjugator of the 2-cell's
        # image and 10 letters of t's and boundaries (a chain of prefixes
        # would store about 5.1 million).
        phi = GeneratorEndomorphism.torus_monodromy(Mat2(188, 11, 3025, 177))
        mt = mapping_torus(TORUS, phi)
        surface, flow = cellular_model(mt)
        psi = phi.inverse()
        conj = psi.relator_conjugacy()[1]
        chains = (surface.boundary_one + surface.boundary_two
                  + flow.images[0] + flow.images[1] + flow.images[2])
        stored = sum(len(word) for chain in chains for word, _ in chain)
        assert stored <= sum(map(len, psi.images)) + len(conj) + 10
        # the flow and d3 assembly cost at most one product per path letter
        products, letters = [], []
        product, assemble = surfgrp._sparse_mul, surfgrp._chain_matrix

        def counting_product(a, b):
            products.append(1)
            return product(a, b)

        def counting_assemble(mt, rep, chains, *args, **kwargs):
            letters.extend(len(word) for chain in chains for word, _ in chain)
            monkeypatch.setattr(surfgrp, "_sparse_mul", counting_product)
            try:
                return assemble(mt, rep, chains, *args, **kwargs)
            finally:
                monkeypatch.setattr(surfgrp, "_sparse_mul", product)

        monkeypatch.setattr(surfgrp, "_chain_matrix", counting_assemble)
        monkeypatch.setattr(cellular, "_chain_matrix", counting_assemble)
        rep = FiniteRepresentation.fibered_character(mt, -1)
        flow_boundary_matrices(surface, flow, rep)
        mapping_torus_boundaries(mt, rep)
        # d3 walks the relator's images, 2 * 3,401 letters, once
        assert sum(letters) > 2 * sum(map(len, phi.images))
        assert 0 < len(products) <= sum(letters)


def dense_mat_mul(a, b):
    """The dense k^3 product with `as_exact` on every entry: the oracle of
    the sparse product `surfgrp._sparse_mul`."""
    k = len(a)
    return tuple(
        tuple(as_exact(sum(a[i][l] * b[l][j] for l in range(k)))
              if k else 0 for j in range(k))
        for i in range(k))


def random_scalar(rng, field):
    """A nonzero scalar, not always canonical: Fractions may be integral
    and cyclotomic values rational."""
    if field == "int":
        return rng.choice([-3, -2, -1, 1, 2, 3])
    if field == "fraction":
        return Fraction(rng.choice([-4, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    if rng.random() < 0.5:
        return Cyclotomic.root(12, rng.randrange(12))
    coeffs = [rng.randint(-1, 1) for _ in range(rng.randint(1, 6))]
    value = Cyclotomic(12, coeffs)
    return value if value else Cyclotomic(12, [1])


def random_scalar_matrix(rng, k, field, shape):
    """A k x k matrix that is monomial (one nonzero per row and column),
    dense, or zero-heavy (each entry nonzero with probability 0.15)."""
    if shape == "monomial":
        perm = rng.sample(range(k), k)
        return tuple(tuple(random_scalar(rng, field) if j == perm[i] else 0
                           for j in range(k)) for i in range(k))
    density = 1.0 if shape == "dense" else 0.15
    return tuple(tuple(random_scalar(rng, field) if rng.random() < density
                       else 0 for _ in range(k)) for _ in range(k))


def sparse_product(a, b):
    """`surfgrp._sparse_mul` of the canonical sparse forms of two dense
    square matrices, read back densely."""
    k = len(a)
    a, b = (surfgrp._sparse(surfgrp._mat_freeze(m, k)) for m in (a, b))
    return dense(surfgrp._sparse_mul(a, b))


def canonical_sparse(m):
    return surfgrp._sparse(surfgrp._mat_freeze(m, len(m)))


SCALARS = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(-3, 3, max_denominator=4),
    # not always canonical: some of these are rational or zero
    "cyclotomic": st.lists(st.integers(-1, 1), min_size=1, max_size=6).map(
        lambda coeffs: Cyclotomic(12, coeffs)),
}


@st.composite
def scalar_matrices(draw, count=2):
    """`count` k x k matrices (k in 0..5) over one field, with many zeros or
    none; when k >= 2 and count >= 2 some row of the first times the
    second may cancel to zero."""
    field = draw(st.sampled_from(sorted(SCALARS)))
    k = draw(st.integers(0, 5))
    entry = SCALARS[field]
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)
    mats = [[draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(k)]
            for _ in range(count)]
    if k >= 2 and count >= 2 and draw(st.booleans()):
        # row i of a is (x, x, 0, ...) and b[1] = -b[0]: (a b)[i] = 0
        i, x = draw(st.integers(0, k - 1)), draw(SCALARS[field])
        mats[0][i] = [x, x] + [0] * (k - 2)
        mats[1][1] = [-y for y in mats[1][0]]
    return [tuple(map(tuple, m)) for m in mats]


class TestMatMul:
    @pytest.mark.parametrize("field", ["int", "fraction", "cyclotomic"])
    @pytest.mark.parametrize("shape", ["monomial", "dense", "zero_heavy"])
    def test_matches_the_dense_product(self, field, shape):
        rng = random.Random(f"{field}:{shape}")
        for k in (0, 1, 2, 3, 4, 7):
            for _ in range(6):
                a = random_scalar_matrix(rng, k, field, shape)
                b = random_scalar_matrix(rng, k, field, shape)
                fast, slow = sparse_product(a, b), dense_mat_mul(a, b)
                assert fast == slow
                assert [type(e) for row in fast for e in row] == \
                    [type(as_exact(e)) for row in fast for e in row]
                assert [type(e) for row in fast for e in row] == \
                    [type(e) for row in slow for e in row]

    @given(scalar_matrices())
    @settings(max_examples=200)
    def test_sparse_product_matches_dense_oracle(self, mats):
        a, b = mats
        product = surfgrp._sparse_mul(canonical_sparse(a), canonical_sparse(b))
        oracle = dense_mat_mul(a, b)
        # the product is canonical: columns ascending, no zeros, as_exact
        assert product == canonical_sparse(oracle)
        for row in product:
            assert [j for j, _ in row] == sorted({j for j, _ in row})
            assert all(e != 0 and type(e) is type(as_exact(e))
                       for _, e in row)
        assert dense(product) == oracle

    @given(scalar_matrices(count=3))
    @settings(max_examples=100)
    def test_equal_products_have_identical_keys(self, mats):
        a, b, c = map(canonical_sparse, mats)
        mul = surfgrp._sparse_mul
        left, right = mul(mul(a, b), c), mul(a, mul(b, c))
        assert left == right and hash(left) == hash(right)
        assert [type(e) for row in left for _, e in row] == \
            [type(e) for row in right for _, e in row]

    def test_empty_and_scalar_shapes(self):
        assert surfgrp._sparse_mul((), ()) == ()
        assert sparse_product(((Fraction(2, 3),),),
                              ((Fraction(3, 2),),)) == ((1,),)
        assert type(sparse_product(((Fraction(2, 3),),),
                                   ((Fraction(3, 2),),))[0][0]) is int
        i = Cyclotomic.root(4)
        assert sparse_product(((i,),), ((i,),)) == ((-1,),)
        assert type(sparse_product(((i,),), ((i,),))[0][0]) is int
        assert sparse_product(((0,),), ((i,),)) == ((0,),)
        assert surfgrp._sparse_mul(((),), (((0, i),),)) == ((),)

    def test_cancelling_entries_come_out_as_int_zero(self):
        a = ((1, 1), (0, 0))
        b = ((Fraction(1, 2), Cyclotomic.root(3)),
             (Fraction(-1, 2), -Cyclotomic.root(3)))
        assert surfgrp._sparse_mul(canonical_sparse(a),
                                   canonical_sparse(b)) == ((), ())
        product = sparse_product(a, b)
        assert product == ((0, 0), (0, 0))
        assert all(type(e) is int for row in product for e in row)


def unitriangular(k):
    """k x k integer matrices, upper times lower unitriangular: invertible
    and, for k >= 2, never monomial when some entry off the diagonal is
    nonzero."""
    off = st.lists(st.integers(-2, 2), min_size=k * k, max_size=k * k)

    def build(pair):
        up, low = pair
        u = [[1 if i == j else (up[i * k + j] if j > i else 0)
              for j in range(k)] for i in range(k)]
        v = [[1 if i == j else (low[i * k + j] if j < i else 0)
              for j in range(k)] for i in range(k)]
        return dense_mat_mul(u, v)

    return st.tuples(off, off).map(build)


W3 = Cyclotomic.root(3)


def basis(diagonal, off):
    """The 4 x 4 change of basis with the given diagonal and the entries
    `off` {(i, j): x} off it."""
    return tuple(tuple(diagonal[i] if i == j else off.get((i, j), 0)
                       for j in range(4)) for i in range(4))


# (shape, field) -> a basis conjugating affine:2 of the Anosov bundle:
# conjugating its permutation matrices by a diagonal basis keeps them
# monomial, and by one off-diagonal entry leaves most entries zero; an
# entry 2 or w = zeta_3 in the basis puts Fraction or cyclotomic entries
# into the conjugates
BASES = {
    ("monomial", "int"): basis((1, 1, 1, 1), {}),
    ("monomial", "fraction"): basis((2, 1, 1, 1), {}),
    ("monomial", "cyclotomic"): basis((W3, 1, 1, 1), {}),
    ("zero_heavy", "int"): basis((1, 1, 1, 1), {(0, 1): 1}),
    ("zero_heavy", "fraction"): basis((2, 1, 1, 1), {(0, 1): 1}),
    ("zero_heavy", "cyclotomic"): basis((1, 1, 1, 1), {(0, 1): W3}),
    ("dense", "int"): ((1, 1, 1, 1), (1, 2, 2, 2), (1, 2, 3, 3),
                       (1, 2, 3, 4)),
    ("dense", "fraction"): basis((2, 1, 1, 1),
                                 {(0, 1): 1, (1, 2): 1, (2, 3): 1}),
    ("dense", "cyclotomic"): basis((1, 1, 1, 1), {(0, 1): W3, (1, 2): W3,
                                                  (2, 3): W3, (3, 0): W3}),
}
FIELDS = {"int": int, "fraction": Fraction, "cyclotomic": Cyclotomic}


def check_inverses(rep):
    """Each letter -j of the closure listing is the sparse form of the
    dense Gauss-Jordan inverse of generator j, entry types included."""
    letters = rep._letters
    for j, m in enumerate(rep.matrices, 1):
        oracle = canonical_sparse(mat_inverse(m))
        assert letters[-j] == oracle
        assert [type(e) for row in letters[-j] for _, e in row] == \
            [type(e) for row in oracle for _, e in row]
        assert surfgrp._sparse_mul(letters[j], letters[-j]) == \
            surfgrp._sparse_identity(rep.dimension)


class TestSparseInverse:
    """The inverse of every generator image is read from the closure
    listing, which steps by the generator images only."""

    @pytest.mark.parametrize("field", ["int", "fraction", "cyclotomic"])
    @pytest.mark.parametrize("shape", ["monomial", "dense", "zero_heavy"])
    def test_matches_the_dense_inverse(self, field, shape):
        rep = affine_rep(anosov_bundle(), 2).conjugate(BASES[shape, field])
        rows = [row for m in rep.matrices for row in canonical_sparse(m)]
        most = max(map(len, rows))
        assert most == 1 if shape == "monomial" else most > 1
        if shape == "dense":
            assert sum(map(len, rows)) > 2 * len(rows)
        assert FIELDS[field] in {type(e) for row in rows for _, e in row}
        check_inverses(rep)
        assert rep._listing[1] == 12

    def test_singular_matrices_raise(self):
        for m in (((0,),), ((1, 2), (2, 4)),
                  ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
                  ((Cyclotomic.root(3), 1),
                   (Cyclotomic.root(3, 2), Cyclotomic.root(3)))):
            with pytest.raises(ValueError, match="matrix is singular"):
                mat_inverse(m)
        # idempotents generate finite monoids, with no inverse in them
        for m in (((0,),), ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
                  ((1, 1), (0, 0))):
            k = len(m)
            one = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
            rep = FiniteRepresentation(k, (one, m))
            with pytest.raises(ValueError, match="matrix is singular"):
                rep.evaluate_word((1,))


class TestClosure:
    def test_monomial_closures_have_the_group_order(self):
        mt = anosov_bundle()
        # <a, b> = (Z/2)^2 translations, t of order 3 mod 2: A4
        assert affine_rep(mt, 2)._listing[1] == 12
        z = FiniteRepresentation.fibered_character(mt, Cyclotomic.root(12, 5))
        assert z._listing[1] == 12
        check_inverses(z)

    @given(unitriangular(4))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_by_a_dense_basis_keeps_the_order(self, basis):
        # a dense conjugate has full rows; its closure still deduplicates
        mt = anosov_bundle()
        rep = affine_rep(mt, 2)
        conj = rep.conjugate(basis)
        assert conj._listing[1] == rep._listing[1]
        check_inverses(conj)
        conj.validate(mt)
        for word in ((1, 2, -1), (3, -2, 3, 1), ()):
            assert dense(conj.evaluate_word(word)) == dense_mat_mul(
                dense_mat_mul(basis, dense(rep.evaluate_word(word))),
                mat_inverse(basis))


class TestGeneratorOrder:
    """Delta_0..Delta_3 of a presentation do not depend on the order in
    which it lists its generators: the canonical presentation behind
    Delta_2 and Delta_3 reads each generator's image by name."""

    @staticmethod
    def orders(matrix, order, n):
        """Delta_0..Delta_3 under affine:n of the canonical presentation of
        `matrix` and of its copy with the generators listed in `order`."""
        phi = GeneratorEndomorphism.torus_monodromy(Mat2.from_string(matrix))
        mt = mapping_torus(TORUS, phi)
        rep = affine_rep(mt, n)
        moved, moved_rep = mt.permute_generators(order), rep.restricted(order)
        return ([twisted_alexander(mt, rep, d) for d in range(4)],
                [twisted_alexander(moved, moved_rep, d) for d in range(4)])

    def test_stable_letter_first(self):
        canonical, moved = self.orders("3,2;4,3", (3, 1, 2), 2)
        assert moved[2] == canonical[2] == poly(-1, 1)
        assert moved == canonical

    def test_fiber_generators_swapped(self):
        canonical, moved = self.orders("2,1;1,1", (2, 1, 3), 2)
        assert moved == canonical

    @pytest.mark.parametrize("order", itertools.permutations((1, 2, 3)))
    def test_every_order_of_the_anosov_bundle(self, order):
        canonical, moved = self.orders("2,1;1,1", order, 3)
        assert moved == canonical

    def test_permutation_moves_names_letters_and_stable_index(self):
        mt = anosov_bundle()
        moved = mt.permute_generators((3, 1, 2))
        assert moved.generators == ("t", "a1", "b1")
        assert moved.fiber_values == (1, 0, 0)
        assert moved.stable_index == 1
        assert moved.relators[1] == (1, 2, -1, -3, -2, -2)
        assert moved.abelianization() == mt.abelianization()


class TestTwistedAlexander:
    def test_unsupported_degree(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation.trivial(mt)
        with pytest.raises(ValueError, match="degree 4"):
            twisted_alexander(mt, rep, 4)
        with pytest.raises(ValueError, match="degree -1"):
            twisted_alexander(mt, rep, -1)

    def test_hyperbolic_bundle_orders(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation.trivial(mt)
        assert twisted_alexander(mt, rep, 0) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 1) == poly(1, -3, 1)
        assert twisted_alexander(mt, rep, 2) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 3) == poly(1)

    def test_hyperbolic_bundle_sign_character_orders(self):
        mt = anosov_bundle()
        sign = FiniteRepresentation.fibered_character(mt, -1)
        assert twisted_alexander(mt, sign, 0) == poly(1, 1)
        assert twisted_alexander(mt, sign, 1) == poly(1, 3, 1)
        assert twisted_alexander(mt, sign, 2) == poly(1, 1)
        assert twisted_alexander(mt, sign, 3) == poly(1)

    def test_identity_bundle_orders(self):
        mt = identity_bundle()
        rep = FiniteRepresentation.trivial(mt)
        assert twisted_alexander(mt, rep, 0) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 1) == poly(1, -2, 1)
        assert twisted_alexander(mt, rep, 2) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 3) == poly(1)

    def test_genus_two_identity_orders(self):
        mt = genus2_identity_bundle()
        rep = FiniteRepresentation.trivial(mt)
        assert twisted_alexander(mt, rep, 0) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 1) == poly(1, -4, 6, -4, 1)
        assert twisted_alexander(mt, rep, 2) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 3) == poly(1)

    def test_genus_two_swap_orders(self):
        mt = genus2_swap_bundle()
        rep = FiniteRepresentation.trivial(mt)
        assert twisted_alexander(mt, rep, 0) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 1) == poly(1, 0, -2, 0, 1)
        assert twisted_alexander(mt, rep, 2) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 3) == poly(1)

    def test_orientation_reversing_bundle_orders(self):
        phi = GeneratorEndomorphism.torus_monodromy(Mat2(0, 1, 1, 0))
        mt = mapping_torus(TORUS, phi)
        rep = FiniteRepresentation.trivial(mt)
        assert twisted_alexander(mt, rep, 0) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 1) == poly(-1, 0, 1)
        # H2 of the fiber is reversed, so the top orders pick up t + 1
        assert twisted_alexander(mt, rep, 2) == poly(1, 1)
        assert twisted_alexander(mt, rep, 3) == poly(1)

    def test_free_fiber_orders(self):
        free = SurfacePresentation.with_boundary(1, 1)
        phi = GeneratorEndomorphism(free, ((1, 1, 2), (1, 2)))
        mt = mapping_torus(free, phi)
        rep = FiniteRepresentation.trivial(mt)
        assert twisted_alexander(mt, rep, 0) == poly(-1, 1)
        assert twisted_alexander(mt, rep, 1) == poly(1, -3, 1)
        assert twisted_alexander(mt, rep, 2) == poly(1)
        assert twisted_alexander(mt, rep, 3) == poly(1)

    def test_two_dimensional_character_orders(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation(
            2, (((1, 0), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, -1))))
        assert twisted_alexander(mt, rep, 0) == poly(-1, 0, 1)
        assert twisted_alexander(mt, rep, 1) == poly(1, 0, -7, 0, 1)
        assert twisted_alexander(mt, rep, 2) == poly(-1, 0, 1)
        assert twisted_alexander(mt, rep, 3) == poly(1)

    def test_dimension_zero_orders_are_unit(self):
        mt = anosov_bundle()
        empty = FiniteRepresentation(0, ((), (), ()))
        for n in range(4):
            assert twisted_alexander(mt, empty, n) == poly(1)

    def test_first_order_matches_characteristic_polynomial(self):
        rng = random.Random(7)
        count = 0
        while count < 10:
            m = Mat2(rng.randint(-5, 5), rng.randint(-5, 5),
                     rng.randint(-5, 5), rng.randint(-5, 5))
            if m.det() not in (1, -1):
                continue
            count += 1
            mt = mapping_torus(
                TORUS, GeneratorEndomorphism.torus_monodromy(m))
            rep = FiniteRepresentation.trivial(mt)
            char = poly(m.det(), -m.trace(), 1)
            assert twisted_alexander(mt, rep, 1).unit_equal(char)

    def test_orders_survive_presentation_moves(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation.trivial(mt)
        moved = (mt.cycle_relator(1, 2)
                 .invert_relator(2)
                 .conjugate_relator(0, (1, 2))
                 .add_generator("x", (1, 2, -1)))
        extended = FiniteRepresentation(
            rep.dimension,
            rep.matrices + (dense(rep.evaluate_word((1, 2, -1))),))
        for n in range(4):
            assert (twisted_alexander(mt, rep, n)
                    == twisted_alexander(moved, extended, n))

    def test_orders_invariant_under_conjugate_representation(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation(
            2, (((1, 0), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, -1))))
        conj = rep.conjugate(((1, 1), (0, 1)))
        for n in range(4):
            assert (twisted_alexander(mt, rep, n)
                    == twisted_alexander(mt, conj, n))


class TestTwistedTorsion:
    def test_hyperbolic_bundle_value(self):
        mt = anosov_bundle()
        rep = FiniteRepresentation.trivial(mt)
        expected = RationalFunction(poly(1, -3, 1), poly(1, -2, 1))
        assert twisted_torsion(mt, rep) == normalize_unit_class(expected)

    def test_hyperbolic_bundle_sign_character_value(self):
        mt = anosov_bundle()
        sign = FiniteRepresentation.fibered_character(mt, -1)
        expected = RationalFunction(poly(1, 3, 1), poly(1, 2, 1))
        assert twisted_torsion(mt, sign) == normalize_unit_class(expected)

    def test_identity_bundle_value_is_unit(self):
        mt = identity_bundle()
        rep = FiniteRepresentation.trivial(mt)
        assert twisted_torsion(mt, rep) == normalize_unit_class(
            RationalFunction.one())

    def test_genus_two_values(self):
        rep = FiniteRepresentation.trivial(genus2_identity_bundle())
        assert (twisted_torsion(genus2_identity_bundle(), rep)
                == normalize_unit_class(RationalFunction(poly(1, -2, 1))))
        swap_mt = genus2_swap_bundle()
        swap_rep = FiniteRepresentation.trivial(swap_mt)
        assert (twisted_torsion(swap_mt, swap_rep)
                == normalize_unit_class(RationalFunction(poly(1, 2, 1))))
        swap_sign = FiniteRepresentation.fibered_character(swap_mt, -1)
        assert (twisted_torsion(swap_mt, swap_sign)
                == normalize_unit_class(RationalFunction(poly(1, -2, 1))))

    def test_orientation_reversing_bundle_value_is_unit(self):
        phi = GeneratorEndomorphism.torus_monodromy(Mat2(0, 1, 1, 0))
        mt = mapping_torus(TORUS, phi)
        rep = FiniteRepresentation.trivial(mt)
        assert twisted_torsion(mt, rep) == normalize_unit_class(
            RationalFunction.one())

    def test_free_fiber_value(self):
        free = SurfacePresentation.with_boundary(1, 1)
        phi = GeneratorEndomorphism(free, ((1, 1, 2), (1, 2)))
        mt = mapping_torus(free, phi)
        rep = FiniteRepresentation.trivial(mt)
        expected = RationalFunction(poly(1, -3, 1), poly(1, -1))
        assert twisted_torsion(mt, rep) == normalize_unit_class(expected)

    def test_dimension_zero_torsion_is_unit(self):
        mt = anosov_bundle()
        empty = FiniteRepresentation(0, ((), (), ()))
        assert twisted_torsion(mt, empty) == normalize_unit_class(
            RationalFunction.one())


def bounded_bundle(matrix):
    """The mapping torus of the monodromy of `matrix` on the once-punctured
    torus: the free fiber on a, b with the images and inverse images of
    `torus_monodromy`."""
    phi = GeneratorEndomorphism.torus_monodromy(Mat2.from_string(matrix))
    free = SurfacePresentation.with_boundary(1, 1)
    return mapping_torus(
        free, GeneratorEndomorphism(free, phi.images, phi.inverse_images))


class TestBoundedFiber:
    """Knot complements fibered by the once-punctured torus: the
    figure-eight (2,1;1,1) and the trefoil (1,1;-1,0)."""

    FIGURE_EIGHT, TREFOIL = "2,1;1,1", "1,1;-1,0"

    @staticmethod
    def invariants(mt, rep):
        surface, flow = cellular_model(mt)
        return ([twisted_alexander(mt, rep, n) for n in range(4)],
                twisted_torsion(mt, rep),
                cellular.torsion_from_cellular(surface, flow, rep).homological,
                cellular.lefschetz_numbers(surface, flow, rep, 5))

    def test_figure_eight_complement(self):
        mt = bounded_bundle(self.FIGURE_EIGHT)
        deltas, torsion, cellular_torsion, lefschetz = self.invariants(
            mt, FiniteRepresentation.trivial(mt))
        assert deltas == [poly(-1, 1), poly(1, -3, 1), poly(1), poly(1)]
        expected = normalize_unit_class(
            RationalFunction(poly(1, -3, 1), poly(1, -1)))
        assert torsion == cellular_torsion == expected
        # L_m = 1 - tr(A^m)
        a, power, traces = Mat2(2, 1, 1, 1), Mat2(1, 0, 0, 1), []
        for _ in range(5):
            power = power @ a
            traces.append(1 - (power.a + power.d))
        assert lefschetz == traces == [-2, -6, -17, -46, -122]

    def test_trefoil_complement(self):
        mt = bounded_bundle(self.TREFOIL)
        deltas, _, _, lefschetz = self.invariants(
            mt, FiniteRepresentation.trivial(mt))
        assert deltas[1] == poly(1, -1, 1)
        assert lefschetz == [0, 2, 3, 2, 0]

    @pytest.mark.parametrize("matrix", [FIGURE_EIGHT, TREFOIL])
    def test_affine_delta_one_is_the_trivial_one_times_t_cubed_minus_one(
            self, matrix):
        mt = bounded_bundle(matrix)
        rep = affine_rep(mt, 2)
        assert rep.dimension == 4 and rep._listing[1] == 12
        check_inverses(rep)
        trivial = twisted_alexander(mt, FiniteRepresentation.trivial(mt), 1)
        assert twisted_alexander(mt, rep, 1) == (
            trivial * poly(-1, 0, 0, 1)).monic_normal()

    @pytest.mark.parametrize("unit", [1, Cyclotomic.root(4)],
                             ids=["trivial", "zeta4"])
    def test_classical_pair_agrees(self, unit):
        pair = [bounded_bundle(m) for m in ("23,143;55,342", "1,11;33,364")]
        a, b = (self.invariants(mt, FiniteRepresentation.fibered_character(
            mt, unit)) for mt in pair)
        assert a == b

    @pytest.mark.parametrize("matrix, report", [
        (FIGURE_EIGHT, "zeta = (1 - 3*t + t^2) / (1 - t)\n"
                       "L_1..L_5 = -2, -6, -17, -46, -122\n"),
        (TREFOIL, "zeta = (1 - t + t^2) / (1 - t)\n"
                  "L_1..L_5 = 0, 2, 3, 2, 0\n"),
    ])
    def test_zeta_subcommand_on_a_saved_fixture(self, tmp_path, capsys,
                                                matrix, report):
        from procong import cli
        from procong.serialize import (KIND_MAPPING_TORUS,
                                       encode_mapping_torus, save_fixture)
        path = tmp_path / "bounded.json"
        save_fixture(path, KIND_MAPPING_TORUS,
                     encode_mapping_torus(bounded_bundle(matrix)))
        assert cli.main(["zeta", str(path)]) == 0
        assert capsys.readouterr().out == "rep: trivial\n" + report
