"""Tests for exact and mod-n conjugacy of unimodular 2x2 matrices."""

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from procong.torus import (
    CommutationSolver,
    CongruenceReport,
    Mat2,
    characteristic_level,
    characteristic_level_bruteforce,
    congruence_sweep,
    congruent_conjugate_mod,
    hyperbolic_cyclic_word,
    rl_word,
    sl2_conjugate,
)

# the classical pair: congruently conjugate at every level, yet not conjugate
PAIR_A = Mat2(188, 275, 121, 177)
PAIR_B = Mat2(188, 11, 3025, 177)

R = Mat2(1, 1, 0, 1)
L = Mat2(1, 0, 1, 1)
S = Mat2(0, -1, 1, 0)
U6 = Mat2(1, -1, 1, 0)


def word_matrix(exponents, sign=1):
    """Product R^a L^b R^c ... from an exponent list, optionally negated."""
    m = Mat2.identity()
    use_r = True
    for e in exponents:
        base = R if use_r else L
        m = m @ base.power(e)
        use_r = not use_r
    return m if sign == 1 else -m


def random_sl2(rng, length=4, span=3):
    exps = [rng.randint(1, span) for _ in range(length)]
    m = word_matrix(exps, sign=rng.choice([1, -1]))
    if rng.random() < 0.5:
        m = m.inverse()
    return m


sl2_strategy = st.builds(
    word_matrix,
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    st.sampled_from([1, -1]),
)

conjugator_strategy = st.builds(
    word_matrix,
    st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=4),
    st.just(1),
).flatmap(lambda m: st.sampled_from([m, m.inverse()]))


# ---------------------------------------------------------------------------
# Mat2 basics
# ---------------------------------------------------------------------------

class TestMat2:
    def test_string_round_trip(self):
        m = Mat2(1, -2, 3, 4)
        assert Mat2.from_string(m.to_string()) == m

    def test_malformed_strings(self):
        for bad in ("1,2,3;4,5,6", "1;2", "a,b;c,d", "1,2"):
            with pytest.raises(ValueError):
                Mat2.from_string(bad)

    def test_from_rows_rejects_non_integers(self):
        with pytest.raises(TypeError, match="integers"):
            Mat2.from_rows([[1.5, 1], [0, 1]])
        with pytest.raises(TypeError, match="integers"):
            Mat2.from_rows([[True, 1], [0, 1]])

    def test_inverse(self):
        m = Mat2(2, 1, 1, 1)
        assert m @ m.inverse() == Mat2.identity()
        with pytest.raises(ValueError):
            Mat2(2, 0, 0, 2).inverse()

    def test_power(self):
        m = Mat2(2, 1, 1, 1)
        assert m.power(3) == m @ m @ m
        assert m.power(-2) == (m @ m).inverse()
        assert m.power(0) == Mat2.identity()


# ---------------------------------------------------------------------------
# R/L words
# ---------------------------------------------------------------------------

class TestRLWords:
    def test_peeling_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            exps = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
            m = word_matrix(exps)
            letters = rl_word(m)
            rebuilt = Mat2.identity()
            for letter in letters:
                rebuilt = rebuilt @ (R if letter == "R" else L)
            assert rebuilt == m

    def test_identity_is_empty(self):
        assert rl_word(Mat2.identity()) == []

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            rl_word(Mat2(2, -1, 1, 0))

    def test_cyclic_word_invariant_under_conjugation(self):
        rng = random.Random(9)
        for _ in range(40):
            a = random_sl2(rng)
            while abs(a.trace()) <= 2:
                a = random_sl2(rng)
            x = random_sl2(rng, length=rng.randint(0, 3))
            b = x @ a @ x.inverse()
            assert hyperbolic_cyclic_word(a)[0] == hyperbolic_cyclic_word(b)[0]

    def test_cyclic_word_reduction_conjugator(self):
        word, v = hyperbolic_cyclic_word(PAIR_A)
        target = Mat2.identity()
        for letter in word:
            target = target @ (R if letter == "R" else L)
        assert v.inverse() @ PAIR_A @ v == target


# ---------------------------------------------------------------------------
# SL(2,Z) conjugacy
# ---------------------------------------------------------------------------

def brute_conjugator(a, b, span=10):
    """Search X with entries in [-span, span], det 1, X a = b X."""
    for x11, x12, x21 in product(range(-span, span + 1), repeat=3):
        num = 1 + x12 * x21
        if x11 == 0:
            continue
        if num % x11:
            continue
        x22 = num // x11
        if abs(x22) > span:
            continue
        x = Mat2(x11, x12, x21, x22)
        if x @ a == b @ x:
            return x
    return None


class TestSL2Conjugate:
    def test_self_conjugacy_identity_witness(self):
        v = sl2_conjugate(PAIR_A, PAIR_A)
        assert v.conjugate and v.witness == Mat2.identity()

    def test_classical_pair_not_conjugate(self):
        v = sl2_conjugate(PAIR_A, PAIR_B)
        assert not v.conjugate
        assert "R/L" in v.reason

    def test_known_conjugate_pair_matches_brute_force(self):
        a, b = Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2)
        v = sl2_conjugate(a, b)
        assert v.conjugate
        assert v.witness @ a @ v.witness.inverse() == b
        assert brute_conjugator(a, b) is not None

    def test_nonunimodular_rejected(self):
        with pytest.raises(ValueError):
            sl2_conjugate(Mat2(1, 0, 0, 2), Mat2(1, 0, 0, 2))

    def test_central_elements(self):
        eye = Mat2.identity()
        assert sl2_conjugate(eye, eye).conjugate
        assert sl2_conjugate(-eye, -eye).conjugate
        assert not sl2_conjugate(eye, R).conjugate
        assert not sl2_conjugate(-eye, -(R @ L @ R)).conjugate is True

    def test_parabolic_twist_classes(self):
        for k in (-3, -1, 1, 2, 5):
            a = Mat2(1, k, 0, 1)
            x = Mat2(3, 1, 2, 1)
            v = sl2_conjugate(a, x @ a @ x.inverse())
            assert v.conjugate
            assert v.witness @ a @ v.witness.inverse() == x @ a @ x.inverse()
        assert not sl2_conjugate(Mat2(1, 1, 0, 1), Mat2(1, -1, 0, 1)).conjugate
        assert not sl2_conjugate(Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1)).conjugate
        # negative-trace parabolic classes
        assert not sl2_conjugate(Mat2(-1, 1, 0, -1), Mat2(-1, -1, 0, -1)).conjugate
        vneg = sl2_conjugate(Mat2(-1, 1, 0, -1), Mat2(-1, 1, 0, -1))
        assert vneg.conjugate

    def test_elliptic_rotation_directions_differ(self):
        assert not sl2_conjugate(S, S.inverse()).conjugate
        assert not sl2_conjugate(U6, U6.inverse()).conjugate
        u_sq = U6 @ U6
        assert not sl2_conjugate(u_sq, u_sq.inverse()).conjugate

    def test_elliptic_conjugates_recognized(self):
        rng = random.Random(17)
        for base in (S, U6, U6 @ U6, -S, U6.power(4), U6.power(5)):
            for _ in range(10):
                x = random_sl2(rng, length=rng.randint(0, 4))
                v = sl2_conjugate(base, x @ base @ x.inverse())
                assert v.conjugate
                assert v.witness @ base @ v.witness.inverse() == x @ base @ x.inverse()

    def test_hyperbolic_conjugates_recognized(self):
        rng = random.Random(29)
        for _ in range(60):
            a = random_sl2(rng)
            while abs(a.trace()) <= 2:
                a = random_sl2(rng)
            x = random_sl2(rng, length=rng.randint(0, 4))
            b = x @ a @ x.inverse()
            v = sl2_conjugate(a, b)
            assert v.conjugate
            assert v.witness @ a @ v.witness.inverse() == b
            assert v.witness.det() == 1

    def test_mirror_words_not_identified(self):
        # R^2 L and L^2 R are GL(2,Z)-conjugate (transpose swap) but not
        # SL(2,Z)-conjugate
        a = R @ R @ L
        b = L @ L @ R
        assert not sl2_conjugate(a, b).conjugate

    def test_consistency_with_brute_force_on_equal_traces(self):
        rng = random.Random(41)
        pairs = 0
        while pairs < 25:
            a, b = random_sl2(rng), random_sl2(rng)
            if a.trace() != b.trace():
                continue
            pairs += 1
            verdict = sl2_conjugate(a, b)
            found = brute_conjugator(a, b, span=8)
            if found is not None:
                assert verdict.conjugate
            if verdict.conjugate:
                w = verdict.witness
                assert w @ a @ w.inverse() == b

    @given(sl2_strategy, conjugator_strategy)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, x):
        b = x @ a @ x.inverse()
        forward = sl2_conjugate(a, b)
        backward = sl2_conjugate(b, a)
        assert forward.conjugate and backward.conjugate
        w = backward.witness
        assert w @ b @ w.inverse() == a

    @given(sl2_strategy, conjugator_strategy, conjugator_strategy)
    @settings(max_examples=40, deadline=None)
    def test_transitivity_through_witnesses(self, a, x, y):
        b = x @ a @ x.inverse()
        c = y @ b @ y.inverse()
        w_ab = sl2_conjugate(a, b).witness
        w_bc = sl2_conjugate(b, c).witness
        composed = w_bc @ w_ab
        assert composed @ a @ composed.inverse() == c
        assert sl2_conjugate(a, c).conjugate


# ---------------------------------------------------------------------------
# conjugacy in GL(2, Z/n)
# ---------------------------------------------------------------------------

def gl2_elements(n):
    for entries in product(range(n), repeat=4):
        m = Mat2(*entries)
        if gcd(m.det() % n, n) == 1:
            yield m


def exhaustive_mod_conjugate(a, b, n):
    for x in gl2_elements(n):
        if ((x @ a) - (b @ x)).mod(n) == Mat2(0, 0, 0, 0):
            return x
    return None


class TestCongruentConjugateMod:
    def test_self_identity_witness(self):
        for n in (1, 2, 7, 12):
            v = congruent_conjugate_mod(PAIR_A, PAIR_A, n)
            assert v.conjugate
            assert v.witness == Mat2.identity().mod(n)

    def test_classical_pair_mod_five(self):
        v = congruent_conjugate_mod(PAIR_A, PAIR_B, 5)
        assert v.conjugate
        w = v.witness
        assert ((w @ PAIR_A) - (PAIR_B @ w)).mod(5) == Mat2(0, 0, 0, 0)
        assert gcd(w.det(), 5) == 1
        assert exhaustive_mod_conjugate(PAIR_A, PAIR_B, 5) is not None

    def test_parabolic_vs_identity_mod_two(self):
        v = congruent_conjugate_mod(Mat2(1, 1, 0, 1), Mat2.identity(), 2)
        assert not v.conjugate

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            congruent_conjugate_mod(PAIR_A, PAIR_B, 0)
        with pytest.raises(ValueError):
            congruent_conjugate_mod(PAIR_A, PAIR_B, -3)

    def test_determinant_precondition(self):
        with pytest.raises(ValueError):
            congruent_conjugate_mod(Mat2(2, 0, 0, 1), Mat2.identity(), 3)

    def test_exhaustive_oracle_small_moduli(self):
        rng = random.Random(7)
        for n in (2, 3, 4, 5, 6):
            for _ in range(12):
                a, b = random_sl2(rng, length=3), random_sl2(rng, length=3)
                verdict = congruent_conjugate_mod(a, b, n)
                oracle = exhaustive_mod_conjugate(a, b, n)
                assert verdict.conjugate == (oracle is not None), (a, b, n)
                if verdict.conjugate:
                    w = verdict.witness
                    assert ((w @ a) - (b @ w)).mod(n) == Mat2(0, 0, 0, 0)
                    assert gcd(w.det() % n, n) == 1

    def test_lex_least_witness_small_moduli(self):
        rng = random.Random(13)
        checked = 0
        while checked < 10:
            n = rng.choice([2, 3, 4, 5])
            a = random_sl2(rng, length=3)
            x = random_sl2(rng, length=2)
            b = x @ a @ x.inverse()
            if a.mod(n) == b.mod(n):
                continue
            verdict = congruent_conjugate_mod(a, b, n)
            assert verdict.conjugate
            candidates = [y for y in gl2_elements(n)
                          if ((y @ a) - (b @ y)).mod(n) == Mat2(0, 0, 0, 0)]
            least = min(candidates, key=lambda m: m.entries())
            assert verdict.witness == least
            checked += 1

    def test_divisor_projection(self):
        rng = random.Random(19)
        for _ in range(20):
            a, b = random_sl2(rng), random_sl2(rng)
            m = rng.choice([4, 6, 8, 9, 12])
            big = congruent_conjugate_mod(a, b, m)
            for n in range(1, m + 1):
                if m % n == 0 and big.conjugate:
                    small = congruent_conjugate_mod(a, b, n)
                    assert small.conjugate
                    projected = big.witness.mod(n)
                    assert ((projected @ a) - (b @ projected)).mod(n) == Mat2(0, 0, 0, 0)

    def test_trace_invariant_respected(self):
        rng = random.Random(23)
        for _ in range(30):
            a, b = random_sl2(rng), random_sl2(rng)
            n = rng.randint(2, 15)
            if (a.trace() - b.trace()) % n:
                assert not congruent_conjugate_mod(a, b, n).conjugate


# ---------------------------------------------------------------------------
# characteristic levels
# ---------------------------------------------------------------------------

class TestCharacteristicLevel:
    def test_matches_bruteforce_through_ten(self):
        for n in range(1, 11):
            assert characteristic_level(n) == characteristic_level_bruteforce(n)

    def test_frozen_values(self):
        values = [characteristic_level(n) for n in range(1, 11)]
        assert values == [1, 2, 6, 12, 60, 60, 420, 840, 2520, 2520]

    def test_divisibility_tower(self):
        for n in range(1, 20):
            assert characteristic_level(n + 1) % characteristic_level(n) == 0

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            characteristic_level(0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class TestCongruenceSweep:
    def test_self_sweep_not_a_candidate(self):
        report = congruence_sweep(PAIR_A, PAIR_A, 10)
        assert report.all_levels_pass
        assert not report.procongruence_candidate
        assert report.sl2.conjugate

    def test_trace_mismatch_first_failure_regression(self):
        report = congruence_sweep(Mat2(2, 1, 1, 1), Mat2(3, 1, 2, 1), 10)
        assert report.first_failure == 2
        assert not report.procongruence_candidate

    def test_classical_pair_short_sweep(self):
        report = congruence_sweep(PAIR_A, PAIR_B, 60)
        assert report.all_levels_pass
        assert report.procongruence_candidate
        for verdict in report.verdicts:
            if verdict.modulus > 1:
                w = verdict.witness
                n = verdict.modulus
                assert ((w @ PAIR_A) - (PAIR_B @ w)).mod(n) == Mat2(0, 0, 0, 0)
                assert gcd(w.det() % n, n) == 1

    def test_report_rendering(self):
        report = congruence_sweep(Mat2(2, 1, 1, 1), Mat2(3, 1, 2, 1), 6)
        text = report.render_text()
        assert "first failing level: 2" in text
        assert "procongruence candidate: no" in text
        data = report.to_json()
        assert data["first_failure"] == 2
        assert data["levels"][0]["modulus"] == 1

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            congruence_sweep(PAIR_A, PAIR_B, 0)
        with pytest.raises(ValueError):
            congruence_sweep(Mat2(1, 0, 0, 2), Mat2.identity(), 5)

    def test_verdicts_never_contradict_trace_invariant(self):
        rng = random.Random(31)
        for _ in range(10):
            a, b = random_sl2(rng), random_sl2(rng)
            report = congruence_sweep(a, b, 12)
            for verdict in report.verdicts:
                if (a.trace() - b.trace()) % verdict.modulus:
                    assert not verdict.conjugate
