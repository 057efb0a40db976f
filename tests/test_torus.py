"""Tests for exact and mod-n conjugacy of unimodular 2x2 matrices."""

import random
import signal
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from procong.cli import RunConfig, _handle_torus_sweep, main
from procong.torus import (
    FACTOR_LIMIT,
    LEVEL_LIMIT,
    SWEEP_LIMIT,
    CommutationSolver,
    CongruenceReport,
    Mat2,
    characteristic_level,
    congruence_sweep,
    congruent_conjugate_mod,
    factorize,
    hyperbolic_cyclic_word,
    rl_runs,
    sl2_conjugate,
)
from reference import (characteristic_level_bruteforce, least_unit_by_walk,
                       letter_cyclic_word)

# the classical pair: congruently conjugate at every level, yet not conjugate
PAIR_A = Mat2(188, 275, 121, 177)
PAIR_B = Mat2(188, 11, 3025, 177)

R = Mat2(1, 1, 0, 1)
L = Mat2(1, 0, 1, 1)
S = Mat2(0, -1, 1, 0)
U6 = Mat2(1, -1, 1, 0)


def runs_matrix(sign, runs):
    """sign * R^k1 L^k2 ... from (letter, exponent) runs."""
    m = Mat2.identity()
    for letter, k in runs:
        m = m @ (R if letter == "R" else L).power(k)
    return m if sign == 1 else -m


def word_matrix(exponents, sign=1):
    """Product R^a L^b R^c ... from an exponent list, optionally negated."""
    m = Mat2.identity()
    use_r = True
    for e in exponents:
        base = R if use_r else L
        m = m @ base.power(e)
        use_r = not use_r
    return m if sign == 1 else -m


def cyclic_letters(word):
    """The letters of a canonical cyclic word, which must be runs of
    positive length whose letters alternate around the cycle."""
    assert all(k >= 1 for _, k in word)
    assert all(x != y for (x, _), (y, _) in zip(word, word[1:] + word[:1]))
    return tuple(letter for letter, k in word for _ in range(k))


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
            runs = [("RL"[i % 2], e) for i, e in enumerate(exps)]
            assert rl_runs(word_matrix(exps)) == (1, runs)

    def test_identity_is_empty(self):
        assert rl_runs(Mat2.identity()) == (1, [])

    def test_nonnegative_runs_are_positive_and_multiply_back(self):
        count = 0
        for a, b, c in product(range(31), repeat=3):
            if a == 0 or (1 + b * c) % a or (1 + b * c) // a > 30:
                continue
            m = Mat2(a, b, c, (1 + b * c) // a)
            sign, runs = rl_runs(m)
            assert sign == 1 and all(k > 0 for _, k in runs)
            assert runs_matrix(sign, runs) == m
            count += 1
        assert count == 1111

    def test_signed_runs_multiply_back(self):
        for a, b, c, d in product(range(-10, 11), repeat=4):
            if a * d - b * c == 1:
                m = Mat2(a, b, c, d)
                sign, runs = rl_runs(m)
                assert all(k != 0 for _, k in runs)
                assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))
                assert runs_matrix(sign, runs) == m

    def test_pair_b_runs(self):
        assert rl_runs(PAIR_B) == (1, [("L", 16), ("R", 11), ("L", 17)])

    def test_runs_reject_determinant_minus_one(self):
        with pytest.raises(ValueError):
            rl_runs(Mat2(0, 1, 1, 0))

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
        assert word == (("L", 4), ("R", 6), ("L", 2), ("R", 2), ("L", 1),
                        ("R", 1))
        assert v.inverse() @ PAIR_A @ v == runs_matrix(1, word)

    def test_pair_b_word_joins_its_end_runs(self):
        # rl_runs reads L^16 R^11 L^17: the two L runs meet around the cycle
        assert hyperbolic_cyclic_word(PAIR_B)[0] == (("L", 33), ("R", 11))

    def test_runs_spell_the_least_letter_rotation(self):
        # the oracle peels and rotates single letters; for a nonnegative
        # matrix the conjugator is the product of the letters rotated past
        count = 0
        for a, b, c in product(range(31), repeat=3):
            if a == 0 or (1 + b * c) % a or (1 + b * c) // a > 30:
                continue
            m = Mat2(a, b, c, (1 + b * c) // a)
            if m.trace() > 2:
                word, v = hyperbolic_cyclic_word(m)
                assert (cyclic_letters(word), v) == letter_cyclic_word(m)
                count += 1
        assert count == 1050

    def test_runs_of_random_conjugates(self):
        rng = random.Random(17)
        for _ in range(200):
            exps = [rng.randint(1, 4) for _ in range(2 * rng.randint(1, 3))]
            m = word_matrix(exps).power(rng.randint(1, 3))
            x = random_sl2(rng, length=rng.randint(0, 4))
            conj = x @ m @ x.inverse()
            word, v = hyperbolic_cyclic_word(rng.choice([conj, -conj]))
            assert cyclic_letters(word) == letter_cyclic_word(m)[0]
            assert v.inverse() @ conj @ v == runs_matrix(1, word)


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

    def test_trace_ten_to_the_thirty(self):
        # the word L^(k-2) R is read as two runs, never as k - 1 letters
        def timeout(signum, frame):
            raise TimeoutError("a trace-10^30 pair took over 5 s")

        k = 10 ** 30
        a, x = Mat2(k, 1, -1, 0), Mat2(2, 1, 1, 1)
        b = x @ a @ x.inverse()
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            word = hyperbolic_cyclic_word(b)[0]
            verdict = sl2_conjugate(a, b)
            mirror = sl2_conjugate(a, Mat2(0, -1, 1, k))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert word == (("L", k - 2), ("R", 1))
        assert verdict.conjugate
        assert verdict.witness @ a @ verdict.witness.inverse() == b
        assert (mirror.conjugate, mirror.reason) == (
            False, "inequivalent cyclic R/L words")

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

    def test_every_pair_is_conjugate_mod_one(self):
        # not conjugate mod 2, yet every matrix is 0,0;0,0 mod 1
        v = congruent_conjugate_mod(Mat2(1, 1, 0, 1), Mat2.identity(), 1)
        assert v.conjugate
        assert v.witness == Mat2(0, 0, 0, 0)

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

    def test_modulus_must_be_an_int(self):
        for n in (True, False, 2.0, "5", None):
            with pytest.raises(ValueError, match="modulus"):
                congruent_conjugate_mod(PAIR_A, PAIR_B, n)

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

    def test_walk_cases_match_exhaustive_search(self):
        # the parabolic R against the identity, and a pair whose traces
        # differ, which the trace test answers at every level
        found = 0
        extra = [(R, Mat2.identity()), (Mat2(2, 1, 1, 1), R)]
        for a, b in walk_cases() + extra:
            solver = CommutationSolver(a, b)
            for n in range(2, 11):
                witness = solver.witness_mod(n)
                oracle = exhaustive_mod_conjugate(a, b, n)
                assert (witness is None) == (oracle is None), (a, b, n)
                if witness is None:
                    found += 1
                else:
                    solver.verify(witness, n)
        assert found > 0

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

    def test_level_bound_is_limited(self):
        # refused before any lcm is built: the time grows as n^2
        with pytest.raises(ValueError, match=(
                f"^level bound must be at most {LEVEL_LIMIT}, got "
                f"{LEVEL_LIMIT + 1}$")):
            characteristic_level(LEVEL_LIMIT + 1)
        with pytest.raises(ValueError, match="at most"):
            characteristic_level(10 ** 100)

    def test_level_must_be_an_int(self):
        for n in (True, 2.0, "3", None):
            for compute in (characteristic_level,
                            characteristic_level_bruteforce):
                with pytest.raises(ValueError, match="level"):
                    compute(n)


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

    @pytest.mark.parametrize("bound", [SWEEP_LIMIT + 1, 10 ** 30])
    def test_bound_past_the_limit_builds_no_sieve(self, monkeypatch, bound):
        # refused before the solver or the sieve of `bound` entries exists
        monkeypatch.setattr(CommutationSolver, "__init__", None)
        with pytest.raises(ValueError, match=f"at most {SWEEP_LIMIT}"):
            congruence_sweep(PAIR_A, PAIR_B, bound)

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
        text, data = _handle_torus_sweep(
            RunConfig("torus sweep", ("2,1;1,1", "3,1;2,1"), max_modulus=6))
        assert "first failing level: 2" in text
        assert "procongruence candidate: no" in text
        assert data["first_failure"] == 2
        assert data["levels"][0]["modulus"] == 1

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            congruence_sweep(PAIR_A, PAIR_B, 0)
        with pytest.raises(ValueError):
            congruence_sweep(Mat2(1, 0, 0, 2), Mat2.identity(), 5)

    def test_bound_must_be_an_int(self):
        for bound in (True, False, 2.0, "5", None):
            with pytest.raises(ValueError, match="sweep bound"):
                congruence_sweep(PAIR_A, PAIR_B, bound)

    def test_verdicts_never_contradict_trace_invariant(self):
        rng = random.Random(31)
        for _ in range(10):
            a, b = random_sl2(rng), random_sl2(rng)
            report = congruence_sweep(a, b, 12)
            for verdict in report.verdicts:
                if (a.trace() - b.trace()) % verdict.modulus:
                    assert not verdict.conjugate


# ---------------------------------------------------------------------------
# factoring and the solver's module enumeration
# ---------------------------------------------------------------------------

def trial_division(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 1
    return out + ([(n, 1)] if n > 1 else [])


class TestFactorize:
    def test_equals_trial_division_through_20000(self):
        for n in range(1, 20001):
            assert factorize(n) == trial_division(n), n

    def test_large_semiprimes_and_prime_powers(self):
        p, q = 1000000007, 1000000009
        assert factorize(p * q) == [(p, 1), (q, 1)]
        assert factorize(12 * p ** 2) == [(2, 2), (3, 1), (p, 2)]
        # the least strong pseudoprime to the bases 2..37 still factors
        assert factorize(318665857834031151167461) == [
            (399165290221, 1), (798330580441, 1)]
        assert factorize(FACTOR_LIMIT - 1)[-1] == (858557454841, 1)

    def test_modulus_at_the_limit_is_rejected(self):
        with pytest.raises(ValueError, match="modulus"):
            factorize(FACTOR_LIMIT)

    def test_congr_at_a_large_semiprime_finishes(self, capsys):
        def timeout(signum, frame):
            raise TimeoutError("torus congr at a semiprime took over 5 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            # (10^9 + 7)(10^9 + 9)
            status = main(["torus", "congr", PAIR_A.to_string(),
                           PAIR_B.to_string(), "1000000016000000063"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert status == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "GL(2,Z/1000000016000000063): conjugate",
            "witness mod 1000000016000000063: "
            "0,1000000016000000062;1000000016000000052,1"]

    def test_congr_beyond_the_limit_is_an_input_error(self, capsys):
        status = main(["torus", "congr", PAIR_A.to_string(),
                       PAIR_B.to_string(), str(FACTOR_LIMIT)])
        assert status == 2
        assert "modulus" in capsys.readouterr().err

    def test_congr_of_unequal_traces_never_factors(self, capsys, monkeypatch):
        # traces 3 and 2: no level n >= 2 divides their difference, so the
        # trace test answers even beyond FACTOR_LIMIT
        def refuse(n):
            raise AssertionError(f"factorize({n}) was called")

        monkeypatch.setattr("procong.torus.factorize", refuse)
        for n in (FACTOR_LIMIT, 10 ** 40 + 1):
            status = main(["torus", "congr", "2,1;1,1", "1,1;0,1", str(n)])
            assert status == 0
            assert capsys.readouterr().out.splitlines()[1:] == [
                f"GL(2,Z/{n}): not conjugate"]


class TestModuleEnumeration:
    def test_sweep_searches_each_prime_power_once(self, monkeypatch):
        searched = []
        search = CommutationSolver.witness_mod_prime_power

        def counting(self, p, e):
            searched.append((p, e))
            return search(self, p, e)

        monkeypatch.setattr(CommutationSolver, "witness_mod_prime_power",
                            counting)
        factored = []
        monkeypatch.setattr("procong.torus.factorize",
                            lambda n: factored.append(n) or trial_division(n))
        report = congruence_sweep(PAIR_A, PAIR_B, 1000)
        assert report.procongruence_candidate
        assert len(searched) == len(set(searched))
        # every level searches its prime powers, except those dividing 264,
        # where A = B mod n; their prime powers recur at other levels
        assert set(searched) == {
            pe for n in range(2, 1001) for pe in trial_division(n)}
        # the sweep reads every level's prime powers off its sieve
        assert factored == []
        # and searches what the one-level route searches: for traces 3 and
        # 4, which differ mod every q, nothing
        for a, b in ((PAIR_A, PAIR_B), (Mat2(2, 1, 1, 1), Mat2(3, 1, 2, 1))):
            searched.clear()
            congruence_sweep(a, b, 400)
            swept = set(searched)
            searched.clear()
            solver = CommutationSolver(a, b)
            for n in range(1, 401):
                solver.witness_mod(n)
            assert swept == set(searched)
        assert swept == set()

    def test_sweep_equals_the_one_level_route(self):
        # four kinds of pair: conjugate in SL(2,Z), of equal trace but not
        # conjugate, of traces that differ mod small primes (by a multiple
        # of 6, so the levels dividing the gap still search), and the
        # classical pair, where A = B mod 264
        rng = random.Random(59)
        pairs = [(PAIR_A, PAIR_B)]
        for _ in range(2):
            a, x = random_sl2(rng, length=3), random_sl2(rng, length=2)
            pairs.append((a, x @ a @ x.inverse()))
        while len(pairs) < 5:
            a = random_sl2(rng, length=3)
            if abs(a.trace()) > 2:
                pairs.append((a, equal_trace_partner(rng, a)))
        while len(pairs) < 7:
            a, b = random_sl2(rng, length=3), random_sl2(rng, length=3)
            if a.trace() != b.trace() and (a.trace() - b.trace()) % 6 == 0:
                pairs.append((a, b))
        for a, b in pairs:
            report = congruence_sweep(a, b, 300)
            for n, verdict in enumerate(report.verdicts, start=1):
                witness = CommutationSolver(a, b).witness_mod(n)
                assert verdict.modulus == n
                assert verdict.conjugate == (witness is not None), (a, b, n)
                assert verdict.witness == witness, (a, b, n)

    def test_verify_agrees_with_the_matrix_products(self):
        # verify checks x a - b x = 0 mod n on int entries; the oracle is the
        # Mat2 product route
        rng = random.Random(17)
        for _ in range(300):
            a = random_sl2(rng, length=3)
            b = random_sl2(rng, length=3) if rng.random() < 0.5 else a
            n = rng.randint(2, 40)
            solver = CommutationSolver(a, b)
            x = Mat2(*(rng.randrange(n) for _ in range(4)))
            if rng.random() < 0.3:
                x = solver.witness_mod(n) or x
            unit = gcd(x.det(), n) == 1
            commutes = ((x @ a) - (b @ x)).mod(n) == Mat2(0, 0, 0, 0)
            if unit and commutes:
                solver.verify(x, n)
                continue
            message = "not a unit" if not unit else "does not intertwine"
            with pytest.raises(AssertionError, match=message):
                solver.verify(x, n)


def equal_trace_partner(rng, a):
    """A determinant-1 matrix with the trace of a that is not conjugate to a
    in SL(2,Z)."""
    t = a.trace()
    while True:
        x = rng.randint(-6, 6)
        rest = x * (t - x) - 1          # = y z
        divisors = [y for y in range(1, abs(rest) + 1) if rest % y == 0]
        if not divisors:
            continue
        y = rng.choice(divisors) * rng.choice([1, -1])
        b = Mat2(x, y, rest // y, t - x)
        if not sl2_conjugate(a, b).conjugate:
            return b


def walk_cases():
    """The classical pair, six SL(2,Z)-conjugate random pairs and six
    equal-trace pairs that are not conjugate in SL(2,Z)."""
    rng = random.Random(43)
    conjugate, separate = [], []
    while len(conjugate) < 6:
        a = random_sl2(rng, length=3)
        x = random_sl2(rng, length=2)
        conjugate.append((a, x @ a @ x.inverse()))
    while len(separate) < 6:
        a = random_sl2(rng, length=3)
        if abs(a.trace()) > 2:
            separate.append((a, equal_trace_partner(rng, a)))
    return [(PAIR_A, PAIR_B)] + conjugate + separate


def module_size(solver, n):
    size = 1
    for d in solver.diag:
        size *= gcd(d, n)
    return size


WALK_CAP = 4096     # the largest module the walk oracle is run on


class TestOrderedWalk:
    @pytest.mark.parametrize("a,b", walk_cases(), ids=(
        ["classical"] + [f"conjugate{i}" for i in range(6)]
        + [f"separate{i}" for i in range(6)]))
    def test_walk_agrees_with_the_prime_power_route(self, a, b):
        # the least unit found by walking the module's Howell basis
        # (tests/reference.py) against the solver's prime-power witness
        solver = CommutationSolver(a, b)
        compared = 0
        for n in range(2, 65):
            if module_size(solver, n) > WALK_CAP or a.mod(n) == b.mod(n):
                continue
            mine, least = solver.witness_mod(n), least_unit_by_walk(solver, n)
            assert (mine is None) == (least is None), (a, b, n)
            for witness in (mine, least):
                if witness is not None:
                    solver.verify(witness, n)
            compared += 1
        assert compared > 0
