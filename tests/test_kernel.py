"""Tests for exact scalar / polynomial arithmetic and homological orders."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from procong import kernel
from procong.kernel import (
    Cyclotomic,
    as_exact,
    hermitian_products,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    charpoly_coefficients,
    cyclotomic_polynomial,
    homology_order,
    laurent_gcd,
    log_coefficients,
    normalize_unit_class,
    parse_scalar,
    products_cancel,
    render_scalar,
    scalar_inverse,
    smith_diagonalize,
)
from procong.lattice import ext_gcd, smith_integer
from procong.serialize import load_fixture
from procong.surfgrp import twisted_alexander
from reference import (affine_rep, canonical_rows, complex_conjugate, dense,
                       dense_charpoly, dense_entries, dense_map, dense_product,
                       dense_transpose, howell_form, howell_points,
                       integer_kernel_basis, leibniz_determinant, poly_matrix)

T = LaurentPolynomial.t_power(1)
ONE = LaurentPolynomial.one()
ZERO = LaurentPolynomial.zero()


def poly(*coeffs, valuation=0):
    return LaurentPolynomial.from_coefficients(coeffs, valuation)


# units u with an independent u^e for every integer e
UNIT_POWERS = ((-1, lambda e: 1 if e % 2 == 0 else -1),
               (Cyclotomic.root(5, 2), lambda e: Cyclotomic.root(5, 2 * e)),
               (Cyclotomic.root(12), lambda e: Cyclotomic.root(12, e)))
UNIT_POWER_IDS = ("sign", "zeta5^2", "zeta12")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).map(lambda f: f if f.denominator > 1 else int(f))

laurent_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=4), small_rationals, max_size=5
).map(LaurentPolynomial)

nonzero_laurent = laurent_polys.filter(lambda p: not p.is_zero())


# ---------------------------------------------------------------------------
# cyclotomic field arithmetic
# ---------------------------------------------------------------------------

class TestCyclotomic:
    def test_primitive_root_order(self):
        for n in (1, 2, 3, 4, 5, 6, 8, 12):
            z = Cyclotomic.root(n)
            assert (z ** n).demote() == 1
            for k in range(1, n):
                assert (z ** k).demote() != 1

    def test_sixth_root_relation(self):
        z = Cyclotomic.root(6)
        # zeta_6 satisfies x^2 - x + 1 = 0
        assert (z * z - z + 1).is_zero()

    def test_conjugation_is_inversion_on_roots(self):
        for n in (3, 4, 5, 7, 12):
            z = Cyclotomic.root(n)
            assert complex_conjugate(z) == z ** (n - 1)
            assert (z * complex_conjugate(z)).demote() == 1

    def test_inverse(self):
        z = Cyclotomic.root(5)
        x = 2 * z + 3 * z ** 2 - Fraction(1, 2)
        assert (x * x.inverse()).demote() == 1

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 59])
    def test_root_inverse_is_looked_up(self, n, monkeypatch):
        # zeta_n^k inverts to zeta_n^-k without the extended Euclid, which
        # still inverts every other element
        divide = LaurentPolynomial.divmod_poly
        monkeypatch.setattr(LaurentPolynomial, "divmod_poly", None)
        for k in range(n):
            z = Cyclotomic.root(n, k)
            assert z.inverse() == Cyclotomic.root(n, -k)
            assert (z * z.inverse()).demote() == 1
        monkeypatch.setattr(LaurentPolynomial, "divmod_poly", divide)
        x = Cyclotomic.root(n) + 1
        if n > 2:
            assert (x * x.inverse()).demote() == 1

    @pytest.mark.parametrize("n, coeffs", [
        (1, (-1, 1)),
        (2, (1, 1)),
        (12, (1, 0, -1, 0, 1)),
        (60, (1, 0, 1, 0, 0, 0, -1, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1)),
        # the first cyclotomic polynomial with a coefficient -2
        (105, (1, 1, 1, 0, 0, -1, -1, -2, -1, -1, 0, 0, 1, 1, 1, 1, 1, 1, 0,
               0, -1, 0, -1, 0, -1, 0, -1, 0, -1, 0, 0, 1, 1, 1, 1, 1, 1, 0,
               0, -1, -1, -2, -1, -1, 0, 0, 1, 1, 1)),
    ])
    def test_cyclotomic_polynomial_is_pinned(self, n, coeffs):
        phi = cyclotomic_polynomial(n)
        assert phi == coeffs
        assert all(type(c) is int for c in phi)

    def test_cyclotomic_polynomials_multiply_to_x_n_minus_one(self):
        # prod_{d | n} Phi_d = x^n - 1, multiplied out as Laurent polynomials
        for n in range(1, 121):
            product = LaurentPolynomial.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * LaurentPolynomial.from_coefficients(
                        cyclotomic_polynomial(d))
            assert product == LaurentPolynomial({0: -1, n: 1}), n

    @pytest.mark.parametrize("n", range(1, 31))
    def test_inverse_of_seeded_elements(self, n):
        rng = random.Random(n)
        deg = len(cyclotomic_polynomial(n)) - 1
        elements = [Cyclotomic.from_rational(n, Fraction(-3, 7)),
                    Cyclotomic.from_rational(n, 5)]
        for _ in range(4):
            elements.append(Cyclotomic(n, [
                Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(deg)]))
        for x in elements:
            if x.is_zero():
                continue
            assert x * x.inverse() == 1

    def test_rational_demotion(self):
        z = Cyclotomic.root(4)
        assert (z * z).demote() == -1
        assert isinstance((z * z).demote(), int)

    def test_galois_sum_is_rational(self):
        # sum over a full orbit of primitive roots lands in Q (a Mobius value)
        for n in (5, 7, 8, 12):
            total = Cyclotomic.from_rational(n, 0)
            for k in range(1, n):
                if gcd(k, n) == 1:
                    total = total + Cyclotomic.root(n, k)
            assert not isinstance(total.demote(), Cyclotomic)

    @given(st.integers(min_value=1, max_value=12), st.integers(), st.integers())
    def test_root_powers_compose(self, n, a, b):
        z = Cyclotomic.root(n)
        assert Cyclotomic.root(n, a) * Cyclotomic.root(n, b) == Cyclotomic.root(n, a + b)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 6, 12, 31, 59))
    def test_root_exponent_of_every_root(self, n):
        z = Cyclotomic.root(n)
        for k in range(n):
            root = Cyclotomic.root(n, k)
            assert root.root_exponent() == k
            # the same value built by arithmetic finds the same exponent
            assert (z ** k).root_exponent() == k
            assert Cyclotomic.root(n, k - n).root_exponent() == k
        assert (2 * z).root_exponent() is None
        assert (1 + z).root_exponent() is None
        assert Cyclotomic.from_rational(n, 2).root_exponent() is None
        assert Cyclotomic.from_rational(n, 0).root_exponent() is None

    def test_root_exponent_leaves_value_equality_and_hash(self):
        z = Cyclotomic.root(12, 5)
        twin = Cyclotomic.root(12, 5)
        one = Cyclotomic.from_rational(7, 1)
        before = (hash(z), hash(one))
        assert z.root_exponent() == 5 and one.root_exponent() == 0
        assert (hash(z), hash(one)) == before == (hash(twin), hash(1))
        assert z == twin and one == 1 and one == Cyclotomic.root(3, 0)
        with pytest.raises(AttributeError, match="immutable"):
            z._root = 4
        assert z.root_exponent() == 5

    def test_root_exponent_looks_up_once_per_value(self, monkeypatch):
        lookups = []
        lookup = kernel._lookup_root

        def counting(n, coeffs):
            lookups.append((n, coeffs))
            return lookup(n, coeffs)

        monkeypatch.setattr(kernel, "_lookup_root", counting)
        z, w = Cyclotomic.root(31, 3), 1 + Cyclotomic.root(31, 3)
        assert [z.root_exponent() for _ in range(3)] == [3, 3, 3]
        assert [w.root_exponent() for _ in range(3)] == [None] * 3
        assert lookups == [(31, z.coeffs), (31, w.coeffs)]

    def test_scalar_string_round_trip(self):
        for text in ("3", "-7", "2/3", "cyc(6):[1/2,-1/3]", "cyc(5):[0,1,0,0]"):
            value = parse_scalar(text)
            assert parse_scalar(render_scalar(value)) == value

    @pytest.mark.parametrize("value", [3, 1.5, None, ["1"]])
    def test_non_string_scalar_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="scalar must be a string"):
            parse_scalar(value)

    def test_hermitian_dot_matches_termwise_sum(self):
        rng = random.Random(3)
        for n in (1, 2, 5, 12, 31):
            def scalar():
                kind = rng.randrange(3)
                if kind == 0:
                    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                value = sum(rng.randint(-2, 2) * Cyclotomic.root(n, k)
                            for k in rng.sample(range(n), min(n, 3)))
                return value.demote() if kind == 1 else value
            for _ in range(20):
                xs = [scalar() for _ in range(rng.randrange(6))]
                ys = [scalar() for _ in xs]
                expected = 0
                for x, y in zip(xs, ys):
                    expected = expected + complex_conjugate(x) * y
                got = hermitian_products([xs], ys)[0]
                assert got == expected and got == as_exact(expected)

    def test_hermitian_dot_rejects_mixed_conductors(self):
        with pytest.raises(ValueError, match="mixed conductors"):
            hermitian_products([[Cyclotomic.root(3)]], [Cyclotomic.root(4)])
        with pytest.raises(ValueError, match="mixed conductors"):
            hermitian_products([[Cyclotomic.root(3), 1]],
                               [1, Cyclotomic.root(5)])
        with pytest.raises(ValueError, match="mixed conductors"):
            hermitian_products([[1, 2], [Cyclotomic.root(4), 1]],
                               [Cyclotomic.root(3), 1])

    def test_rational_value_joins_the_other_operands_field(self):
        # the rational operand may come first: both are Cyclotomic, so
        # Python tries no reflected method
        two, z = Cyclotomic.from_rational(3, 2), Cyclotomic.root(5)
        for left, right, expected in [
                (two + z, z + two, z + 2), (two - z, -(z - two), 2 - z),
                (two * z, z * two, 2 * z)]:
            assert left == right == expected
            assert left.conductor == 5
        with pytest.raises(ValueError, match="mixed conductors 3 and 5"):
            Cyclotomic.root(3) + z

    @staticmethod
    def _random_scalar(rng, n):
        """A root of unity, a non-root cyclotomic, an int or a Fraction."""
        kind = rng.randrange(4)
        if kind == 0:
            return Cyclotomic.root(n, rng.randrange(n))
        if kind == 1:
            return sum((Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        * Cyclotomic.root(n, k)
                        for k in rng.sample(range(n), min(n, 3))),
                       Cyclotomic.from_rational(n, rng.randint(-2, 2)))
        if kind == 2:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    @pytest.mark.parametrize("n", range(1, 31))
    def test_hermitian_products_match_termwise_sums(self, n):
        rng = random.Random(1000 + n)
        for _ in range(6):
            width = rng.randrange(7)
            ys = [self._random_scalar(rng, n) for _ in range(width)]
            rows = [[self._random_scalar(rng, n) for _ in range(width)]
                    for _ in range(rng.randrange(1, 5))]
            got = hermitian_products(rows, ys)
            assert len(got) == len(rows)
            for row, value in zip(rows, got):
                expected = 0
                for x, y in zip(row, ys):
                    expected = expected + complex_conjugate(x) * y
                assert value == expected and value == as_exact(expected)
                assert type(value) is type(as_exact(expected))
                assert hermitian_products([row], ys)[0] == value

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8, 12, 30))
    def test_scalar_operands_match_the_generic_route(self, n):
        rng = random.Random(n)
        for _ in range(20):
            x = self._random_scalar(rng, n)
            if not isinstance(x, Cyclotomic):
                x = Cyclotomic.from_rational(n, x)
            s = rng.choice([rng.randint(-5, 5),
                            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                            Fraction(6, 3)])
            lifted = Cyclotomic.from_rational(n, s)
            pairs = [(x * s, x * lifted), (s * x, lifted * x),
                     (x + s, x + lifted), (s + x, lifted + x),
                     (x - s, x - lifted), (s - x, lifted - x)]
            for fast, generic in pairs:
                assert isinstance(fast, Cyclotomic)
                assert fast.conductor == generic.conductor
                assert fast.coeffs == generic.coeffs
                assert [type(c) for c in fast.coeffs] \
                    == [type(c) for c in generic.coeffs]

    @pytest.mark.parametrize("op", ["*", "+", "-", "/", "r*", "r+", "r-"])
    def test_booleans_are_not_scalar_operands(self, op):
        z = Cyclotomic.root(5)
        with pytest.raises(TypeError):
            {"*": lambda: z * True, "+": lambda: z + True,
             "-": lambda: z - True, "/": lambda: z / True,
             "r*": lambda: True * z, "r+": lambda: True + z,
             "r-": lambda: True - z}[op]()

    def test_integral_fractions_are_stored_as_ints(self):
        for n in (1, 5, 12):
            value = Cyclotomic(n, [Fraction(3, 1)])
            assert value.coeffs[0] == 3 and type(value.coeffs[0]) is int
            assert render_scalar(Cyclotomic.root(n) * Fraction(4, 2)) \
                == render_scalar(Cyclotomic.root(n) * 2)
        # a long vector reduced through the table is canonical too
        long = Cyclotomic(5, [Fraction(2, 2)] * 6 + [Fraction(1, 2)])
        assert all(type(c) in (int, Fraction) for c in long.coeffs)
        assert long == Cyclotomic(5, [1] * 6 + [Fraction(1, 2)])
        assert type(long.coeffs[2]) is int


# ---------------------------------------------------------------------------
# Laurent polynomial ring
# ---------------------------------------------------------------------------

class TestLaurentPolynomial:
    def test_basic_identities(self):
        p = poly(1, -3, 1)
        assert p.coefficient(1) == -3
        assert p.degree == 2 and p.valuation == 0
        assert (p - p).is_zero()
        assert p * ONE == p

    def test_negative_exponents(self):
        p = LaurentPolynomial({-2: 1, 1: 3})
        assert p.valuation == -2
        assert (p.shift(2)).valuation == 0

    def test_monomial_inverse(self):
        m = LaurentPolynomial.t_power(3, Fraction(2, 5))
        assert m ** (-1) == LaurentPolynomial.t_power(-3, Fraction(5, 2))
        assert m * m ** (-1) == ONE

    def test_exact_division(self):
        a = poly(-1, 0, 0, 1)            # t^3 - 1
        b = poly(-1, 1)                  # t - 1
        q = a.exact_divide(b)
        assert q == poly(1, 1, 1)
        with pytest.raises(ValueError):
            poly(1, 1).exact_divide(poly(1, 1, 1))

    @given(laurent_polys, laurent_polys, laurent_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(laurent_polys, laurent_polys)
    def test_exact_addition_cancels(self, a, b):
        assert (a + b) - b == a

    @given(laurent_polys, nonzero_laurent)
    def test_division_reconstructs(self, a, b):
        prod = a * b
        if not prod.is_zero():
            assert prod.exact_divide(b) == a

    @given(nonzero_laurent, nonzero_laurent)
    def test_gcd_divides_both(self, a, b):
        g = laurent_gcd(a, b)
        a.exact_divide(g)
        b.exact_divide(g)
        assert g == g.monic_normal()

    @given(nonzero_laurent, st.integers(min_value=-3, max_value=3), small_rationals)
    def test_monic_normal_kills_units(self, p, shift, c):
        if c == 0:
            c = 1
        unit = LaurentPolynomial.t_power(shift, c)
        assert (p * unit).monic_normal() == p.monic_normal()

    def test_json_round_trip(self):
        p = LaurentPolynomial({-1: Fraction(1, 2), 2: -3})
        assert LaurentPolynomial.from_json(p.to_json()) == p

    @pytest.mark.parametrize("u, power", UNIT_POWERS,
                             ids=UNIT_POWER_IDS)
    def test_at_u_t_is_exact_term_by_term(self, u, power):
        # p(u t) against u^e evaluated term by term; (-1) ** -2 is the
        # float 1.0, so every coefficient's type is checked too
        p = LaurentPolynomial({-13: 2, -5: -3, -2: 1, -1: Fraction(1, 2),
                               0: 7, 3: -1, 10: Fraction(-4, 3), 25: 5})
        q = p.at_u_t(u)
        assert q.terms.keys() == p.terms.keys()
        for e, c in p.terms.items():
            expected = as_exact(c * power(e))
            assert q.terms[e] == expected, e
            assert type(q.terms[e]) is type(expected), e
        assert {type(c) for c in q.terms.values()} <= {int, Fraction,
                                                       Cyclotomic}
        assert q.at_u_t(scalar_inverse(u)) == p
        assert p.at_u_t(1) is p and ZERO.at_u_t(u) == ZERO


@st.composite
def polys_over_one_field(draw, count):
    """`count` polynomials over one field Q(zeta_n), n in {3, 4}, with
    coefficients given as ints, Fractions (integral ones too) and
    cyclotomic values (rational and zero ones too)."""
    n = draw(st.sampled_from((3, 4)))
    scalars = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.lists(st.integers(-2, 2), min_size=1, max_size=2 * n).map(
            lambda coeffs: Cyclotomic(n, coeffs)))
    polys = st.dictionaries(st.integers(-2, 3), scalars, max_size=4).map(
        LaurentPolynomial)
    return [draw(polys) for _ in range(count)]


def assert_canonical(p):
    """No zero coefficient, no integral Fraction, no rational Cyclotomic."""
    for c in p.terms.values():
        assert type(c) in (int, Fraction, Cyclotomic)
        assert c != 0
        assert not (type(c) is Fraction and c.denominator == 1)
        assert not (type(c) is Cyclotomic and c.is_rational())


class TestCanonicalResults:
    """Results of polynomial arithmetic are built without re-validating
    their coefficients; they must still come out canonical."""

    @given(polys_over_one_field(3))
    def test_ring_operations(self, polys):
        a, b, c = polys
        for p in polys:
            assert_canonical(p)
        for result in (a + b, a - b, -a, a * b, a * b + c, a * b - a * b,
                       a.shift(3), a.shift(-2), a + 1, Fraction(1, 2) - a):
            assert_canonical(result)
        assert (a - b) + b == a
        assert (a * b).shift(1) == a * b.shift(1)

    @given(polys_over_one_field(2))
    def test_divmod_poly(self, polys):
        a, b = polys
        if not b:
            return
        num = a.shift(-a.valuation) if a else a
        den = b.shift(-b.valuation)
        q, r = num.divmod_poly(den)
        assert_canonical(q)
        assert_canonical(r)
        assert q * den + r == num
        assert r.is_zero() or r.degree < den.degree

    @given(polys_over_one_field(8))
    def test_poly_matrix_product(self, polys):
        a = poly_matrix(2, 2, [polys[0:2], polys[2:4]])
        b = poly_matrix(2, 2, [polys[4:6], polys[6:8]])
        product = dense_entries(a @ b)
        a, b = dense_entries(a), dense_entries(b)
        for i in range(2):
            for j in range(2):
                entry = product[i][j]
                assert_canonical(entry)
                assert entry == (a[i][0] * b[0][j] + a[i][1] * b[1][j])

    def test_cancellations_are_demoted(self):
        half = LaurentPolynomial({0: Fraction(1, 2), 1: Cyclotomic.root(4)})
        total = half + half
        assert total.terms[0] == 1 and type(total.terms[0]) is int
        square = LaurentPolynomial.constant(Cyclotomic.root(4)) ** 2
        assert square.terms == {0: -1} and type(square.terms[0]) is int
        assert (half - half).terms == {}
        pairs = LaurentPolynomial([(0, Fraction(1, 2)), (0, Fraction(1, 2))])
        assert pairs.terms == {0: 1} and type(pairs.terms[0]) is int

    @pytest.mark.parametrize("terms", [{0: True}, {1: False}, [(0, True)],
                                       {0: 1.5}, {0: "1"}])
    def test_constructor_still_rejects_non_scalars(self, terms):
        with pytest.raises(TypeError):
            LaurentPolynomial(terms)


# ---------------------------------------------------------------------------
# rational functions, series, logs
# ---------------------------------------------------------------------------

def exp_series(l_values, terms):
    """Coefficients of exp(sum L_m t^m / m) up to t^terms: the inverse of
    log_coefficients, kept here as its round-trip oracle."""
    coeffs = [1]
    for m in range(1, terms + 1):
        acc = sum(l_values[i - 1] * coeffs[m - i]
                  for i in range(1, min(m, len(l_values)) + 1))
        coeffs.append(as_exact(Fraction(acc, m)))
    return coeffs


class TestRationalFunction:
    @pytest.mark.parametrize("u", [u for u, _ in UNIT_POWERS],
                             ids=UNIT_POWER_IDS)
    def test_at_u_t_stays_canonical(self, u):
        # t -> u t keeps a reduced fraction reduced, so the result equals
        # the one the constructor reduces and normalizes
        for f in (RationalFunction(poly(1, -3, 1), (ONE - T) * (ONE - T)),
                  RationalFunction(poly(2, 0, 5, valuation=-3),
                                   poly(3, 1, 0, -1))):
            assert f.at_u_t(u) == RationalFunction(f.num.at_u_t(u),
                                                   f.den.at_u_t(u))
            assert f.at_u_t(u).den.coefficient(0) == 1
    def test_reduction(self):
        f = RationalFunction(poly(-1, 0, 0, 1), poly(-1, 1))      # (t^3-1)/(t-1)
        assert f == RationalFunction(poly(1, 1, 1))

    def test_canonical_denominator(self):
        f = RationalFunction(poly(0, 2), poly(0, 0, 4, -4))       # 2t / (4t^2 - 4t^3)
        assert f.den.coefficient(0) == 1
        assert f.den.valuation == 0

    def test_series_known_expansion(self):
        # 1/(1-t) = 1 + t + t^2 + ...
        f = RationalFunction(ONE, ONE - T)
        assert f.series(4) == [1, 1, 1, 1]

    def test_series_frozen_quadratic_over_square(self):
        f = RationalFunction(poly(1, -3, 1), (ONE - T) * (ONE - T))
        assert f.series(5) == [1, -1, -2, -3, -4]

    def test_series_pole_rejected(self):
        f = RationalFunction(ONE, T)
        with pytest.raises(ValueError):
            f.series(3)

    def test_log_coefficients_frozen(self):
        f = RationalFunction(poly(1, -3, 1), (ONE - T) * (ONE - T))
        series = f.series(7)
        assert log_coefficients(series, 3) == [-1, -5, -16]

    def test_log_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            log_coefficients([2, 1, 1], 1)

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6))
    def test_log_exp_round_trip(self, l_values):
        n = len(l_values)
        series = exp_series(l_values, n)
        assert log_coefficients(series, n) == l_values

    def test_constants_hash_like_their_scalar(self):
        poly3 = LaurentPolynomial.constant(3)
        frac3 = RationalFunction(poly3)
        assert poly3 == 3 and frac3 == 3 and frac3 == poly3
        assert hash(poly3) == hash(frac3) == hash(3)
        assert len({poly3, 3}) == 1
        assert len({poly3, frac3, 3}) == 1
        assert hash(LaurentPolynomial.zero()) == hash(0)
        assert hash(RationalFunction(poly(1, 2))) == hash(poly(1, 2))


class TestNormalizedTorsionClass:
    def test_scaled_shifted_input(self):
        f = RationalFunction(3 * T * T * poly(1, -3, 1), (ONE - T) * (ONE - T))
        rep = normalize_unit_class(f)
        assert rep.value == RationalFunction(poly(1, -3, 1), (ONE - T) * (ONE - T))

    def test_rational_with_common_factor(self):
        g = RationalFunction(Fraction(1, 2) * (2 * T - 6 * T * T + 2 * T ** 3),
                             T - T * T)
        assert normalize_unit_class(g).value == RationalFunction(poly(1, -3, 1), ONE - T)

    def test_zero_passes_through(self):
        assert normalize_unit_class(RationalFunction.zero()).is_zero()

    @given(laurent_polys, nonzero_laurent,
           st.integers(min_value=-3, max_value=3), small_rationals)
    @settings(max_examples=60)
    def test_orbit_invariance(self, a, b, shift, c):
        if c == 0:
            c = Fraction(1, 3)
        unit = LaurentPolynomial.t_power(shift, c)
        assert normalize_unit_class(RationalFunction(a, b)) \
            == normalize_unit_class(RationalFunction(a * unit, b))

    def test_representative_has_value_one(self):
        f = RationalFunction(poly(0, 0, 5, -15, 5), poly(2, -2))
        rep = normalize_unit_class(f).value
        assert rep.num.valuation == 0
        assert rep.num.coefficient(0) == rep.den.coefficient(0) == 1


# ---------------------------------------------------------------------------
# polynomial matrices, diagonalization, homology orders
# ---------------------------------------------------------------------------

def random_poly_matrix(rng, rows, cols, max_deg=1, span=2):
    return poly_matrix(rows, cols, [
        [LaurentPolynomial({e: rng.randint(-span, span) for e in range(max_deg + 1)})
         for _ in range(cols)] for _ in range(rows)])


def unimodular_pair(data, n):
    """A random unimodular n x n matrix over Q[t^{+-1}] with its inverse:
    a product of elementary, transposition and monomial-unit factors."""
    u, u_inv = PolyMatrix.identity(n), PolyMatrix.identity(n)
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        kind = data.draw(st.sampled_from(("add", "swap", "unit")))
        if kind == "add" and i != j:
            q = data.draw(laurent_polys)
            step = PolyMatrix.build(n, n, lambda a, b: ONE if a == b else (
                q if (a, b) == (i, j) else ZERO))
            back = PolyMatrix.build(n, n, lambda a, b: ONE if a == b else (
                -q if (a, b) == (i, j) else ZERO))
        elif kind == "swap":
            swap = {i: j, j: i}
            step = back = PolyMatrix.build(
                n, n, lambda a, b: ONE if swap.get(a, a) == b else ZERO)
        else:
            c = data.draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))
            e = data.draw(st.integers(-2, 2))
            unit = LaurentPolynomial.t_power(e, c)
            step = PolyMatrix.build(n, n, lambda a, b: (
                unit if a == i else ONE) if a == b else ZERO)
            back = PolyMatrix.build(n, n, lambda a, b: (
                unit ** -1 if a == i else ONE) if a == b else ZERO)
        u, u_inv = u @ step, back @ u_inv
    assert u @ u_inv == PolyMatrix.identity(n)
    return u, u_inv


class TestPolyMatrix:
    def test_determinant_two_by_two(self):
        m = poly_matrix(2, 2, [[ONE - T, T], [T, ONE]])
        assert m.determinant() == (ONE - T) - T * T

    def test_determinant_multiplicative(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_poly_matrix(rng, 3, 3)
            b = random_poly_matrix(rng, 3, 3)
            assert (a @ b).determinant() == a.determinant() * b.determinant()

    def test_zero_dimensional(self):
        e = PolyMatrix.zero(0, 0)
        assert e.determinant() == ONE
        assert PolyMatrix.zero(0, 3).rows == 0

    def test_block_assembly(self):
        a = PolyMatrix.identity(2)
        z = PolyMatrix.zero(2, 1)
        m = PolyMatrix.from_blocks([[a, z]])
        assert (m.rows, m.cols) == (2, 3)


def assert_canonical_rows(m):
    assert canonical_rows(m)
    for row in m.sparse:
        for _, e in row:
            assert_canonical(e)


@st.composite
def grids(draw, rows, cols):
    """A dense rows x cols grid, about half of its entries zero."""
    entry = st.one_of(st.just(ZERO), st.dictionaries(
        st.integers(-1, 2), small_rationals, min_size=1, max_size=3).map(
            LaurentPolynomial))
    return tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))


class TestSparseRows:
    """Every PolyMatrix operation equals the dense computation of
    `reference` and leaves canonical rows, on shapes with 0 rows or 0
    columns and on sums and products that cancel."""

    @given(data=st.data())
    def test_operations_match_the_dense_reference(self, data):
        r, k, c = (data.draw(st.integers(0, 3)) for _ in range(3))
        ga, gb, gc = (data.draw(grids(*shape))
                      for shape in ((r, k), (k, c), (r, k)))
        a, b, other = (poly_matrix(*shape, g) for shape, g in
                       (((r, k), ga), ((k, c), gb), ((r, k), gc)))
        p = data.draw(st.one_of(small_rationals, laurent_polys))
        zeros = tuple((ZERO,) * c for _ in range(r))
        cases = {
            "build": (a, ga),
            "@": (a @ b, dense_product(ga, gb, c)),
            "+": (a + other, dense_map(lambda x, y: x + y, ga, gc)),
            "-": (a - other, dense_map(lambda x, y: x - y, ga, gc)),
            "negation": (-a, dense_map(lambda x: -x, ga)),
            "scale": (a.scale(p), dense_map(lambda x: x * p, ga)),
            "hstack": (a.hstack(other),
                       tuple(x + y for x, y in zip(ga, gc))),
            "vstack": (a.vstack(other), ga + gc),
            "from_blocks": (PolyMatrix.from_blocks([[a, other], [other, a]]),
                            tuple(x + y for x, y in zip(ga, gc))
                            + tuple(y + x for x, y in zip(ga, gc))),
            "grid_transpose": (a.grid_transpose(), dense_transpose(ga, k)),
            "a - a": (a - a, dense_map(lambda x: ZERO, ga)),
            "(a | a) @ (b ; -b)": (a.hstack(a) @ b.vstack(-b), zeros),
        }
        for name, (m, grid) in cases.items():
            assert_canonical_rows(m)
            assert dense_entries(m) == grid, name
        assert (a @ b).is_zero() == (dense_product(ga, gb, c) == zeros)
        # equal entries, however reached, give equal matrices and hashes
        assert (a == other) == (ga == gc)
        for same in ((a + other) - other, a.grid_transpose().grid_transpose(),
                     PolyMatrix(r, k, a.sparse), a.scale(1)):
            assert same == a and hash(same) == hash(a)
        assert a != PolyMatrix.zero(r, k + 1)
        assert a != PolyMatrix.zero(r + 1, k)

    @given(data=st.data())
    def test_determinant_matches_the_leibniz_sum(self, data):
        n = data.draw(st.integers(0, 4))
        grid = data.draw(grids(n, n))
        if n > 1 and data.draw(st.booleans()):
            grid = (grid[1],) + grid[1:]          # a repeated row: det 0
        assert (poly_matrix(n, n, grid).determinant()
                == leibniz_determinant(grid))


def submatrix(m, row_idx, col_idx):
    entries = dense_entries(m)
    return poly_matrix(len(row_idx), len(col_idx),
                       [[entries[i][j] for j in col_idx] for i in row_idx])


def minors(m, k):
    """All k x k minors of m, by the Bareiss determinant."""
    return [submatrix(m, rows, cols).determinant()
            for rows in combinations(range(m.rows), k)
            for cols in combinations(range(m.cols), k)]


@st.composite
def poly_matrices(draw, rows=None, cols=None):
    """Matrices (1..4 x 1..4 unless given) with entries a + bt, a and b in
    -2..2; a product through an inner dimension below the shape makes a
    rank-deficient one."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    entries = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(
        LaurentPolynomial.from_coefficients)

    def matrix(r, c):
        return poly_matrix(r, c, draw(st.lists(
            st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)))

    inner = draw(st.integers(0, min(rows, cols)))
    if inner == min(rows, cols):
        return matrix(rows, cols)
    return matrix(rows, inner) @ matrix(inner, cols)


def dense_diagonalize(matrix):
    """The dense loop that `smith_diagonalize` ran before its sparse
    elimination, kept as the oracle: the columns are shifted into F[t], each
    pivot is a nonzero entry of least degree in the remaining block, and
    Euclid steps clear its column, then its row."""
    rows, cols = matrix.rows, matrix.cols
    m = [list(r) for r in dense_entries(matrix)]

    def col_swap(a, b):
        for r in m:
            r[a], r[b] = r[b], r[a]

    for j in range(cols):
        vals = [r[j].valuation for r in m if r[j]]
        if vals and min(vals):
            v = min(vals)
            for r in m:
                r[j] = r[j].shift(-v)

    diag = []
    pr = pc = 0
    while pr < rows and pc < cols:
        best = min(((m[i][j].degree, i, j) for i in range(pr, rows)
                    for j in range(pc, cols) if m[i][j]), default=None)
        if best is None:
            break
        _, bi, bj = best
        m[pr], m[bi] = m[bi], m[pr]
        if bj != pc:
            col_swap(pc, bj)
        reduced = True
        while reduced:
            reduced = False
            pivot_row = m[pr]
            pivot = pivot_row[pc]
            for i in range(pr + 1, rows):
                row = m[i]
                if row[pc]:
                    q, r = row[pc].divmod_poly(pivot)
                    for j in range(pc, cols):
                        if pivot_row[j]:
                            row[j] = row[j] - q * pivot_row[j]
                    if r:
                        m[pr], m[i] = row, pivot_row
                        reduced = True
                        break
            if reduced:
                continue
            for j in range(pc + 1, cols):
                if pivot_row[j]:
                    q, r = pivot_row[j].divmod_poly(pivot)
                    for row in m:
                        if row[pc]:
                            row[j] = row[j] - q * row[pc]
                    if r:
                        col_swap(pc, j)
                        reduced = True
                        break
        diag.append(m[pr][pc])
        pr += 1
        pc += 1
    return tuple(diag)


def poly_product(polys):
    out = ONE
    for p in polys:
        out = out * p
    return out


def assert_matches_oracle(m):
    diag, want = smith_diagonalize(m), dense_diagonalize(m)
    assert len(diag) == len(want)
    assert poly_product(diag).unit_equal(poly_product(want))


SCALARS = {
    "int": st.integers(-3, 3).filter(bool),
    "fraction": st.fractions(-3, 3, max_denominator=4).filter(bool),
    "cyclotomic12": st.builds(lambda k, c: Cyclotomic.root(12, k) * c,
                              st.integers(0, 11), st.integers(1, 2)),
}


@st.composite
def sparse_matrices(draw, scalars):
    """Matrices up to 8 x 8, mostly zero and monomial: each entry is 0,
    +-t^k, c t^k or a + bt; a product through an inner dimension below the
    shape makes a rank-deficient one."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def entry():
        kind = draw(st.sampled_from(("0", "0", "0", "+-", "+-", "ct", "a+bt")))
        k = draw(st.integers(-2, 2))
        if kind == "0":
            return ZERO
        if kind == "+-":
            return LaurentPolynomial.t_power(k, draw(st.sampled_from((1, -1))))
        if kind == "ct":
            return LaurentPolynomial.t_power(k, draw(scalars))
        return LaurentPolynomial({0: draw(scalars), 1: draw(scalars)})

    def matrix(r, c):
        return poly_matrix(r, c, [[entry() for _ in range(c)]
                                  for _ in range(r)])

    inner = draw(st.integers(0, min(rows, cols)))
    if inner == min(rows, cols):
        return matrix(rows, cols)
    return matrix(rows, inner) @ matrix(inner, cols)


class TestSparseElimination:
    """`smith_diagonalize` against the dense oracle: the same rank, and
    products equal up to a unit."""

    @pytest.mark.parametrize("field", list(SCALARS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, field, data):
        assert_matches_oracle(data.draw(sparse_matrices(SCALARS[field])))

    def test_matches_dense_oracle_without_monomials(self):
        # no entry is a unit, so every pivot goes through Euclid steps on
        # its column and on its row; [[t^2 - 1, t^2 + t]] has gcd t + 1
        # and [[t - 1, t^2 + 1]] gcd 1
        gcd_cases = [([[T * T - 1, T * T + T]], ONE + T),
                     ([[T - 1, T * T + 1]], ONE),
                     ([[T + 1], [T * T - 1]], ONE + T)]
        for entries, gcd_ in gcd_cases:
            m = poly_matrix(len(entries), len(entries[0]), entries)
            assert poly_product(smith_diagonalize(m)).unit_equal(gcd_)
            assert_matches_oracle(m)
        rng = random.Random(2022)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = poly_matrix(rows, cols, [
                [LaurentPolynomial({e: rng.choice((-2, -1, 1, 3))
                                     for e in rng.sample(range(-1, 3), 2)})
                 for _ in range(cols)] for _ in range(rows)])
            assert all(len(e.terms) > 1
                       for row in dense_entries(m) for e in row)
            assert_matches_oracle(m)

    def test_genus_two_affine_orders_match_dense_oracle(self, monkeypatch):
        # degree-16 permutation representation of genus2_finite_order:
        # the fiber generators translate (Z/2)^4, t swaps the handles
        fixture = (Path(__file__).resolve().parent.parent / "fixtures"
                   / "genus2_finite_order.json")
        mt = load_fixture(fixture).payload
        orders = [twisted_alexander(mt, affine_rep(mt, 2), n)
                  for n in range(4)]
        assert orders[1].degree == 34
        monkeypatch.setattr(kernel, "smith_diagonalize", dense_diagonalize)
        assert orders == [twisted_alexander(mt, affine_rep(mt, 2), n)
                          for n in range(4)]


class TestDegree81Orders:
    """Delta_0..Delta_3 of genus2_finite_order under affine:3 (degree 81,
    matrices up to 405 x 405), as computed by the elimination on
    LaurentPolynomial entries that term dicts replaced.  A pivot order that
    changed a printed polynomial fails here."""

    # Delta_1 is palindromic of degree 164: its coefficients of t^0..t^82
    DELTA_1_LOW = (
        1, 16, 46, -624, -4359, 6144, 132624, 163584, -2292156, -6928576,
        24671912, 133516352, -138601068, -1741970688, -486012048, 17017425408,
        21573788358, -128847986592, -291916025692, 751052506208, 2731828992518,
        -3104445215232, -20138840834832, 5291922279168, 122682756458868,
        48670522479168, -630648367099032, -624280611044032, 2751463745820068,
        4467236677453568, -10090776086409072, -24662237704476672,
        29924006009599653, 113904900328757328, -62573246706089322,
        -454934682581846832, 23765754180057293, 1596400705944301568,
        592115651580565568, -4955616390503519232, -3847410858680189232,
        13607157928635533568, 16542701746059809568, -32767376681051480832,
        -57783809998093646832, 67562480409727351808, 174240367094062505408,
        -111746580750054356992, -465589762689588444792, 114794158055570299008,
        1116902380017627687600, 91551174586107031680, -2420424087089073920760,
        -925888077767080704000, 4745801639068573849280, 3249207324677147995136,
        -8393765412548370633904, -8569541140185667747584,
        13265758729521609387936, 19138865113088342359296,
        -18332476391997951956208, -37752466543381035721728,
        21008678710865974708032, 67057824021303210708992,
        -16718125690116844513678, -108312772879899904520416,
        -927148440404757893316, 159822837911397230167584,
        38941558143265028768034, -215648555755265085014016,
        -102696663911966916027936, 265400932030404400280064,
        193054185002935562654264, -295800270120282742788736,
        -303970126245872914173136, 294057367480156839560064,
        421871437392250943533464, -252222892304648618497536,
        -527695548299903345216736, 170889403262100965643264,
        601450595074816289236644, -60523330321994091998656,
        -627929552090688704486056)

    def test_orders_are_the_golden_values(self):
        fixture = (Path(__file__).resolve().parent.parent / "fixtures"
                   / "genus2_finite_order.json")
        mt = load_fixture(fixture).payload
        rep = affine_rep(mt, 3)
        assert rep.dimension == 81
        coeffs = self.DELTA_1_LOW + self.DELTA_1_LOW[-2::-1]
        assert [twisted_alexander(mt, rep, n) for n in range(4)] == [
            poly(-1, 1), LaurentPolynomial.from_coefficients(coeffs),
            poly(-1, 1), ONE]


def block_matrix(rng):
    """A matrix up to 40 x 40 that is block diagonal, with blocks up to
    6 x 6, once its rows and columns are shuffled.  Its entries are mostly
    0 and units +-t^k, otherwise c t^k or a + bt^m.  Many entries tie in
    span and in Markowitz cost, about half of the matrices need Euclid
    steps once the units run out, and the fill-in of the dense oracle
    stays inside the blocks, so its coefficients stay small."""
    max_rows, max_cols = rng.randint(1, 40), rng.randint(1, 40)
    blocks, rows, cols = [], 0, 0
    while True:
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        if blocks and (rows + r > max_rows or cols + c > max_cols):
            break
        blocks.append((rows, cols, r, c))
        rows, cols = rows + r, cols + c

    def entry():
        kind, k = rng.random(), rng.randint(-1, 1)
        if kind < 0.4:
            return ZERO
        if kind < 0.75:
            return LaurentPolynomial.t_power(k, rng.choice((1, -1)))
        if kind < 0.85:
            return LaurentPolynomial.t_power(k, rng.choice((2, -3)))
        return LaurentPolynomial({k: rng.choice((1, -1, 2)),
                                  k + rng.randint(1, 2): rng.choice((1, -2, 3))})

    grid = [[ZERO] * cols for _ in range(rows)]
    for i0, j0, r, c in blocks:
        for i in range(i0, i0 + r):
            grid[i][j0:j0 + c] = [entry() for _ in range(c)]
    row_order, col_order = list(range(rows)), list(range(cols))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return poly_matrix(rows, cols, [[grid[i][j] for j in col_order]
                                    for i in row_order])


def eliminate_checked(m) -> list:
    """`smith_diagonalize` on m, checked against the dense oracle, with
    each pivot checked against a scan of every entry left: it must have
    the least span and, among the entries of that span, the least
    Markowitz cost.  Returns the spans of the pivots taken."""
    choose = kernel._Elimination.choose_pivot
    spans = []

    def checked(work):
        keys = [(max(a) - min(a),
                 (len(row) - 1) * (len(work.cols[j]) - 1))
                for row in work.rows.values() for j, a in row.items()]
        chosen = choose(work)
        if not keys:
            assert chosen is None
            return chosen
        i, j = chosen
        a = work.rows[i][j]
        spans.append(max(a) - min(a))
        assert (spans[-1], (len(work.rows[i]) - 1)
                * (len(work.cols[j]) - 1)) == min(keys)
        return chosen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel._Elimination, "choose_pivot", checked)
        assert_matches_oracle(m)
    return spans


class TestPivotChoice:
    """The pivot choice of `smith_diagonalize` against a brute-force
    scan of every entry, on matrices with many ties."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_every_pivot_is_a_cheapest_entry(self, rng):
        eliminate_checked(block_matrix(rng))

    def test_eliminations_cross_the_unit_and_the_euclid_phase(self):
        # seeded matrices whose eliminations take units first and then
        # pivots of positive span, by Euclid steps
        crossing = 0
        for seed in range(20):
            spans = eliminate_checked(block_matrix(random.Random(seed)))
            crossing += spans[0] == 0 and max(spans) > 0
        assert crossing >= 10


@st.composite
def product_pairs(draw):
    """(a, b, c, d) with a @ b and c @ d of one shape, from `poly_matrices`;
    c @ d is a @ b regrouped, or a @ b plus a perturbation, or random."""
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    a = draw(poly_matrices(rows, inner))
    b = draw(poly_matrices(inner, cols))
    kind = draw(st.sampled_from(["same", "split", "perturbed", "random"]))
    if kind == "same":
        return a, b, a, b
    if kind == "split":
        # (a | 0) @ (b ; anything): the same product through a wider middle
        extra = draw(poly_matrices(inner, cols))
        return a, b, a.hstack(PolyMatrix.zero(rows, inner)), b.vstack(extra)
    if kind == "perturbed":
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        bump = PolyMatrix.build(rows, cols, lambda r, c: LaurentPolynomial(
            {1: 1}) if (r, c) == (i, j) else LaurentPolynomial.zero())
        return a, b, (a @ b) + bump, PolyMatrix.identity(cols)
    middle = draw(st.integers(1, 4))
    return (a, b, draw(poly_matrices(rows, middle)),
            draw(poly_matrices(middle, cols)))


class TestProductsCancel:
    @given(product_pairs())
    @settings(max_examples=200)
    def test_agrees_with_the_product_difference(self, mats):
        a, b, c, d = mats
        expected = (a @ b - c @ d).is_zero()
        assert products_cancel((1, a, b), (-1, c, d)) == expected
        assert products_cancel((-1, a, b), (1, c, d)) == expected
        assert products_cancel((1, a, b)) == (a @ b).is_zero()

    def test_shapes_must_agree(self):
        one = PolyMatrix.identity(1)
        two = PolyMatrix.identity(2)
        with pytest.raises(ValueError, match="shape mismatch"):
            products_cancel((1, one, two))
        with pytest.raises(ValueError, match="shape mismatch"):
            products_cancel((1, one, one), (-1, two, two))
        assert products_cancel((1, PolyMatrix.zero(0, 3),
                                PolyMatrix.zero(3, 2)))
        assert products_cancel((1, PolyMatrix.zero(2, 0),
                                PolyMatrix.zero(0, 2)))

    def test_cancellation_over_fractions_and_cyclotomics(self):
        z = Cyclotomic.root(12)
        half = LaurentPolynomial({0: Fraction(1, 2), 1: z})
        a = poly_matrix(1, 2, [[half, half]])
        b = poly_matrix(2, 1, [[LaurentPolynomial({-1: z})],
                               [LaurentPolynomial({-1: -z})]])
        assert products_cancel((1, a, b))
        same = poly_matrix(2, 1, [[LaurentPolynomial({-1: z})]] * 2)
        first = poly_matrix(2, 1, [[LaurentPolynomial({-1: z})],
                                   [LaurentPolynomial.zero()]])
        assert not products_cancel((1, a, same))
        assert products_cancel((1, a, same), (-1, a.scale(2), first))


class TestSmithDiagonalize:
    @given(poly_matrices())
    @settings(max_examples=150)
    def test_transform_bookkeeping(self, m):
        # the product of the diagonal is the gcd of the rank-size minors,
        # and the diagonal is kept on the matrix: a second call reads it
        diag = smith_diagonalize(m)
        assert all(d.valuation >= 0 for d in diag)
        g = LaurentPolynomial.zero()
        for minor in minors(m, len(diag)):
            g = laurent_gcd(g, minor)
        product = ONE
        for d in diag:
            product = product * d
        assert product.unit_equal(g)
        assert smith_diagonalize(m) is diag
        assert smith_diagonalize(PolyMatrix(m.rows, m.cols, m.sparse)) == diag

    @given(poly_matrices())
    @settings(max_examples=150)
    def test_kernel_dimension_matches_rank(self, m):
        # the length is the largest k with a nonzero k x k minor
        rank = len(smith_diagonalize(m))
        assert all(d.is_zero() for d in minors(m, rank + 1))
        assert any(not d.is_zero() for d in minors(m, rank))

    def test_rank_one_example(self):
        m = poly_matrix(2, 3, [[ONE, T, T * T], [T, T * T, T ** 3]])
        assert smith_diagonalize(m) == (ONE,)


class TestHomologyOrder:
    def test_cokernel_of_single_entry(self):
        m_in = poly_matrix(1, 1, [[T - 2]])
        assert homology_order(m_in, None) == (T - 2).monic_normal()

    def test_free_rank_gives_zero(self):
        z_in = PolyMatrix.zero(1, 0)
        z_out = PolyMatrix.zero(0, 1)
        assert homology_order(z_in, z_out).is_zero()

    def test_diagonal_presentation(self):
        m = poly_matrix(2, 2, [[T - 1, LaurentPolynomial.zero()],
                               [LaurentPolynomial.zero(), T - 3]])
        expected = ((T - 1) * (T - 3)).monic_normal()
        assert homology_order(m, None) == expected

    def test_zero_middle_module(self):
        assert homology_order(PolyMatrix.zero(0, 0), None) == ONE

    def test_unit_insensitive_to_presentation_choice(self):
        # the same module presented two ways must give unit-equal orders
        a = poly_matrix(2, 2, [[T - 1, LaurentPolynomial.zero()],
                               [LaurentPolynomial.zero(), T - 1]])
        b = poly_matrix(2, 2, [[T - 1, T - 1],
                               [LaurentPolynomial.zero(), T - 1]])
        assert homology_order(a, None) == homology_order(b, None)

    def test_matches_minor_gcd_oracle(self):
        # the order of a cokernel equals gcd of maximal minors, up to units
        rng = random.Random(23)
        for _ in range(12):
            n = rng.randint(1, 3)
            m = random_poly_matrix(rng, n, n + rng.randint(0, 1))
            order = homology_order(m, None)
            minors = []
            for cols in combinations(range(m.cols), n):
                minors.append(submatrix(m, range(n), cols).determinant())
            g = LaurentPolynomial.zero()
            for minor in minors:
                g = laurent_gcd(g, minor)
            if all(mi.is_zero() for mi in minors):
                assert order.is_zero()
            else:
                assert order == g.monic_normal()

    @given(st.data())
    def test_matches_unimodular_oracle(self, data):
        # d_out = [0 | I] U^-1 and d_in = U [D; 0] V with U, V unimodular:
        # the homology is coker(D), of order det D, or 0 when D is singular
        kept = data.draw(st.integers(1, 3))
        killed = data.draw(st.integers(0, 2))
        n = kept + killed
        d = data.draw(poly_matrices(kept, kept))
        if data.draw(st.booleans()):
            # a zero column: the homology has positive rank
            d = d @ PolyMatrix.build(kept, kept, lambda i, j: ONE
                                     if i == j < kept - 1 else ZERO)
        u, u_inv = unimodular_pair(data, n)
        v, _ = unimodular_pair(data, kept)
        d_out = PolyMatrix.build(
            killed, n, lambda i, j: ONE if j == kept + i else ZERO) @ u_inv
        entries = dense_entries(d)
        d_in = u @ PolyMatrix.build(
            n, kept, lambda i, j: entries[i][j] if i < kept else ZERO) @ v
        assert homology_order(d_in, d_out) == d.determinant().monic_normal()

    def test_quotient_with_outgoing_boundary(self):
        # middle module rank 2, outgoing kills one direction, incoming hits
        # the kernel direction with multiplier (t - 5)
        b_out = poly_matrix(1, 2, [[LaurentPolynomial.zero(), ONE]])
        b_in = poly_matrix(2, 1, [[T - 5], [LaurentPolynomial.zero()]])
        assert homology_order(b_in, b_out) == (T - 5).monic_normal()


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

@st.composite
def charpoly_matrices(draw):
    """A square matrix of size 0..12 over Z, Q or Q(zeta_n), as canonical
    sparse rows, in one of five patterns: some rows empty and the others
    full, the diagonal only, a permutation, a monomial matrix, or full."""
    field = draw(st.sampled_from(["Z", "Q", "Q(zeta_n)"]))
    if field == "Z":
        scalar = st.integers(-3, 3)
    elif field == "Q":
        scalar = st.fractions(-3, 3, max_denominator=4).map(as_exact)
    else:
        n = draw(st.sampled_from([3, 5, 12]))
        scalar = st.lists(st.integers(-1, 1), min_size=1, max_size=n).map(
            lambda c: as_exact(Cyclotomic(n, c)))
    size = draw(st.integers(0, 12))
    pattern = draw(st.sampled_from(
        ["empty rows", "diagonal", "permutation", "monomial", "full"]))
    perm = draw(st.permutations(range(size)))
    grid = [[0] * size for _ in range(size)]
    for i in range(size):
        if pattern == "empty rows" and draw(st.booleans()):
            continue
        for j in range(size):
            if pattern == "diagonal" and i == j or pattern in (
                    "full", "empty rows"):
                grid[i][j] = draw(scalar)
            elif pattern in ("permutation", "monomial") and j == perm[i]:
                grid[i][j] = 1 if pattern == "permutation" else draw(scalar)
    return tuple(tuple((j, e) for j, e in enumerate(row) if e)
                 for row in grid)


class TestCharpolyCoefficients:
    @given(charpoly_matrices())
    def test_matches_the_dense_oracle(self, rows):
        coeffs = charpoly_coefficients(rows)
        oracle = dense_charpoly(dense(rows))
        assert coeffs == oracle
        assert list(map(type, coeffs)) == list(map(type, oracle))

    @pytest.mark.parametrize("x", [Fraction(1, 2), Cyclotomic.root(12)])
    def test_products_that_cancel_keep_their_type(self, x):
        # R C = x - x is a zero of x's type, which the dense routine
        # carries into c_2 and c_3
        rows = (((1, x), (2, -x)), ((0, 1),), ((0, 1),))
        coeffs = charpoly_coefficients(rows)
        assert coeffs == dense_charpoly(dense(rows)) == [1, 0, 0, 0]
        assert list(map(type, coeffs)) == [int, int, type(x), type(x)]

    @pytest.mark.parametrize("rows", [(((1, 1),),),
                                      (((0, 1),), ((0, 2), (2, 1)))])
    def test_column_out_of_range_raises(self, rows):
        with pytest.raises(ValueError, match="non-square"):
            charpoly_coefficients(rows)


# ---------------------------------------------------------------------------
# integer Smith form
# ---------------------------------------------------------------------------

class TestSmithInteger:
    def check(self, m):
        diag, v = smith_integer(m)
        rows, cols = len(m), len(m[0])
        assert abs(_det(v)) == 1
        # the k-th invariant factor is d_k / d_(k-1), d_k the gcd of the
        # k x k minors (the determinantal divisors), up to the rank
        rank, previous = 0, 1
        for k in range(1, min(rows, cols) + 1):
            divisor = gcd(*(int(_det([[m[i][j] for j in cs] for i in rs]))
                            for rs in combinations(range(rows), k)
                            for cs in combinations(range(cols), k)))
            if divisor == 0:
                break
            assert diag[k - 1] == divisor // previous
            rank, previous = k, divisor
        assert all(d == 0 for d in diag[rank:])
        # the columns of M V past the rank are zero
        for j in range(rank, cols):
            assert all(sum(row[k] * v[k][j] for k in range(cols)) == 0
                       for row in m)

    def test_known_forms(self):
        diag, _ = smith_integer([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert diag == [2, 2, 156]
        diag, _ = smith_integer([[1, 0], [0, 1]])
        assert diag == [1, 1]
        diag, _ = smith_integer([[2, 0], [0, 3]])
        assert diag == [1, 6]

    def test_random_matrices(self):
        rng = random.Random(5)
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            self.check(m)

    def test_kernel_basis(self):
        m = [[1, 2, 3], [2, 4, 6]]
        basis = integer_kernel_basis(m)
        assert len(basis) == 2
        for vec in basis:
            assert all(sum(r[i] * vec[i] for i in range(3)) == 0 for r in m)


# ---------------------------------------------------------------------------
# modules over Z/n: extended Euclid and the Howell form
# ---------------------------------------------------------------------------

def brute_span(rows, n, width):
    """Every Z/n-combination of the rows, by closure under adding multiples."""
    points = {(0,) * width}
    for row in rows:
        points = {tuple((x + k * y) % n for x, y in zip(point, row))
                  for point in points for k in range(n)}
    return points


def random_generators(rng, n, width):
    """Up to five rows with entries outside [0, n), sometimes with a zero row
    and a repeated row."""
    rows = [[rng.randint(-2 * n, 2 * n) for _ in range(width)]
            for _ in range(rng.randint(0, 4))]
    if rows and rng.random() < 0.4:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    if rng.random() < 0.4:
        rows.insert(rng.randrange(len(rows) + 1), [0] * width)
    return rows


def pivot_column(row):
    return next(c for c, x in enumerate(row) if x)


class TestExtGcd:
    def test_bezout_identity(self):
        for a in range(-30, 31):
            for b in range(-30, 31):
                g, s, t = ext_gcd(a, b)
                assert g == gcd(a, b)
                assert s * a + t * b == g


class TestHowellForm:
    """The Howell form and walk of `reference`, the test-side oracle for
    GL(2,Z/n) verdicts (`test_torus.TestOrderedWalk`)."""

    CASES = [(n, width, seed) for n in range(1, 13) for width in range(1, 5)
             for seed in range(4)]

    @pytest.mark.parametrize("n,width,seed", CASES)
    def test_span_structure_and_walk(self, n, width, seed):
        rng = random.Random(1000 * n + 10 * width + seed)
        rows = random_generators(rng, n, width)
        form = howell_form(rows, n)
        span = brute_span(rows, n, width)
        assert brute_span(form, n, width) == span
        pivots = [pivot_column(row) for row in form]
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(form, pivots)):
            assert all(0 <= x < n for x in row)
            assert n % row[c] == 0
            assert all(above[c] < row[c] for above in form[:i])
        # the Howell property: the rows with pivot at c or later span every
        # element of the module that is zero before column c
        for c in range(width + 1):
            tail = [row for row, p in zip(form, pivots) if p >= c]
            assert brute_span(tail, n, width) \
                == {x for x in span if not any(x[:c])}
        assert list(howell_points(form, n, width)) == sorted(span)

    @pytest.mark.parametrize("n,width,seed", CASES[::3])
    def test_canonical_for_the_module(self, n, width, seed):
        rng = random.Random(7 * n + width + 100 * seed)
        rows = random_generators(rng, n, width)
        form = howell_form(rows, n)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert howell_form(shuffled, n) == form
        multiples = []
        for row in rows:
            k = rng.randint(-3, 3)
            multiples.append([k * x for x in row])
        combined = [[sum(x) for x in zip(*rows)]] if rows else []
        assert howell_form(rows + multiples + combined, n) == form
        assert howell_form(form, n) == form

    def test_known_form(self):
        # 4 e1 + 2 e2 over Z/8: the pivot 4 leaves 2 * (4, 2) = (0, 4)
        assert howell_form([[4, 2]], 8) == ((4, 2), (0, 4))
        # over Z/9, 3 * (3, 5) = (0, 6) = 2 * (0, 3), and 5 reduces to 2
        assert howell_form([[3, 5]], 9) == ((3, 2), (0, 3))
        assert howell_form([[0, 0]], 6) == ()
        assert howell_form([], 6) == ()
        assert list(howell_points((), 6, 2)) == [(0, 0)]

    def test_rejects_bad_moduli_and_entries(self):
        for n in (0, -4, True, 2.0, "6", None):
            with pytest.raises(ValueError, match="n must be"):
                howell_form([[1, 2]], n)
        with pytest.raises(ValueError, match="integers"):
            howell_form([[1, 2.0]], 6)
        with pytest.raises(ValueError, match="integers"):
            howell_form([[1, True]], 6)
        with pytest.raises(ValueError, match="equal length"):
            howell_form([[1, 2], [3]], 6)


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det
