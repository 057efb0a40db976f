"""Tests for exact scalar / polynomial arithmetic and homological orders."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from procong.kernel import (
    Cyclotomic,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    exp_series,
    homology_order,
    integer_kernel_basis,
    laurent_gcd,
    log_coefficients,
    normalize_unit_class,
    parse_scalar,
    render_scalar,
    series_expand,
    smith_diagonalize,
    smith_integer,
)

T = LaurentPolynomial.t_power(1)
ONE = LaurentPolynomial.one()


def poly(*coeffs, valuation=0):
    return LaurentPolynomial.from_coefficients(coeffs, valuation)


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
            assert z.conjugate() == z ** (n - 1)
            assert (z * z.conjugate()).demote() == 1

    def test_inverse(self):
        z = Cyclotomic.root(5)
        x = 2 * z + 3 * z ** 2 - Fraction(1, 2)
        assert (x * x.inverse()).demote() == 1

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

    def test_scalar_string_round_trip(self):
        for text in ("3", "-7", "2/3", "cyc(6):[1/2,-1/3]", "cyc(5):[0,1,0,0]"):
            value = parse_scalar(text)
            assert parse_scalar(render_scalar(value)) == value


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
        assert p.reverse() == LaurentPolynomial({2: 1, -1: 3})

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

    def test_substitute_neg(self):
        p = poly(1, -3, 1)
        assert p.substitute_neg() == poly(1, 3, 1)

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


# ---------------------------------------------------------------------------
# rational functions, series, logs
# ---------------------------------------------------------------------------

class TestRationalFunction:
    def test_reduction(self):
        f = RationalFunction(poly(-1, 0, 0, 1), poly(-1, 1))      # (t^3-1)/(t-1)
        assert f == RationalFunction(poly(1, 1, 1))

    def test_canonical_denominator(self):
        f = RationalFunction(poly(0, 2), poly(0, 0, 4, -4))       # 2t / (4t^2 - 4t^3)
        assert f.den.coefficient(0) == 1
        assert f.den.valuation == 0

    @given(laurent_polys, nonzero_laurent, laurent_polys, nonzero_laurent)
    @settings(max_examples=40)
    def test_field_axioms(self, a, b, c, d):
        f = RationalFunction(a, b)
        g = RationalFunction(c, d)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) - g == f
        if not g.is_zero():
            assert (f / g) * g == f

    def test_series_known_expansion(self):
        # 1/(1-t) = 1 + t + t^2 + ...
        f = RationalFunction(ONE, ONE - T)
        assert series_expand(f, 4) == [1, 1, 1, 1]

    def test_series_frozen_quadratic_over_square(self):
        f = RationalFunction(poly(1, -3, 1), (ONE - T) * (ONE - T))
        assert series_expand(f, 5) == [1, -1, -2, -3, -4]

    def test_series_pole_rejected(self):
        f = RationalFunction(ONE, T)
        with pytest.raises(ValueError):
            series_expand(f, 3)

    def test_log_coefficients_frozen(self):
        f = RationalFunction(poly(1, -3, 1), (ONE - T) * (ONE - T))
        series = series_expand(f, 7)
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
        g = RationalFunction(2 * T - 6 * T * T + 2 * T ** 3, T - T * T)
        g = g * RationalFunction(LaurentPolynomial.constant(Fraction(1, 2)))
        assert normalize_unit_class(g).value == RationalFunction(poly(1, -3, 1), ONE - T)

    def test_zero_passes_through(self):
        assert normalize_unit_class(RationalFunction.zero()).is_zero()

    @given(laurent_polys, nonzero_laurent,
           st.integers(min_value=-3, max_value=3), small_rationals)
    @settings(max_examples=60)
    def test_orbit_invariance(self, a, b, shift, c):
        if c == 0:
            c = Fraction(1, 3)
        f = RationalFunction(a, b)
        unit = RationalFunction(LaurentPolynomial.t_power(shift, c))
        assert normalize_unit_class(f) == normalize_unit_class(f * unit)

    def test_representative_has_value_one(self):
        f = RationalFunction(poly(0, 0, 5, -15, 5), poly(2, -2))
        rep = normalize_unit_class(f).value
        assert rep.num.valuation == 0
        assert rep.num.coefficient(0) == rep.den.coefficient(0) == 1


# ---------------------------------------------------------------------------
# polynomial matrices, diagonalization, homology orders
# ---------------------------------------------------------------------------

def random_poly_matrix(rng, rows, cols, max_deg=1, span=2):
    return PolyMatrix(rows, cols, [
        [LaurentPolynomial({e: rng.randint(-span, span) for e in range(max_deg + 1)})
         for _ in range(cols)] for _ in range(rows)])


class TestPolyMatrix:
    def test_determinant_two_by_two(self):
        m = PolyMatrix(2, 2, [[ONE - T, T], [T, ONE]])
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


class TestSmithDiagonalize:
    def test_transform_bookkeeping(self):
        rng = random.Random(11)
        for _ in range(15):
            m = random_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            diag, zero_cols, r_mat, r_inv = smith_diagonalize(m)
            assert (r_mat @ r_inv) == PolyMatrix.identity(m.cols)
            # m @ r has the diagonalized column space: columns in zero_cols die
            prod = m @ r_mat
            for j in zero_cols:
                assert all(prod.entries[i][j].is_zero() for i in range(m.rows))

    def test_kernel_dimension_matches_rank(self):
        m = PolyMatrix(2, 3, [[ONE, T, T * T], [T, T * T, T ** 3]])
        diag, zero_cols, _, _ = smith_diagonalize(m)
        assert len(diag) == 1 and len(zero_cols) == 2


class TestHomologyOrder:
    def test_cokernel_of_single_entry(self):
        m_in = PolyMatrix(1, 1, [[T - 2]])
        assert homology_order(m_in, None) == (T - 2).monic_normal()

    def test_free_rank_gives_zero(self):
        z_in = PolyMatrix.zero(1, 0)
        z_out = PolyMatrix.zero(0, 1)
        assert homology_order(z_in, z_out).is_zero()

    def test_diagonal_presentation(self):
        m = PolyMatrix(2, 2, [[T - 1, LaurentPolynomial.zero()],
                              [LaurentPolynomial.zero(), T - 3]])
        expected = ((T - 1) * (T - 3)).monic_normal()
        assert homology_order(m, None) == expected

    def test_zero_middle_module(self):
        assert homology_order(PolyMatrix.zero(0, 0), None) == ONE

    def test_chain_condition_enforced(self):
        bad_out = PolyMatrix(1, 1, [[ONE]])
        bad_in = PolyMatrix(1, 1, [[ONE]])
        with pytest.raises(ValueError):
            homology_order(bad_in, bad_out)

    def test_unit_insensitive_to_presentation_choice(self):
        # the same module presented two ways must give unit-equal orders
        a = PolyMatrix(2, 2, [[T - 1, LaurentPolynomial.zero()],
                              [LaurentPolynomial.zero(), T - 1]])
        b = PolyMatrix(2, 2, [[T - 1, T - 1],
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
                minors.append(m.submatrix(range(n), cols).determinant())
            g = LaurentPolynomial.zero()
            for minor in minors:
                g = laurent_gcd(g, minor)
            if all(mi.is_zero() for mi in minors):
                assert order.is_zero()
            else:
                assert order == g.monic_normal()

    def test_quotient_with_outgoing_boundary(self):
        # middle module rank 2, outgoing kills one direction, incoming hits
        # the kernel direction with multiplier (t - 5)
        b_out = PolyMatrix(1, 2, [[LaurentPolynomial.zero(), ONE]])
        b_in = PolyMatrix(2, 1, [[T - 5], [LaurentPolynomial.zero()]])
        assert homology_order(b_in, b_out) == (T - 5).monic_normal()


# ---------------------------------------------------------------------------
# integer Smith form
# ---------------------------------------------------------------------------

class TestSmithInteger:
    def check(self, m):
        diag, u, v = smith_integer(m)
        rows, cols = len(m), len(m[0])
        # unimodularity
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1
        # U M V is the diagonal matrix
        um = [[sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)]
              for i in range(rows)]
        umv = [[sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
               for i in range(rows)]
        for i in range(rows):
            for j in range(cols):
                expected = diag[i] if (i == j and i < len(diag)) else 0
                assert umv[i][j] == expected
        # divisibility chain
        chain = [d for d in diag if d != 0]
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0
        assert all(d >= 0 for d in diag)

    def test_known_forms(self):
        diag, _, _ = smith_integer([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert diag == [2, 2, 156]
        diag, _, _ = smith_integer([[1, 0], [0, 1]])
        assert diag == [1, 1]

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
