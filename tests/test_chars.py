"""Tests for finite-group character tables and orbit-class counting bounds.

The built-in group tables are checked against oracles computed directly
from the multiplication tables: brute-force conjugacy classes, class-sum
structure constants (central characters must be an exact eigensystem of
the class algebra), and both orthogonality relations.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procong import chars, kernel
from procong.chars import (
    CYCLIC_LIMIT,
    FiniteGroupTable,
    NielsenBound,
    OrbitProjectionTable,
    all_class_indicators,
    builtin_group,
    class_indicator_L,
    nielsen_bound,
    twisted_L_from_orbits,
)
from procong.cli import main
from procong.kernel import Cyclotomic, as_exact
from procong.serialize import (KIND_ORBIT_PROJECTION, dumps, parse_fixture,
                               save_fixture)
from reference import complex_conjugate

BUILTIN_NAMES = ("cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(6)",
                 "cyclic(12)", "S3", "D4", "Q8")


# ---------------------------------------------------------------------------
# oracles computed straight from the multiplication table
# ---------------------------------------------------------------------------

def brute_conjugacy_classes(mult):
    """Partition into conjugacy classes using only the multiplication table."""
    n = len(mult)
    inverse = [row.index(0) for row in mult]
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = {mult[mult[h][g]][inverse[h]] for h in range(n)}
        classes.append(tuple(sorted(orbit)))
        seen |= orbit
    return tuple(sorted(classes, key=lambda c: c[0]))


def structure_constants(group):
    """a[c1][c2][c3] counts pairs in C1 x C2 multiplying to a fixed
    representative of C3."""
    reps = [members[0] for members in group.classes]
    k = group.class_count
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for c1, m1 in enumerate(group.classes):
        for c2, m2 in enumerate(group.classes):
            for g1 in m1:
                for g2 in m2:
                    product = group.multiplication[g1][g2]
                    for c3, rep in enumerate(reps):
                        if product == rep:
                            a[c1][c2][c3] += 1
    return a


# ---------------------------------------------------------------------------
# group table verification against the oracles
# ---------------------------------------------------------------------------

class TestBuiltinGroups:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_classes_match_brute_force(self, name):
        g = builtin_group(name)
        expected = brute_conjugacy_classes(g.multiplication)
        assert tuple(sorted(g.classes, key=lambda c: c[0])) == expected

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_multiplication_is_a_group(self, name):
        g = builtin_group(name)
        n = g.order
        rng = random.Random(7)
        triples = ([(x, y, z) for x in range(n) for y in range(n)
                    for z in range(n)] if n <= 8 else
                   [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                    for _ in range(500)])
        for x, y, z in triples:
            left = g.multiplication[g.multiplication[x][y]][z]
            right = g.multiplication[x][g.multiplication[y][z]]
            assert left == right
        for x in range(n):
            assert g.multiplication[x][g.inverse(x)] == 0
            assert g.multiplication[g.inverse(x)][x] == 0

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_class_sums_certify_characters(self, name):
        # central characters w(c) = |C| chi(c) / chi(1) must reproduce the
        # class-algebra structure constants exactly; together with row
        # orthogonality this pins the irreducible character table
        g = builtin_group(name)
        a = structure_constants(g)
        for chi in g.characters:
            scale = kernel.scalar_inverse(chi[0])
            omega = [g.class_size(c) * scale * chi[c]
                     for c in range(g.class_count)]
            for c1 in range(g.class_count):
                for c2 in range(g.class_count):
                    combo = 0
                    for c3 in range(g.class_count):
                        combo = combo + a[c1][c2][c3] * omega[c3]
                    assert omega[c1] * omega[c2] == combo

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_row_orthogonality(self, name):
        g = builtin_group(name)
        for r, chi in enumerate(g.characters):
            for s, psi in enumerate(g.characters):
                total = 0
                for c in range(g.class_count):
                    total = total + (g.class_size(c) * chi[c]
                                     * complex_conjugate(psi[c]))
                assert total == (g.order if r == s else 0)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_column_orthogonality(self, name):
        g = builtin_group(name)
        for c1 in range(g.class_count):
            for c2 in range(g.class_count):
                total = 0
                for chi in g.characters:
                    total = total + chi[c1] * complex_conjugate(chi[c2])
                expected = (Fraction(g.order, g.class_size(c1))
                            if c1 == c2 else 0)
                assert total == expected

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_degree_squares_sum_to_order(self, name):
        g = builtin_group(name)
        assert sum(row[0] ** 2 for row in g.characters) == g.order

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_verify_is_idempotent(self, name):
        g = builtin_group(name)
        assert g.verify() is g

    def test_tables_are_cached(self):
        assert builtin_group("S3") is builtin_group("S3")
        assert builtin_group("cyclic(6)") is builtin_group("cyclic(6)")


class TestSpecificTables:
    def test_trivial_group(self):
        g = builtin_group("cyclic(1)")
        assert g.order == 1
        assert g.characters == ((1,),)

    def test_order_two_characters(self):
        g = builtin_group("cyclic(2)")
        assert g.characters == ((1, 1), (1, -1))

    def test_cyclic_characters_are_root_powers(self):
        g = builtin_group("cyclic(4)")
        i = Cyclotomic.root(4, 1)
        assert g.characters[1][1] == i
        assert g.characters[1][2] == -1
        assert g.characters[1][3] == complex_conjugate(i)
        assert g.characters[3] == tuple(complex_conjugate(v)
                                        for v in g.characters[1])

    def test_symmetric_group_shape(self):
        g = builtin_group("S3")
        assert [g.class_size(c) for c in range(3)] == [1, 3, 2]
        assert [row[0] for row in g.characters] == [1, 1, 2]
        assert g.characters[2] == (2, 0, -1)

    # per class id: (size, order of its elements, character column)
    @pytest.mark.parametrize("name, expected", [
        ("S3", [(1, 1, (1, 1, 2)), (3, 2, (1, -1, 0)), (2, 3, (1, 1, -1))]),
        ("D4", [(1, 1, (1, 1, 1, 1, 2)), (1, 2, (1, 1, 1, 1, -2)),
                (2, 4, (1, 1, -1, -1, 0)), (2, 2, (1, -1, 1, -1, 0)),
                (2, 2, (1, -1, -1, 1, 0))]),
        ("Q8", [(1, 1, (1, 1, 1, 1, 2)), (1, 2, (1, 1, 1, 1, -2)),
                (2, 4, (1, 1, -1, -1, 0)), (2, 4, (1, -1, 1, -1, 0)),
                (2, 4, (1, -1, -1, 1, 0))]),
    ])
    def test_class_ids_keep_their_sizes_and_columns(self, name, expected):
        g = builtin_group(name)

        def element_order(x):
            power, k = x, 1
            while power != 0:
                power, k = g.multiplication[power][x], k + 1
            return k

        columns = list(zip(*g.characters))
        got = []
        for c, members in enumerate(g.classes):
            orders = {element_order(x) for x in members}
            assert len(orders) == 1
            got.append((len(members), orders.pop(), columns[c]))
        assert got == expected

    # S3 with the 3-cycle class left out, or its representative replaced
    @pytest.mark.parametrize("representatives", [((), (0,)),
                                                 ((), (0,), (0,))])
    def test_missing_class_representative_fails_verification(
            self, representatives):
        with pytest.raises(ValueError,
                           match="conjugacy classes must partition the group"):
            chars._permutation_table("broken", ((1, 0, 2), (1, 2, 0)),
                                     representatives,
                                     ((1, 1, 1), (1, -1, 1), (2, 0, -1)))

    def test_dihedral_and_quaternion_are_not_isomorphic_tables(self):
        d4, q8 = builtin_group("D4"), builtin_group("Q8")
        # same character tables, different multiplication: count involutions
        def involutions(g):
            return sum(1 for x in range(g.order)
                       if x != 0 and g.multiplication[x][x] == 0)
        assert involutions(d4) == 5
        assert involutions(q8) == 1

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown group"):
            builtin_group("A5")

    @pytest.mark.parametrize("n", [0, CYCLIC_LIMIT + 1, 500])
    def test_cyclic_order_cap(self, n):
        with pytest.raises(ValueError, match="cyclic order"):
            builtin_group(f"cyclic({n})")

    def test_largest_cyclic_loads(self):
        g = builtin_group(f"cyclic({CYCLIC_LIMIT})")
        assert g.order == CYCLIC_LIMIT
        assert g.conductor == CYCLIC_LIMIT

    def test_broken_table_fails_verification(self):
        s3 = builtin_group("S3")
        broken = FiniteGroupTable("broken", s3.multiplication,
                                  s3.classes, 1,
                                  ((1, 1, 1), (1, -1, 1), (2, 0, 1)))
        with pytest.raises(ValueError, match="orthogonality"):
            broken.verify()

    def test_misassigned_classes_fail_verification(self):
        s3 = builtin_group("S3")
        broken = FiniteGroupTable("broken", s3.multiplication,
                                  ((0,), (1, 2, 4), (3, 5)), 1, s3.characters)
        with pytest.raises(ValueError, match="closed under conjugation"):
            broken.verify()


# ---------------------------------------------------------------------------
# orbit projection tables
# ---------------------------------------------------------------------------

class TestOrbitProjectionTable:
    def test_duplicate_orbit_ids_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            OrbitProjectionTable((("o", 1, 0), ("o", 2, 1)))

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            OrbitProjectionTable((("o", 0, 0),))

    def test_negative_class_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            OrbitProjectionTable((("o", 1, -1),))

    @pytest.mark.parametrize("rows, message", [
        ([[None, 2, 1]], "rows[0] orbit must be a string, got None"),
        ([[1, 1, 0], ["1", 2, 1]], "rows[0] orbit must be a string, got 1"),
        ("o21", "rows must be a list, got 'o21'")])
    def test_orbit_names_are_strings(self, rows, message):
        # str() made None the orbit "None" and 1 a duplicate of "1"
        body = {"group": "S3", "rows": rows}
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_fixture(dumps(KIND_ORBIT_PROJECTION, body))

    def test_class_ids_are_sorted_and_unique(self):
        table = OrbitProjectionTable((("a", 1, 3), ("b", 1, 0), ("c", 1, 3)))
        assert table.class_ids() == (0, 3)
        assert table.orbit_count == 3


# ---------------------------------------------------------------------------
# twisted Lefschetz numbers against class functions
# ---------------------------------------------------------------------------

class TestTwistedL:
    def test_trivial_character_totals_the_indices(self):
        c2 = builtin_group("cyclic(2)")
        table = OrbitProjectionTable((("o1", -1, 0), ("o2", -1, 1)))
        assert twisted_L_from_orbits(table, c2.characters[0]) == -2

    def test_sign_character_cancels_opposite_classes(self):
        c2 = builtin_group("cyclic(2)")
        table = OrbitProjectionTable((("o1", -1, 0), ("o2", -1, 1)))
        assert twisted_L_from_orbits(table, c2.characters[1]) == 0

    def test_empty_table_gives_zero(self):
        c2 = builtin_group("cyclic(2)")
        assert twisted_L_from_orbits(OrbitProjectionTable(()),
                                     c2.characters[0]) == 0

    def test_accepts_mapping_class_functions(self):
        table = OrbitProjectionTable((("o", 2, 5),))
        assert twisted_L_from_orbits(table, {5: Fraction(1, 2)}) == 1

    def test_missing_class_in_mapping_rejected(self):
        table = OrbitProjectionTable((("o", 1, 3),))
        with pytest.raises(ValueError, match="missing from the class function"):
            twisted_L_from_orbits(table, {0: 1, 1: 1})

    def test_short_sequence_rejected(self):
        table = OrbitProjectionTable((("o", 1, 3),))
        with pytest.raises(ValueError, match="missing from the class function"):
            twisted_L_from_orbits(table, (1, 1))

    def test_cyclotomic_values_stay_exact(self):
        c4 = builtin_group("cyclic(4)")
        table = OrbitProjectionTable((("o", 1, 1), ("p", 1, 3)))
        value = twisted_L_from_orbits(table, c4.characters[1])
        assert value == 0  # zeta + conj(zeta) = i - i

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_linear_in_the_class_function(self, data):
        k = data.draw(st.integers(min_value=1, max_value=5))
        rows = data.draw(st.lists(
            st.tuples(st.integers(min_value=-5, max_value=5).filter(bool),
                      st.integers(min_value=0, max_value=k - 1)),
            max_size=6))
        table = OrbitProjectionTable(
            tuple((f"o{j}", idx, cls) for j, (idx, cls) in enumerate(rows)))
        fractions = st.fractions(min_value=-4, max_value=4,
                                 max_denominator=6)
        chi = data.draw(st.tuples(*[fractions] * k))
        psi = data.draw(st.tuples(*[fractions] * k))
        a = data.draw(fractions)
        b = data.draw(fractions)
        combo = tuple(a * x + b * y for x, y in zip(chi, psi))
        left = twisted_L_from_orbits(table, combo)
        right = (a * twisted_L_from_orbits(table, chi)
                 + b * twisted_L_from_orbits(table, psi))
        assert left == right

    def test_sum_cancelling_to_a_rational_may_change_conductor(self):
        # 1 + zeta_3 + zeta_3^2 = 0, so zeta_5 joins a rational sum; once
        # the sum is not rational, a value of another conductor is refused
        cube, fifth = Cyclotomic.root(3), Cyclotomic.root(5)
        table = OrbitProjectionTable(tuple(
            (f"o{c}", 1, c) for c in range(4)))
        chi = (Cyclotomic.root(3, 0), cube, cube * cube, fifth)
        assert twisted_L_from_orbits(table, chi) == fifth
        with pytest.raises(ValueError, match="mixed conductors 3 and 5"):
            twisted_L_from_orbits(table, (1, cube, cube, fifth))


def _plain_twisted_L(table, chi):
    """The index-weighted sum added one term at a time."""
    total = 0
    for _, index, class_id in table.rows:
        try:
            value = chi[class_id]
        except (KeyError, IndexError):
            raise ValueError(
                f"class id {class_id} missing from the class function"
            ) from None
        total = total + index * value
    return as_exact(total)


def _outcome(function, *args):
    """The exact rendering of a result, or the message of its ValueError."""
    try:
        return repr(function(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestSumsByRootExponent:
    """`twisted_L_from_orbits` and `hermitian_products` sum roots of unity
    by exponent; both must equal the plain term-by-term sums."""

    @staticmethod
    def scalars(n, others):
        """Roots of unity (some demoted), other cyclotomics, ints and
        Fractions of conductor n; with `others`, also roots and undemoted
        rationals of those conductors."""
        small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        deg = len(Cyclotomic.root(n).coeffs)
        kinds = [
            st.integers(0, n - 1).map(lambda k: Cyclotomic.root(n, k)),
            st.integers(0, n - 1).map(
                lambda k: as_exact(Cyclotomic.root(n, k))),
            st.lists(small, min_size=deg, max_size=deg).map(
                lambda c: Cyclotomic(n, c)),
            st.integers(-3, 3),
            small,
        ]
        if others:
            kinds += [
                st.sampled_from(others).flatmap(lambda m: st.integers(
                    0, m - 1).map(lambda k: Cyclotomic.root(m, k))),
                st.sampled_from(others).flatmap(lambda m: st.integers(
                    -2, 2).map(lambda c: Cyclotomic.from_rational(m, c))),
            ]
        return st.one_of(kinds)

    @given(st.data())
    def test_twisted_L_is_the_plain_sum(self, data):
        n = data.draw(st.sampled_from((1, 3, 4, 5, 12)), "n")
        mixed = data.draw(st.booleans(), "mixed")
        others = [m for m in (3, 4, 5) if m != n] if mixed else []
        k = data.draw(st.integers(1, 5), "classes")
        values = data.draw(st.lists(self.scalars(n, others),
                                    min_size=k, max_size=k), "chi")
        if mixed:   # at least one root of another conductor
            m = data.draw(st.sampled_from(others), "m")
            values[data.draw(st.integers(0, k - 1))] = Cyclotomic.root(
                m, data.draw(st.integers(1, m - 1)))
        # with `missing`, the rows may name a class the function lacks
        missing = data.draw(st.booleans(), "missing")
        if data.draw(st.booleans(), "mapping"):
            chi = {c: v for c, v in enumerate(values)
                   if not missing or data.draw(st.booleans())}
        else:
            chi = tuple(values)
        rows = data.draw(st.lists(
            st.tuples(st.integers(-4, 4).filter(bool),
                      st.integers(0, k if missing else k - 1)),
            min_size=1, max_size=8), "rows")
        table = OrbitProjectionTable(
            tuple((f"o{j}", i, c) for j, (i, c) in enumerate(rows)))
        assert _outcome(twisted_L_from_orbits, table, chi) \
            == _outcome(_plain_twisted_L, table, chi)

    @given(st.data())
    def test_hermitian_products_are_the_plain_sums(self, data):
        n = data.draw(st.sampled_from((1, 3, 4, 5, 12)), "n")
        mixed = data.draw(st.booleans(), "mixed")
        others = [m for m in (3, 4, 5) if m != n] if mixed else []
        width = data.draw(st.integers(0, 5), "width")
        entries = st.lists(self.scalars(n, others), min_size=width,
                           max_size=width)
        ys = data.draw(entries, "ys")
        rows = data.draw(st.lists(entries, min_size=1, max_size=4), "rows")
        if any(len({v.conductor for x, y in zip(row, ys) for v in (x, y)
                    if isinstance(v, Cyclotomic)}) > 1 for row in rows):
            with pytest.raises(ValueError, match="mixed conductors in one sum"):
                kernel.hermitian_products(rows, ys)
            return
        expected = []
        for row in rows:
            total = 0
            for x, y in zip(row, ys):
                total = total + complex_conjugate(x) * y
            expected.append(repr(as_exact(total)))
        assert [repr(v) for v in kernel.hermitian_products(rows, ys)] \
            == expected


# ---------------------------------------------------------------------------
# class indicators: two routes must agree
# ---------------------------------------------------------------------------

class TestClassIndicator:
    def test_order_two_indicator(self):
        c2 = builtin_group("cyclic(2)")
        table = OrbitProjectionTable((("o1", -1, 0), ("o2", -1, 1)))
        assert class_indicator_L(table, c2, 1) == -1
        assert class_indicator_L(table, c2, 0) == -1

    def test_identity_class_of_empty_table(self):
        c2 = builtin_group("cyclic(2)")
        assert class_indicator_L(OrbitProjectionTable(()), c2, 0) == 0

    def test_transposition_class_collects_its_orbit(self):
        s3 = builtin_group("S3")
        table = OrbitProjectionTable((("w", 2, 1),))
        assert class_indicator_L(table, s3, 1) == 2
        assert all_class_indicators(table, s3) == (0, 2, 0)

    def test_unknown_class_rejected(self):
        s3 = builtin_group("S3")
        with pytest.raises(ValueError, match="unknown conjugacy class"):
            class_indicator_L(OrbitProjectionTable(()), s3, 3)

    def test_table_outside_group_rejected(self):
        c2 = builtin_group("cyclic(2)")
        table = OrbitProjectionTable((("o", 1, 5),))
        with pytest.raises(ValueError, match="outside"):
            class_indicator_L(table, c2, 0)

    def test_broken_character_table_raises_disagreement(self):
        s3 = builtin_group("S3")
        broken = FiniteGroupTable("broken", s3.multiplication,
                                  s3.classes, 1,
                                  ((1, 1, 1), (1, -1, 1), (2, 0, 1)))
        # the tampered column stays self-consistent, so the mismatch needs a
        # row in a class whose cross-column orthogonality with it is broken
        table = OrbitProjectionTable((("w", 1, 0), ("v", 1, 2)))
        with pytest.raises(ArithmeticError, match="disagrees"):
            class_indicator_L(table, broken, 2)

    def test_broken_cyclotomic_table_raises_disagreement(self):
        c5 = builtin_group("cyclic(5)")
        rows = [list(row) for row in c5.characters]
        rows[1][2] = c5.characters[1][3]     # zeta^3 where zeta^2 belongs
        broken = FiniteGroupTable("broken", c5.multiplication,
                                  c5.classes, 5, tuple(map(tuple, rows)))
        table = OrbitProjectionTable((("w", 1, 2),))
        with pytest.raises(ArithmeticError, match="disagrees"):
            all_class_indicators(table, broken)

    @pytest.mark.parametrize("n", (5, 12, 31))
    def test_character_L_once_per_table(self, n, monkeypatch, tmp_path,
                                        capsys):
        calls = []

        def counting(table, chi):
            calls.append(chi)
            return twisted_L_from_orbits(table, chi)

        monkeypatch.setattr(chars, "twisted_L_from_orbits", counting)
        group = builtin_group(f"cyclic({n})")
        rng = random.Random(n)
        rows = [(f"o{j}", rng.choice([-2, -1, 1, 2]), rng.randrange(n))
                for j in range(6)]
        table = OrbitProjectionTable(tuple(rows))
        values = all_class_indicators(table, group)
        assert len(calls) == n
        assert values == tuple(sum(i for _, i, c in rows if c == k)
                               for k in range(n))
        calls.clear()
        path = tmp_path / "orbits.json"
        save_fixture(path, KIND_ORBIT_PROJECTION,
                     {"group": group.name, "attained": False, "rows": rows})
        assert main(["chars", "decompose", str(path)]) == 0
        assert len(calls) == n
        out = capsys.readouterr().out
        assert f"L(chi_{n - 1}) = " in out
        assert f"indicator L, class {rows[0][2]} = {values[rows[0][2]]}" \
            in out

    @pytest.mark.parametrize("n", (5, 12, 31))
    def test_indicators_are_one_batch_of_products(self, n, monkeypatch):
        group = builtin_group(f"cyclic({n})")
        rng = random.Random(n)
        table = OrbitProjectionTable(tuple(
            (f"o{j}", rng.choice([-2, -1, 1, 2]), rng.randrange(n))
            for j in range(6)))
        character_L = chars.character_L_vector(table, group)
        batches, sparsified = [], []
        sparse_terms = kernel._sparse_terms

        def counting_products(rows, ys):
            batches.append(len(rows))
            return kernel.hermitian_products(rows, ys)

        def counting_terms(value):
            sparsified.append(value)
            return sparse_terms(value)

        monkeypatch.setattr(chars, "hermitian_products", counting_products)
        monkeypatch.setattr(kernel, "_sparse_terms", counting_terms)
        values = all_class_indicators(table, group, character_L)
        # one call expands every class; each L(chi) is sparsified once and
        # the character values, all roots of unity, never are
        assert batches == [n]
        assert sparsified == list(character_L)
        assert values == tuple(sum(i for _, i, c in table.rows if c == k)
                               for k in range(n))

    def test_each_root_is_looked_up_once(self, monkeypatch):
        lookups = []
        lookup = kernel._lookup_root

        def counting(n, coeffs):
            lookups.append(coeffs)
            return lookup(n, coeffs)

        monkeypatch.setattr(kernel, "_lookup_root", counting)
        # the build checks n^2 entries but holds n - 1 distinct roots; the
        # other one, zeta^0, is the int 1
        group = chars._cyclic_table(31)
        assert len(lookups) == len(set(lookups)) == 30
        table = OrbitProjectionTable((("o", 1, 3), ("p", -2, 7)))
        first = all_class_indicators(table, group)
        lookups.clear()
        assert all_class_indicators(table, group) == first
        assert lookups == []

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_two_routes_agree_on_random_tables(self, name):
        group = builtin_group(name)
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(200):
            rows = []
            for j in range(rng.randrange(0, 9)):
                index = rng.choice([i for i in range(-5, 6) if i])
                rows.append((f"o{j}", index,
                             rng.randrange(group.class_count)))
            table = OrbitProjectionTable(tuple(rows))
            # all_class_indicators asserts route agreement internally
            values = all_class_indicators(table, group)
            assert sum(values) == sum(index for _, index, _ in table.rows)


# ---------------------------------------------------------------------------
# Nielsen-number bounds
# ---------------------------------------------------------------------------

class TestNielsenBound:
    def test_two_essential_classes(self):
        c2 = builtin_group("cyclic(2)")
        table = OrbitProjectionTable((("o1", -1, 0), ("o2", -1, 1)))
        result = nielsen_bound(table, c2)
        assert result == NielsenBound(2)
        assert result.indexed_counts is None

    def test_attained_flag_reports_indexed_counts(self):
        c2 = builtin_group("cyclic(2)")
        table = OrbitProjectionTable((("o1", -1, 0), ("o2", -1, 1)))
        result = nielsen_bound(table, c2, attained=True)
        assert result.bound == 2
        assert result.indexed_counts == ((-1, 2),)

    def test_cancellation_inside_one_class(self):
        c2 = builtin_group("cyclic(2)")
        table = OrbitProjectionTable((("a", 1, 1), ("b", -1, 1)))
        assert nielsen_bound(table, c2).bound == 0

    def test_empty_table_bound_is_zero(self):
        s3 = builtin_group("S3")
        result = nielsen_bound(OrbitProjectionTable(()), s3, attained=True)
        assert result.bound == 0
        assert result.indexed_counts == ()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_bound_never_exceeds_orbit_class_count(self, name):
        group = builtin_group(name)
        rng = random.Random(len(name))
        for _ in range(100):
            rows = []
            for j in range(rng.randrange(0, 7)):
                index = rng.choice([i for i in range(-4, 5) if i])
                rows.append((f"o{j}", index,
                             rng.randrange(group.class_count)))
            table = OrbitProjectionTable(tuple(rows))
            assert nielsen_bound(table, group).bound <= table.orbit_count

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_distinct_classes_attain_the_orbit_count(self, name):
        group = builtin_group(name)
        rng = random.Random(2 * len(name) + 1)
        for _ in range(50):
            k = rng.randrange(0, group.class_count + 1)
            chosen = rng.sample(range(group.class_count), k)
            rows = tuple((f"o{j}", rng.choice([-3, -2, -1, 1, 2, 3]), c)
                         for j, c in enumerate(chosen))
            table = OrbitProjectionTable(rows)
            result = nielsen_bound(table, group, attained=True)
            assert result.bound == table.orbit_count
            assert sum(c for _, c in result.indexed_counts) \
                == table.orbit_count
