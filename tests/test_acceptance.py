"""Acceptance gate: the ten primary criteria.

Each criterion is one test, so a ``pytest -v`` run prints exactly one
PASSED/FAILED line per criterion; the test body also prints a one-line
summary with the measured values.  Everything is exact arithmetic; the
only tolerances are the ones stated in the criteria themselves (the 1%
relative bracket of criterion 7, certified with exact rationals).
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from procong.cellular import (HomologyAction, cellular_model,
                              classical_lefschetz, lefschetz_numbers,
                              zeta_from_cellular)
from procong.chars import (OrbitProjectionTable, all_class_indicators,
                           builtin_group, nielsen_bound)
from procong.kernel import LaurentPolynomial, normalize_unit_class
from procong.ntform import (Dilatation, IndexedOrbitTable, OrbitRow,
                            StretchFactor, deviation, dilatation,
                            fixed_point_classes, indexed_orbit_numbers,
                            shearing_from_slopes)
from procong.serialize import load_fixture
from procong.surfgrp import (FiniteRepresentation, GeneratorEndomorphism,
                             SurfacePresentation, mapping_torus,
                             twisted_alexander, twisted_torsion)
from procong.torus import Mat2, characteristic_level, congruence_sweep
from reference import (certify_growth_estimate,
                       characteristic_level_bruteforce,
                       dilatation_from_nielsen, iterate)
from test_ntform import random_relabeling, relabel

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PAIR_A = Mat2.from_string("188,275;121,177")
PAIR_B = Mat2.from_string("188,11;3025,177")

NT_FIXTURE_NAMES = ("two_pa_swap.json", "five_cases.json",
                    "star_rotation.json", "separating_twist.json",
                    "pure_twist.json")

BUILTIN_GROUPS = ("cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(6)",
                  "cyclic(12)", "S3", "D4", "Q8")


def load_nt(name):
    return load_fixture(FIXTURES / name).payload


def fibered_model(matrix: Mat2):
    pres = SurfacePresentation.closed(1)
    phi = GeneratorEndomorphism.torus_monodromy(matrix)
    mt = mapping_torus(pres, phi)
    surface, flow = cellular_model(mt)
    return mt, surface, flow


def random_torus_monodromies(count, cap, seed):
    """Random SL(2,Z) matrices with all entries in [-cap, cap], generated as
    short products of elementary shears."""
    rng = random.Random(seed)
    shears = [Mat2(1, 1, 0, 1), Mat2(1, -1, 0, 1),
              Mat2(1, 0, 1, 1), Mat2(1, 0, -1, 1)]
    found = []
    seen = set()
    while len(found) < count:
        m = Mat2.identity()
        for _ in range(rng.randrange(1, 7)):
            m = m @ rng.choice(shears)
        entries = m.entries()
        if max(abs(e) for e in entries) <= cap and entries not in seen:
            seen.add(entries)
            found.append(m)
    return found


def det_power_minus_identity(matrix: Mat2, m: int) -> int:
    p = matrix.power(m)
    return abs((p.a - 1) * (p.d - 1) - p.b * p.c)


# ---------------------------------------------------------------------------
# the ten criteria
# ---------------------------------------------------------------------------

def test_primary_01_classical_pair_congruence_separation():
    start = time.perf_counter()
    report = congruence_sweep(PAIR_A, PAIR_B, 1000)
    elapsed = time.perf_counter() - start
    assert report.sl2.conjugate is False
    assert report.all_levels_pass, f"first failure {report.first_failure}"
    assert report.procongruence_candidate
    assert elapsed < 60, f"sweep took {elapsed:.1f} s"
    print(f"[PRIMARY 1] PASS: not SL(2,Z)-conjugate, GL(2,Z/n)-conjugate "
          f"for every n <= 1000 ({elapsed:.2f} s)")


def test_primary_02_zeta_torsion_identity():
    a211 = load_fixture(FIXTURES / "torus_A211.json").payload
    mt1, s1, f1 = fibered_model(a211)
    genus2 = load_fixture(FIXTURES / "genus2_finite_order.json").payload
    s2, f2 = cellular_model(genus2)
    cases = [
        ("torus Anosov, trivial", mt1, s1, f1,
         FiniteRepresentation.trivial(mt1)),
        ("torus Anosov, sign", mt1, s1, f1,
         FiniteRepresentation.fibered_character(mt1, -1)),
        ("genus-2 finite order, trivial", genus2, s2, f2,
         FiniteRepresentation.trivial(genus2)),
        ("genus-2 finite order, sign", genus2, s2, f2,
         FiniteRepresentation.fibered_character(genus2, -1)),
    ]
    for label, mt, surface, flow, rep in cases:
        zeta = zeta_from_cellular(surface, flow, rep)
        tau = twisted_torsion(mt, rep)
        assert not tau.is_zero(), label
        assert normalize_unit_class(zeta) == tau, label
    print(f"[PRIMARY 2] PASS: zeta equals torsion exactly on {len(cases)} "
          "fixtures (reduced fractions)")


def test_primary_03_lefschetz_numbers_match_classical():
    matrices = random_torus_monodromies(10, cap=5, seed=20260823)
    for matrix in matrices:
        mt, surface, flow = fibered_model(matrix)
        rep = FiniteRepresentation.trivial(mt)
        twisted = lefschetz_numbers(surface, flow, rep, 20)
        action = HomologyAction.from_monodromy_matrix(
            [[matrix.a, matrix.b], [matrix.c, matrix.d]])
        classical = [classical_lefschetz(action, m) for m in range(1, 21)]
        assert twisted == classical, matrix.to_string()
    print("[PRIMARY 3] PASS: zeta-derived Lefschetz numbers equal the "
          "classical traces for m <= 20 on 10 random monodromies")


def test_primary_04_alexander_matches_characteristic_polynomial():
    matrices = random_torus_monodromies(10, cap=5, seed=20260823)
    for matrix in matrices:
        mt, _, _ = fibered_model(matrix)
        rep = FiniteRepresentation.trivial(mt)
        delta1 = twisted_alexander(mt, rep, 1)
        charpoly = LaurentPolynomial.from_coefficients(
            (matrix.det(), -matrix.trace(), 1))
        assert delta1.unit_equal(charpoly), matrix.to_string()
    print("[PRIMARY 4] PASS: Delta_1 equals the fiber-homology "
          "characteristic polynomial up to units on 10 random monodromies")


def test_primary_05_index_table_of_the_five_cases():
    nt = load_nt("five_cases.json")
    multiset = lambda m: sorted((r.case, r.index)
                                for r in fixed_point_classes(nt, m))
    assert multiset(1) == [(1, 1), (2, 1), (3, -2), (3, -2), (4, -2)]
    assert multiset(2) == [(2, 1), (3, -2), (4, -2), (5, -3)]
    assert multiset(3) == [(1, 1), (2, -2), (3, -2), (3, -2), (4, -2)]
    assert multiset(6) == [(2, -2), (3, -2), (4, -2), (5, -3)]
    # the six index expressions: 1 (interior point), 1 (rotated prongs),
    # 1 - k with k = 3, -k with k = 2 on circles, -k with k = 2 on an
    # annulus, and chi(E) - k = -1 - 2 on a crown subsurface
    seen = set()
    for m in (1, 2, 3, 6):
        for r in fixed_point_classes(nt, m):
            seen.add((r.case, r.index))
    assert {(1, 1), (2, 1), (2, -2), (3, -2), (4, -2), (5, -3)} <= seen
    print("[PRIMARY 5] PASS: the five case fixtures reproduce the pinned "
          "indices 1, 1, 1-k, -k, -k, chi(E)-k")


def test_primary_06_invariance_under_relabeling_and_power_laws():
    rng = random.Random(97)
    relabelings = 0
    for name in NT_FIXTURE_NAMES:
        nt = load_nt(name)
        table = indexed_orbit_numbers(nt, 6)
        dil = dilatation(nt)
        dev = deviation(nt)
        for _ in range(20):
            pieces, circles, orbits = random_relabeling(nt, rng)
            moved = relabel(nt, pieces, circles, orbits)
            moved_table = indexed_orbit_numbers(moved, 6)
            assert [r.counts for r in moved_table.rows] == \
                [r.counts for r in table.rows], name
            assert [r.nielsen for r in moved_table.rows] == \
                [r.nielsen for r in table.rows], name
            assert dilatation(moved) == dil, name
            assert deviation(moved) == dev, name
            relabelings += 1
        for m in range(1, 13):
            assert dilatation(iterate(nt, m)) == dil.power(m), (name, m)
            assert deviation(iterate(nt, m)) == m * dev, (name, m)
    assert relabelings == 100
    print("[PRIMARY 6] PASS: nu_m, N_m, Dil, and Dev unchanged under 100 "
          "relabelings; power laws exact for m <= 12")


def test_primary_07_growth_certifies_the_dilatation():
    # every m-periodic class of the Anosov map is essential with index -1,
    # and there are -L_m of them, the classical Lefschetz count
    action = HomologyAction.from_monodromy_matrix(((2, 1), (1, 1)))
    table = IndexedOrbitTable(tuple(
        OrbitRow.from_counts({-1: -classical_lefschetz(action, m)})
        for m in range(1, 31)))
    anosov = Mat2.from_rows(((2, 1), (1, 1)))
    for m, row in enumerate(table.rows, 1):
        expected = det_power_minus_identity(anosov, m)
        assert row.nielsen == expected, m
    brackets = dilatation_from_nielsen(table)
    final = brackets[-1]
    assert final.iterate == 30
    target = Dilatation(StretchFactor((1, -3, 1), Fraction(5, 2), 3), 1)
    assert certify_growth_estimate(final, target, relative=Fraction(1, 100))
    print(f"[PRIMARY 7] PASS: max(1, N_30)^(1/30) in "
          f"[{float(final.low):.6f}, {float(final.high):.6f}], certified "
          "within 1% of (3+sqrt(5))/2 by exact interval refinement")


def test_primary_08_character_routes_and_attainment():
    tables = 0
    for name in BUILTIN_GROUPS:
        group = builtin_group(name)
        rng = random.Random(1000 + len(name) * 31)
        for _ in range(200):
            rows = []
            classes = []
            for j in range(rng.randrange(0, 9)):
                index = rng.choice([i for i in range(-5, 6) if i])
                cls = rng.randrange(group.class_count)
                rows.append((f"o{j}", index, cls))
                classes.append(cls)
            table = OrbitProjectionTable(tuple(rows))
            all_class_indicators(table, group)  # asserts both routes agree
            if len(set(classes)) == len(classes):
                assert nielsen_bound(table, group).bound == len(rows)
            tables += 1
        # explicit pairwise-distinct projections attain the orbit count
        for trial in range(20):
            k = rng.randrange(0, group.class_count + 1)
            chosen = rng.sample(range(group.class_count), k)
            table = OrbitProjectionTable(tuple(
                (f"p{j}", rng.choice([-3, -2, -1, 1, 2, 3]), c)
                for j, c in enumerate(chosen)))
            assert nielsen_bound(table, group).bound == table.orbit_count
    assert tables == 200 * len(BUILTIN_GROUPS)
    print(f"[PRIMARY 8] PASS: both indicator routes agree on 200 random "
          f"orbit tables for each of {len(BUILTIN_GROUPS)} groups; distinct "
          "images attain the orbit count")


def test_primary_09_characteristic_levels_match_oracle():
    expected = (1, 2, 6, 12, 60, 60, 420, 840, 2520, 2520)
    computed = tuple(characteristic_level(n) for n in range(1, 11))
    oracle = tuple(characteristic_level_bruteforce(n) for n in range(1, 11))
    assert computed == oracle == expected
    print("[PRIMARY 9] PASS: characteristic levels match the brute-force "
          f"lattice oracle for n <= 10: {computed}")


def test_primary_10_shearing_degree_is_the_determinant():
    rng = random.Random(777)
    nonparallel = 0
    while nonparallel < 1000:
        g = (rng.randrange(-40, 41), rng.randrange(-40, 41))
        h = (rng.randrange(-40, 41), rng.randrange(-40, 41))
        if g == (0, 0) or h == (0, 0):
            continue
        det = g[0] * h[1] - g[1] * h[0]
        if det == 0:
            assert shearing_from_slopes(g, h) == "trivial"
            continue
        assert shearing_from_slopes(g, h) == abs(det)
        # unimodular basis change fixes the degree
        a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
        u = ((1, a), (b, 1 + a * b))
        ug = (u[0][0] * g[0] + u[0][1] * g[1], u[1][0] * g[0] + u[1][1] * g[1])
        uh = (u[0][0] * h[0] + u[0][1] * h[1], u[1][0] * h[0] + u[1][1] * h[1])
        assert shearing_from_slopes(ug, uh) == abs(det)
        nonparallel += 1
    for _ in range(100):
        g = (rng.randrange(-40, 41), rng.randrange(-40, 41))
        if g == (0, 0):
            continue
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        assert shearing_from_slopes(g, (k * g[0], k * g[1])) == "trivial"
    print("[PRIMARY 10] PASS: shearing degree equals |det| on 1000 "
          "nonparallel pairs, trivial on parallel pairs, invariant under "
          "unimodular change")
