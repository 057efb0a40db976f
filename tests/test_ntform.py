"""Normal-form calculus: stretch factors, decomposition validation, split
order, dilatation/deviation, fixed class tables, orbit counts, growth
certification, relabeling invariance, shearing."""

import random
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procong import ntform
from procong.ntform import (
    CASE_NAMES,
    ITERATE_LIMIT,
    DecompositionError,
    Dilatation,
    FixedClassRecord,
    IndexedOrbitTable,
    InteriorOrbit,
    NTDecomposition,
    OrbitDataIncompleteError,
    OrbitRow,
    ReductionAnnulus,
    StretchFactor,
    VertexPiece,
    deviation,
    dilatation,
    fixed_point_classes,
    indexed_orbit_numbers,
    notes,
    shearing_from_slopes,
    split_order,
)
from procong.cli import _stretch_json, _table_json, main
from procong.serialize import (KIND_NT, _decode_stretch, dumps, encode_nt,
                               load_fixture, parse_fixture, save_fixture)
from reference import (certify_growth_estimate, dilatation_from_nielsen,
                       iterate, orbit_numbers_by_iterate, replace)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F = Fraction


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_split_order(nt):
    """Direct search: smallest d whose permutation power fixes every
    periodic piece, every pseudo-Anosov piece, and every pA boundary circle."""
    pmap = dict(nt.piece_map)
    cmap = dict(nt.circle_map)
    constrained_pieces = [p.name for p in nt.pieces]
    constrained_circles = [c for p in nt.pieces if p.kind == "pseudoAnosov"
                           for c in p.circles]
    d = 1
    while True:
        ppow = {k: k for k in pmap}
        cpow = {k: k for k in cmap}
        for _ in range(d):
            ppow = {k: pmap[v] for k, v in ppow.items()}
            cpow = {k: cmap[v] for k, v in cpow.items()}
        if all(ppow[name] == name for name in constrained_pieces) \
                and all(cpow[c] == c for c in constrained_circles):
            return d
        d += 1


def det_power_minus_identity(a, m):
    """|det(A^m - I)| for an integer 2x2 matrix, exact."""
    (p, q), (r, s) = a
    x = ((1, 0), (0, 1))
    for _ in range(m):
        x = ((x[0][0] * p + x[0][1] * r, x[0][0] * q + x[0][1] * s),
             (x[1][0] * p + x[1][1] * r, x[1][0] * q + x[1][1] * s))
    return abs((x[0][0] - 1) * (x[1][1] - 1) - x[0][1] * x[1][0])


def index_multiset(records):
    return sorted((r.case, r.index) for r in records)


def decoded(body):
    """The decomposition that an `nt_decomposition` fixture body decodes to."""
    return parse_fixture(dumps(KIND_NT, body)).payload


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def phi_squared_interval():
    return StretchFactor((1, -3, 1), F(5, 2), F(3))


PHI = phi_squared_interval()  # (3+sqrt(5))/2, the square of the golden ratio


def make_swap(prongs=4):
    """Two pseudo-Anosov pieces exchanged by the map, joined by a half-twist
    annulus, with one declared size-2 singular orbit."""
    return NTDecomposition(
        pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,), PHI,
                        orbits=(InteriorOrbit("o", 2, prongs, 0),)),
            VertexPiece("Q", "pseudoAnosov", -1, ("cQ",), (1,), PHI,
                        orbits=()),
        ),
        annuli=(ReductionAnnulus("A", F(1, 2), ("cP", "cQ")),),
        piece_map={"P": "Q", "Q": "P", "A": "A"},
        circle_map={"cP": "cQ", "cQ": "cP"},
    )


def make_five_cases():
    """One fixture whose iterates realize all five essential class cases."""
    return NTDecomposition(
        pieces=(
            VertexPiece("P", "pseudoAnosov", -2, ("c1", "c2", "c5", "c6"),
                        (2, 2, 1, 1), PHI,
                        orbits=(InteriorOrbit("sing", 1, 3, 1),)),
            VertexPiece("E", "periodic", -1, ("c3",), period=2,
                        orbits=(InteriorOrbit("ell", 1),)),
        ),
        annuli=(
            ReductionAnnulus("A1", F(0), ("c2", "c3")),
            ReductionAnnulus("A2", F(1), ("c5", "c6")),
        ),
        piece_map={"P": "P", "E": "E", "A1": "A1", "A2": "A2"},
        circle_map={c: c for c in ("c1", "c2", "c3", "c5", "c6")},
    )


def make_star():
    """A fixed central pA piece with three periodic satellites cycled by the
    map through three third-twist annuli."""
    pieces = [VertexPiece("C", "pseudoAnosov", -3, ("b1", "b2", "b3"),
                          (1, 1, 1), PHI, orbits=())]
    annuli = []
    for i in (1, 2, 3):
        pieces.append(VertexPiece(f"E{i}", "periodic", -1, (f"d{i}",)))
        annuli.append(ReductionAnnulus(f"A{i}", F(1, 3), (f"b{i}", f"d{i}")))
    piece_map = {"C": "C"}
    circle_map = {}
    for i in (1, 2, 3):
        j = i % 3 + 1
        piece_map[f"E{i}"] = f"E{j}"
        piece_map[f"A{i}"] = f"A{j}"
        circle_map[f"b{i}"] = f"b{j}"
        circle_map[f"d{i}"] = f"d{j}"
    return NTDecomposition(tuple(pieces), tuple(annuli), piece_map, circle_map)


def make_single_pa(twist=None, orbits=()):
    """One fixed pA piece; optionally a self-annulus joining its circles."""
    annuli = ()
    circle_names = ("x1", "x2")
    if twist is not None:
        annuli = (ReductionAnnulus("T", F(twist), circle_names),)
    piece_map = {"P": "P"}
    piece_map.update({a.name: a.name for a in annuli})
    return NTDecomposition(
        pieces=(VertexPiece("P", "pseudoAnosov", -2, circle_names, (1, 1),
                            PHI, orbits=tuple(orbits)),),
        annuli=annuli,
        piece_map=piece_map,
        circle_map={c: c for c in circle_names},
    )


def make_closed_pa(orbits):
    """A closed pA piece (no boundary circles) with declared orbits."""
    return NTDecomposition(
        pieces=(VertexPiece("P", "pseudoAnosov", -2, (), (), PHI,
                            orbits=tuple(orbits)),),
        annuli=(),
        piece_map={"P": "P"},
        circle_map={},
    )


def make_pure_twist():
    """No pA part: one periodic piece and a 7/2-twist annulus to the
    ambient boundary."""
    return NTDecomposition(
        pieces=(VertexPiece("E", "periodic", -1, ("e1",)),),
        annuli=(ReductionAnnulus("T", F(7, 2), ("e1", None)),),
        piece_map={"E": "E", "T": "T"},
        circle_map={"e1": "e1"},
    )


def make_separating_twist():
    """The algebraically finite model: two pointwise-fixed pieces joined by
    one full-twist annulus (a separating-curve Dehn twist)."""
    return NTDecomposition(
        pieces=(VertexPiece("E1", "periodic", -1, ("s1",)),
                VertexPiece("E2", "periodic", -1, ("s2",))),
        annuli=(ReductionAnnulus("T", F(1), ("s1", "s2")),),
        piece_map={"E1": "E1", "E2": "E2", "T": "T"},
        circle_map={"s1": "s1", "s2": "s2"},
    )


def make_annuli_only():
    """No vertex pieces at all: two boundary-to-boundary annuli swapped by
    the map."""
    return NTDecomposition(
        pieces=(),
        annuli=(ReductionAnnulus("A1", F(1, 2), (None, None)),
                ReductionAnnulus("A2", F(1, 2), (None, None))),
        piece_map={"A1": "A2", "A2": "A1"},
        circle_map={},
    )


def make_rotating_periodic():
    """A single fixed periodic piece whose first-return map has order 3."""
    return NTDecomposition(
        pieces=(VertexPiece("E", "periodic", -1, (), period=3),),
        annuli=(),
        piece_map={"E": "E"},
        circle_map={},
    )


ALL_FIXTURES = (make_swap, make_five_cases, make_star, make_single_pa,
                make_pure_twist, make_separating_twist, make_annuli_only,
                make_rotating_periodic)


# ---------------------------------------------------------------------------
# stretch factors
# ---------------------------------------------------------------------------

class TestStretchFactor:
    def test_twelve_digit_value(self):
        assert PHI.approx(12) == "2.61803398875"

    def test_thirty_digit_value_against_decimal_oracle(self):
        import decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            expected = (3 + decimal.Decimal(5).sqrt()) / 2
            ctx.prec = 30
            expected = +expected
        assert PHI.approx(30) == str(expected)

    def test_normalizes_polynomial(self):
        s = StretchFactor((2, -6, 2, 0), F(5, 2), F(3))
        assert s.polynomial == (1, -3, 1)
        assert s.algebraic_equal(PHI)

    def test_rejects_constant_polynomial(self):
        with pytest.raises(DecompositionError):
            StretchFactor((5,), F(1), F(2))

    def test_rejects_interval_below_one(self):
        with pytest.raises(DecompositionError):
            StretchFactor((1, -3, 1), F(1, 2), F(3))

    def test_rejects_empty_or_reversed_interval(self):
        with pytest.raises(DecompositionError):
            StretchFactor((1, -3, 1), F(3), F(5, 2))

    def test_rejects_root_endpoint(self):
        with pytest.raises(DecompositionError):
            StretchFactor((6, -5, 1), F(2), F(5, 2))

    def test_rejects_non_isolating_interval(self):
        with pytest.raises(DecompositionError):
            StretchFactor((6, -5, 1), F(3, 2), F(7, 2))
        with pytest.raises(DecompositionError):
            StretchFactor((1, -3, 1), F(5), F(6))

    @pytest.mark.parametrize("low, high", [(2.5, "3"), ("5/2", 3.0)],
                             ids=["low", "high"])
    def test_rejects_float_endpoints(self, low, high):
        # a float would enter through Fraction(float) as a binary fraction
        body = encode_nt(make_closed_pa(()))
        body["pieces"][0]["stretch"]["interval"] = [low, high]
        with pytest.raises(ValueError, match="stretch interval must be an "
                                             "integer or a fraction string"):
            decoded(body)

    def test_accepts_repeated_root_polynomial(self):
        s = StretchFactor((4, -4, 1), F(3, 2), F(5, 2))
        assert s.algebraic_equal(StretchFactor((-2, 1), F(3, 2), F(3)))

    def test_refined_keeps_value_and_halves_width(self):
        s = PHI
        for _ in range(6):
            t = s.refined()
            assert t.high - t.low <= (s.high - s.low) / 2
            assert t.algebraic_equal(PHI)
            s = t

    def test_refined_to_width(self):
        s = PHI.refined_to(F(1, 10 ** 9))
        assert s.high - s.low <= F(1, 10 ** 9)
        assert s.algebraic_equal(PHI)

    def test_power_one_is_self(self):
        assert PHI.power(1) is PHI

    def test_power_two_oracle(self):
        s = PHI.power(2)
        assert s.polynomial == (1, -7, 1)
        assert s.low == F(25, 4) and s.high == F(9)
        assert s.algebraic_equal(StretchFactor((1, -7, 1), F(6), F(7)))

    def test_power_of_rational_root(self):
        s = StretchFactor((-3, 2), F(5, 4), F(7, 4))
        t = s.power(2)
        assert t.algebraic_equal(StretchFactor((-9, 4), F(2), F(3)))

    def test_power_of_non_monic_quadratic(self):
        # the roots r, 1/r of 2x^2 - 7x + 2 have r + 1/r = 7/2, so
        # r^m + r^-m is 41/4 for m = 2 and 259/8 for m = 3
        s = StretchFactor((2, -7, 2), F(3), F(4))
        square, cube = s.power(2), s.power(3)
        assert (square.polynomial, square.low, square.high) == (
            (4, -41, 4), F(9), F(16))
        assert (cube.polynomial, cube.low, cube.high) == (
            (8, -259, 8), F(27), F(64))

    # Lehmer's polynomial and x^3 - x - 1: m -> (polynomial, low, high) of
    # power(m), as the Newton-identity route computed them
    PINNED_POWERS = [
        (((-1, -1, 0, 1), F(1), F(2)), {
            2: ((-1, 1, -2, 1), F(1), F(4)),
            3: ((-1, 2, -3, 1), F(1), F(8)),
            4: ((-1, -3, -2, 1), F(1), F(16)),
            5: ((-1, 4, -5, 1), F(1), F(32)),
            6: ((-1, -2, -5, 1), F(1), F(64))}),
        (((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), F(117, 100), F(118, 100)), {
            2: ((1, -1, 0, -1, 1, -1, 1, -1, 0, -1, 1),
                F(13689, 10000), F(3481, 2500)),
            3: ((1, -2, 0, 2, -1, -1, -1, 2, 0, -2, 1),
                F(1601613, 1000000), F(205379, 125000)),
            4: ((1, -1, 0, -1, -3, -1, -3, -1, 0, -1, 1),
                F(187388721, 100000000), F(12117361, 6250000)),
            5: ((1, -4, 5, -1, -6, 9, -6, -1, 5, -4, 1),
                F(21924480357, 10000000000), F(714924299, 312500000)),
            6: ((1, -4, 6, -10, 13, -13, 13, -10, 6, -4, 1),
                F(2565164201769, 1000000000000),
                F(42180533641, 15625000000))}),
    ]

    @pytest.mark.parametrize("args, powers", PINNED_POWERS,
                             ids=["cubic", "lehmer"])
    def test_power_of_higher_degree_is_pinned(self, args, powers):
        s = StretchFactor(*args)
        for m, expected in powers.items():
            p = s.power(m)
            assert (p.polynomial, p.low, p.high) == expected

    def test_power_composition(self):
        assert PHI.power(6).algebraic_equal(PHI.power(2).power(3))
        assert PHI.power(6).polynomial == PHI.power(3).power(2).polynomial

    def test_power_rejects_nonpositive(self):
        with pytest.raises(DecompositionError):
            PHI.power(0)

    def test_compare(self):
        golden = StretchFactor((-1, -1, 1), F(3, 2), F(2))
        assert golden.compare(PHI) == -1
        assert PHI.compare(golden) == 1
        assert PHI.compare(StretchFactor((1, -3, 1), F(2), F(4))) == 0

    def test_compare_close_values(self):
        a = StretchFactor((-200001, 100000), F(2), F(201, 100))
        b = StretchFactor((-2, 1), F(3, 2), F(5, 2))
        assert a.compare(b) == 1 and b.compare(a) == -1

    def test_algebraic_equal_across_polynomials(self):
        cubic = StretchFactor((-1, 4, -4, 1), F(5, 2), F(3))
        assert cubic.algebraic_equal(PHI) and PHI.algebraic_equal(cubic)
        assert not PHI.algebraic_equal(PHI.power(2))
        assert not PHI.algebraic_equal(StretchFactor((-2, 1), F(3, 2), F(3)))

    def test_json_roundtrip(self):
        # the report form of a stretch factor decodes back to the factor
        assert _decode_stretch(_stretch_json(PHI)) == PHI

    def test_int_endpoints_are_stored_as_fractions(self):
        # int endpoints once gave a float midpoint, so approx and refined
        # raised AttributeError in the sign test
        stretch = StretchFactor((1, -3, 1), 2, 3)
        assert type(stretch.low) is type(stretch.high) is Fraction
        assert stretch.algebraic_equal(PHI)
        assert stretch.approx(30) == PHI.approx(30)
        assert stretch.refined() == PHI        # [2, 3] halves to [5/2, 3]

    @pytest.mark.parametrize("low, high", [(2.0, 3), (2, 3.0), (True, 3),
                                           (F(2), "3")])
    def test_float_bool_or_string_endpoint_is_refused(self, low, high):
        with pytest.raises(TypeError, match="ints or Fractions"):
            StretchFactor((1, -3, 1), low, high)

    def test_rendering_is_kept_per_digit_count(self, monkeypatch):
        stretch = phi_squared_interval()
        halvings = []
        halved = StretchFactor._halved
        monkeypatch.setattr(StretchFactor, "_halved",
                            lambda sf, low, high: halvings.append(low)
                            or halved(sf, low, high))
        assert stretch.approx(30) == "2.61803398874989484820458683437"
        bisected = len(halvings)
        assert stretch.approx(30) == "2.61803398874989484820458683437"
        assert len(halvings) == bisected > 0
        assert stretch.approx(12) == "2.61803398875" and len(halvings) > bisected

    def test_approx_ends_at_a_root_midpoint(self):
        assert StretchFactor((-3, 2), F(1), F(2)).approx(30) == "1.5"

    def test_approx_and_compare_validate_no_new_interval(self, monkeypatch):
        golden = StretchFactor((-1, -1, 1), F(3, 2), F(2))
        built = []
        init = StretchFactor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StretchFactor, "__init__", counting)
        assert PHI.approx(30) == "2.61803398874989484820458683437"
        assert golden.compare(PHI) == -1
        assert StretchFactor((-3, 2), F(1), F(2)).compare(
            StretchFactor((-8, 5), F(1), F(2))) == -1
        assert len(built) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.integers(2, 10), st.integers(1, 4))
    def test_power_on_split_integer_roots(self, a, b, m):
        if a >= b:
            a, b = b, b + a
        s = StretchFactor((a * b, -(a + b), 1), F(2 * b - 1, 2), F(2 * b + 1, 2))
        expect = StretchFactor(
            ((a ** m) * (b ** m), -(a ** m + b ** m), 1),
            F(2 * b ** m - 1, 2), F(2 * b ** m + 1, 2))
        assert s.power(m).algebraic_equal(expect)
        assert s.power(m).compare(expect) == 0


class TestDilatation:
    def test_equality_is_by_value(self):
        a = Dilatation(PHI, 1)
        b = Dilatation(StretchFactor((1, -3, 1), F(2), F(14, 5)), 2)
        assert a == b
        assert a != Dilatation(None, 1)
        assert Dilatation(None, 3) == Dilatation(None, 1)
        assert a != Dilatation(PHI.power(2), 1)

    def test_power(self):
        assert Dilatation(PHI, 2).power(3) == Dilatation(PHI.power(3), 2)
        assert Dilatation(None, 2).power(5) == Dilatation(None, 2)

    def test_approx(self):
        assert Dilatation(None, 1).approx() == "1"
        assert Dilatation(PHI, 1).approx(5) == "2.6180"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidation:
    @pytest.mark.parametrize("factory", ALL_FIXTURES)
    def test_shipped_fixtures_validate(self, factory):
        nt = factory()
        assert nt.validate() is nt

    def _expect(self, message_part, **overrides):
        base = make_swap()
        fields = {"pieces": base.pieces, "annuli": base.annuli,
                  "piece_map": dict(base.piece_map),
                  "circle_map": dict(base.circle_map)}
        fields.update(overrides)
        with pytest.raises(DecompositionError, match=message_part):
            NTDecomposition(**fields).validate()

    def test_annulus_twist_must_be_exact(self):
        body = encode_nt(make_single_pa(twist=F(1, 2)))
        body["annuli"][0]["twist"] = 0.1
        with pytest.raises(ValueError, match="twist must be an integer or a "
                                             "fraction string, got 0.1"):
            decoded(body)
        body["annuli"][0]["twist"] = "1/10"
        assert decoded(body).annuli[0].twist == F(1, 10)

    @pytest.mark.parametrize("field, path", [
        ("circles", ("pieces", 1, "circles")),
        ("boundary_singularities", ("pieces", 1, "boundary_singularities")),
        ("orbits", ("pieces", 1, "orbits")),
        ("annulus ends", ("annuli", 0, "ends")),
        ("annulus orbits", ("annuli", 0, "orbits")),
    ], ids=["circles", "boundary_singularities", "orbits", "annulus ends",
            "annulus orbits"])
    def test_string_is_not_a_list(self, field, path):
        body = encode_nt(make_swap())
        *steps, key = path
        owner = body
        for step in steps:
            owner = owner[step]
        owner[key] = "cQ"
        with pytest.raises(ValueError, match=f"^{field} must be a list, got"):
            decoded(body)

    def test_maps_are_objects_or_pair_lists(self):
        base = make_swap()
        pairs = NTDecomposition(base.pieces, base.annuli,
                                [list(p) for p in base.piece_map],
                                tuple(base.circle_map))
        assert pairs == base
        body = encode_nt(base)
        body["piece_map"] = [list(p) for p in base.piece_map]
        assert decoded(body) == base
        for bad in ("PQ", [["P", "Q", "Q"]], [["P", "Q"], "QP"], None):
            body["piece_map"] = bad
            with pytest.raises(ValueError, match="^piece_map must be an "
                                                 "object or a list of pairs"):
                decoded(body)

    def test_duplicate_names(self):
        dup = VertexPiece("A", "pseudoAnosov", -1, ("cZ",), (1,), PHI, ())
        base = make_swap()
        self._expect("distinct", pieces=base.pieces + (dup,),
                     piece_map={"P": "Q", "Q": "P", "A": "A"},
                     circle_map={"cP": "cQ", "cQ": "cP", "cZ": "cZ"})

    def test_unknown_kind(self):
        self._expect("unknown piece kind", pieces=(
            VertexPiece("P", "elliptic", -1, ("cP",), (1,), PHI, ()),
            make_swap().pieces[1]))

    def test_nonnegative_euler(self):
        self._expect("negative Euler", pieces=(
            VertexPiece("P", "pseudoAnosov", 0, ("cP",), (1,), PHI, ()),
            make_swap().pieces[1]))

    def test_missing_stretch(self):
        self._expect("needs a stretch factor", pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,), None, ()),
            make_swap().pieces[1]))

    def test_stretch_on_periodic(self):
        with pytest.raises(DecompositionError, match="must not carry"):
            NTDecomposition(
                (VertexPiece("E", "periodic", -1, (), stretch=PHI),), (),
                {"E": "E"}, {})

    def test_period_on_pa(self):
        nt = make_single_pa()
        with pytest.raises(DecompositionError, match="reserved for periodic"):
            NTDecomposition(
                (bad_piece(nt.pieces[0], period=2),), (), {"P": "P"},
                dict(nt.circle_map))

    def test_boundary_count_arity(self):
        self._expect("one boundary singularity count", pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1, 2), PHI, ()),
            make_swap().pieces[1]))

    def test_boundary_count_positive(self):
        self._expect("at least one", pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (0,), PHI, ()),
            make_swap().pieces[1]))

    def test_circle_owned_twice(self):
        self._expect("more than one piece", pieces=(
            make_swap().pieces[0],
            VertexPiece("Q", "pseudoAnosov", -1, ("cP",), (1,), PHI, ())),
            circle_map={"cP": "cP"})

    def test_annulus_to_unknown_circle(self):
        self._expect("unknown circle",
                     annuli=(ReductionAnnulus("A", F(1, 2), ("cP", "zZ")),))

    def test_circle_claimed_by_two_ends(self):
        self._expect("more than one annulus end",
                     annuli=(ReductionAnnulus("A", F(1, 2), ("cP", "cP")),))

    def test_twist_free_annulus_off_pa(self):
        with pytest.raises(DecompositionError, match="twist-free"):
            NTDecomposition(
                (VertexPiece("E1", "periodic", -1, ("s1",)),
                 VertexPiece("E2", "periodic", -1, ("s2",))),
                (ReductionAnnulus("T", F(0), ("s1", "s2")),),
                {"E1": "E1", "E2": "E2", "T": "T"},
                {"s1": "s1", "s2": "s2"}).validate()
        with pytest.raises(DecompositionError, match="twist-free"):
            NTDecomposition(
                (VertexPiece("E", "periodic", -1, ("s1",)),),
                (ReductionAnnulus("T", F(0), ("s1", None)),),
                {"E": "E", "T": "T"}, {"s1": "s1"}).validate()
        with pytest.raises(DecompositionError, match="twist-free"):
            NTDecomposition(
                (), (ReductionAnnulus("T", F(0), (None, None)),),
                {"T": "T"}, {}).validate()

    def test_twist_free_annulus_on_pa_is_fine(self):
        make_five_cases().validate()
        make_single_pa(twist=0).validate()

    def test_piece_map_not_permutation(self):
        self._expect("must permute", piece_map={"P": "Q", "Q": "Q", "A": "A"})

    def test_circle_map_not_permutation(self):
        self._expect("must permute", circle_map={"cP": "cP", "cQ": "cP"})

    def test_piece_sent_to_an_annulus(self):
        self._expect("^piece_map sends piece P to annulus A$",
                     piece_map={"P": "A", "A": "Q", "Q": "P"})

    def test_kind_preserved_along_orbit(self):
        with pytest.raises(DecompositionError, match="kind, Euler"):
            NTDecomposition(
                (VertexPiece("P", "pseudoAnosov", -1, (), (), PHI, ()),
                 VertexPiece("E", "periodic", -1, ())),
                (), {"P": "E", "E": "P"}, {})

    def test_stretch_constant_along_orbit(self):
        other = StretchFactor((1, -7, 1), F(6), F(7))
        with pytest.raises(DecompositionError, match="agree along piece orbits"):
            NTDecomposition(
                (VertexPiece("P", "pseudoAnosov", -1, (), (), PHI, ()),
                 VertexPiece("Q", "pseudoAnosov", -1, (), (), other, ())),
                (), {"P": "Q", "Q": "P"}, {})

    def test_counts_constant_along_orbit(self):
        with pytest.raises(DecompositionError, match="counts must agree"):
            NTDecomposition(
                (VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,), PHI, ()),
                 VertexPiece("Q", "pseudoAnosov", -1, ("cQ",), (2,), PHI, ())),
                (), {"P": "Q", "Q": "P"}, {"cP": "cQ", "cQ": "cP"})

    def test_twist_constant_along_orbit(self):
        with pytest.raises(DecompositionError, match="twist rates must agree"):
            NTDecomposition(
                (), (ReductionAnnulus("A1", F(1, 2), (None, None)),
                     ReductionAnnulus("A2", F(1, 3), (None, None))),
                {"A1": "A2", "A2": "A1"}, {})

    def test_ends_respected(self):
        nt = make_star()
        bad_circles = dict(nt.circle_map)
        bad_circles["d1"], bad_circles["d2"] = "d3", "d1"
        bad_circles["d3"] = "d2"
        with pytest.raises(DecompositionError):
            NTDecomposition(nt.pieces, nt.annuli, dict(nt.piece_map),
                            bad_circles)

    def test_orbit_name_duplicated(self):
        self._expect("declared twice", pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,), PHI,
                        orbits=(InteriorOrbit("o", 2, 4, 0),)),
            VertexPiece("Q", "pseudoAnosov", -1, ("cQ",), (1,), PHI,
                        orbits=(InteriorOrbit("o", 2, 4, 0),))))

    def test_orbit_size_spreads_over_piece_orbit(self):
        self._expect("spread evenly", pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,), PHI,
                        orbits=(InteriorOrbit("o", 3, 4, 0),)),
            make_swap().pieces[1]))

    def test_elliptic_orbit_respects_period(self):
        with pytest.raises(DecompositionError, match="outlives the period"):
            NTDecomposition(
                (VertexPiece("E", "periodic", -1, (), period=2,
                             orbits=(InteriorOrbit("e", 3),)),),
                (), {"E": "E"}, {})

    def test_pa_orbit_needs_prongs(self):
        self._expect("need a prong count", pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,), PHI,
                        orbits=(InteriorOrbit("o", 2),)),
            make_swap().pieces[1]))

    def test_prong_count_bounds(self):
        self._expect("at least three", pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,), PHI,
                        orbits=(InteriorOrbit("o", 2, 1, 0),)),
            make_swap().pieces[1]))
        make_swap(prongs=2).validate()

    def test_rotation_reduced(self):
        self._expect("reduced modulo", pieces=(
            VertexPiece("P", "pseudoAnosov", -1, ("cP",), (1,), PHI,
                        orbits=(InteriorOrbit("o", 2, 4, 4),)),
            make_swap().pieces[1]))

    def test_prongs_off_pa_rejected(self):
        with pytest.raises(DecompositionError, match="only apply"):
            NTDecomposition(
                (VertexPiece("E", "periodic", -1, (),
                             orbits=(InteriorOrbit("e", 1, 3, 0),)),),
                (), {"E": "E"}, {})


def bad_piece(piece, **overrides):
    return replace(piece, **overrides)


# ---------------------------------------------------------------------------
# split order
# ---------------------------------------------------------------------------

class TestSplitOrder:
    def test_single_fixed_pa_piece(self):
        assert split_order(make_single_pa()) == 1

    def test_two_swapped_pa_pieces(self):
        assert split_order(make_swap()) == 2

    def test_three_cycled_periodic_pieces(self):
        assert split_order(make_star()) == 3

    @pytest.mark.parametrize("factory", ALL_FIXTURES)
    def test_against_brute_search(self, factory):
        nt = factory()
        assert split_order(nt) == brute_split_order(nt)

    def test_annuli_do_not_constrain(self):
        # the two swapped annuli are not part of the constrained set
        assert split_order(make_annuli_only()) == 1

    def test_period_does_not_constrain(self):
        # the split order fixes pieces setwise, not pointwise
        assert split_order(make_rotating_periodic()) == 1


# ---------------------------------------------------------------------------
# dilatation / deviation
# ---------------------------------------------------------------------------

class TestDilDev:
    def test_single_pa(self):
        d = dilatation(make_single_pa())
        assert d.factor.algebraic_equal(PHI) and d.split_order == 1
        assert deviation(make_single_pa()) == 0

    def test_fixed_annulus_coefficient_four(self):
        nt = make_single_pa(twist=4)
        assert dilatation(nt) == Dilatation(PHI, 1)
        assert deviation(nt) == 4

    def test_swap(self):
        d = dilatation(make_swap())
        assert d == Dilatation(PHI, 2) and d.split_order == 2
        assert deviation(make_swap()) == F(1, 2)

    def test_pure_twist_notes_and_returns_zero(self):
        nt = make_pure_twist()
        assert dilatation(nt) == Dilatation(None, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert deviation(nt) == 0
            assert notes(nt) == (ntform.DISCARDED_TWIST_NOTE,)
        assert "pseudo-Anosov part is empty" in ntform.DISCARDED_TWIST_NOTE

    def test_separating_twist_notes(self):
        nt = make_separating_twist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert deviation(nt) == 0
            assert notes(nt) == (ntform.DISCARDED_TWIST_NOTE,)

    def test_no_annuli_no_warning(self):
        # no annulus twists, so no caveat, and no warning either way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert deviation(make_rotating_periodic()) == 0
            assert notes(make_rotating_periodic()) == ()
            for nt in (make_single_pa(twist=4), make_swap()):
                assert notes(nt) == ()

    def test_maximum_over_pieces(self):
        bigger = PHI.power(2)
        nt = NTDecomposition(
            (VertexPiece("P", "pseudoAnosov", -1, (), (), PHI, ()),
             VertexPiece("Q", "pseudoAnosov", -1, (), (), bigger, ())),
            (), {"P": "P", "Q": "Q"}, {})
        assert dilatation(nt).factor.algebraic_equal(bigger)

    @staticmethod
    def make_two_fixed_pa(order):
        """Two fixed pA pieces, P with stretch (3 + sqrt 5)/2 and Q with
        1 + sqrt 2, joined by a twist-free annulus, listed in `order`."""
        stretch = {"P": PHI, "Q": StretchFactor((-1, -2, 1), F(2), F(5, 2))}
        pieces = {name: VertexPiece(name, "pseudoAnosov", -1, (f"c{name}",),
                                    (1,), stretch[name], orbits=())
                  for name in "PQ"}
        return NTDecomposition(
            tuple(pieces[name] for name in order),
            (ReductionAnnulus("A", F(0), ("cP", "cQ")),),
            {"P": "P", "Q": "Q", "A": "A"}, {"cP": "cP", "cQ": "cQ"})

    @pytest.mark.parametrize("order", ["PQ", "QP"])
    def test_two_orbits_keep_the_larger_factor(self, tmp_path, capsys,
                                               order):
        # the intervals [2, 5/2] and [5/2, 3] touch, so they are refined
        nt = self.make_two_fixed_pa(order)
        assert dilatation(nt) == Dilatation(PHI, 1)
        path = tmp_path / "two_orbits.json"
        save_fixture(path, KIND_NT, encode_nt(nt))
        assert main(["nt", "analyze", str(path)]) == 0
        assert "dilatation: root of [1, -3, 1] in [5/2, 3]\n" \
            in capsys.readouterr().out


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------

def semantically_equal(a: NTDecomposition, b: NTDecomposition) -> bool:
    """Field equality with stretch factors compared as algebraic numbers."""
    strip = lambda p: bad_piece(p, stretch=None)
    if tuple(map(strip, a.pieces)) != tuple(map(strip, b.pieces)):
        return False
    if a.annuli != b.annuli or a.piece_map != b.piece_map \
            or a.circle_map != b.circle_map:
        return False
    return all((pa.stretch is None) == (pb.stretch is None)
               and (pa.stretch is None or pa.stretch.algebraic_equal(pb.stretch))
               for pa, pb in zip(a.pieces, b.pieces))


class TestIterate:
    @pytest.mark.parametrize("factory", ALL_FIXTURES)
    def test_first_iterate_is_identity(self, factory):
        nt = factory()
        assert iterate(nt, 1) == nt

    def test_swap_squared(self):
        it = iterate(make_swap(), 2)
        assert dict(it.piece_map) == {"P": "P", "Q": "Q", "A": "A"}
        assert it.piece("P").stretch.polynomial == (1, -7, 1)
        assert it.piece("Q").stretch.algebraic_equal(PHI.power(2))
        assert it.annulus("A").twist == 1

    def test_twist_three_halves_times_four(self):
        nt = make_single_pa(twist=F(3, 2))
        assert iterate(nt, 4).annulus("T").twist == 6

    def test_orbit_splitting(self):
        it = iterate(make_swap(), 2)
        orbits = it.piece("P").orbits
        assert [(o.size, o.prongs, o.rotation) for o in orbits] == \
            [(1, 4, 0), (1, 4, 0)]
        assert sorted(o.name for o in orbits) == ["o#1", "o#2"]

    def test_rotation_transport(self):
        nt = make_closed_pa((InteriorOrbit("s", 1, 5, 2),))
        assert iterate(nt, 3).piece("P").orbits[0].rotation == (2 * 3) % 5

    def test_period_reduction(self):
        nt = make_rotating_periodic()
        assert iterate(nt, 3).piece("E").period == 1
        assert iterate(nt, 2).piece("E").period == 3
        assert iterate(nt, 6).piece("E").period == 1

    def test_composition(self):
        for factory in (make_swap, make_five_cases, make_star):
            nt = factory()
            assert semantically_equal(iterate(iterate(nt, 2), 3),
                                      iterate(nt, 6))

    def test_rejects_nonpositive(self):
        with pytest.raises(DecompositionError):
            iterate(make_swap(), 0)

    @pytest.mark.parametrize("factory",
                             (make_swap, make_five_cases, make_star,
                              make_single_pa, make_separating_twist))
    def test_power_laws_up_to_twelve(self, factory):
        nt = factory()
        dil, dev = dilatation(nt), deviation(nt)
        for m in range(1, 13):
            it = iterate(nt, m)
            assert dilatation(it) == dil.power(m)
            assert deviation(it) == m * dev

    def test_class_tables_commute_with_iteration(self):
        for factory in (make_swap, make_five_cases, make_star):
            nt = factory()
            for k in (2, 3):
                it = iterate(nt, k)
                for m in (1, 2, 3):
                    assert index_multiset(fixed_point_classes(it, m)) == \
                        index_multiset(fixed_point_classes(nt, k * m))


# ---------------------------------------------------------------------------
# fixed point classes
# ---------------------------------------------------------------------------

class TestFixedPointClasses:
    def test_case_names_cover_all_cases(self):
        assert sorted(CASE_NAMES) == [1, 2, 3, 4, 5]

    def test_five_cases_m1(self):
        recs = fixed_point_classes(make_five_cases(), 1)
        assert index_multiset(recs) == [(1, 1), (2, 1), (3, -2), (3, -2),
                                        (4, -2)]
        carriers = {r.case: r.carrier for r in recs}
        assert carriers[1] == "interior orbit ell"
        assert carriers[2] == "interior orbit sing"
        assert carriers[4] == "reduction annulus A2"

    def test_five_cases_m2_has_crown_subsurface(self):
        recs = fixed_point_classes(make_five_cases(), 2)
        assert index_multiset(recs) == [(2, 1), (3, -2), (4, -2), (5, -3)]
        crown = [r for r in recs if r.case == 5][0]
        assert crown.index == -3
        assert crown.carrier == "periodic piece E with annuli A1"

    def test_five_cases_m3_unrotated_prongs(self):
        recs = fixed_point_classes(make_five_cases(), 3)
        assert index_multiset(recs) == [(1, 1), (2, -2), (3, -2), (3, -2),
                                        (4, -2)]

    def test_five_cases_m6(self):
        recs = fixed_point_classes(make_five_cases(), 6)
        assert index_multiset(recs) == [(2, -2), (3, -2), (4, -2), (5, -3)]

    @pytest.mark.parametrize("pieces, annuli, piece, circle", [
        ((0, 1, 2, 3), (0, 1, 2), "E1", "b1"),
        ((0, 2, 1, 3), (0, 1, 2), "E2", "b1"),
        ((0, 2, 1, 3), (1, 0, 2), "E2", "b2"),
    ], ids=["declared", "E2 first", "E2 and A2 first"])
    def test_orbit_carrier_is_its_first_declared_member(self, pieces, annuli,
                                                        piece, circle):
        # a class orbit is named after the member of its piece or annulus
        # orbit that the fixture declares first
        nt = load_fixture(FIXTURES / "star_rotation.json").payload
        nt = replace(nt, pieces=tuple(nt.pieces[i] for i in pieces),
                     annuli=tuple(nt.annuli[i] for i in annuli))
        classes = [f"(class {j} of 3)" for j in (1, 2, 3)]
        assert tuple((r.case, r.carrier, r.index)
                     for r in fixed_point_classes(nt, 3)) == tuple(
            [(5, f"periodic piece {piece} {c}", -1) for c in classes]
            + [(3, f"boundary circle {circle} {c}", -1) for c in classes])

    def test_four_prongs_unrotated(self):
        nt = make_closed_pa((InteriorOrbit("s", 1, 4, 0),))
        (rec,) = fixed_point_classes(nt, 1)
        assert (rec.case, rec.index) == (2, -3)

    def test_three_prongs_rotated(self):
        nt = make_closed_pa((InteriorOrbit("s", 1, 3, 1),))
        (rec,) = fixed_point_classes(nt, 1)
        assert (rec.case, rec.index) == (2, 1)
        (rec3,) = fixed_point_classes(nt, 3)
        assert (rec3.case, rec3.index) == (2, -2)

    def test_marked_regular_points(self):
        nt = make_closed_pa((InteriorOrbit("s", 1, 2, 0),))
        (rec,) = fixed_point_classes(nt, 1)
        assert (rec.case, rec.index) == (2, -1)

    def test_case4_between_two_pa_pieces(self):
        nt = make_single_pa(twist=F(1, 2))
        assert fixed_point_classes(nt, 1) == ()
        (rec,) = fixed_point_classes(nt, 2)
        assert (rec.case, rec.index) == (4, -2)
        assert rec.carrier == "reduction annulus T"

    def test_separating_twist_two_classes_every_iterate(self):
        nt = make_separating_twist()
        for m in (1, 2, 3, 5):
            recs = fixed_point_classes(nt, m)
            assert index_multiset(recs) == [(5, -1), (5, -1)]

    def test_swap_classes(self):
        nt = make_swap()
        assert fixed_point_classes(nt, 1) == ()
        recs = fixed_point_classes(nt, 2)
        assert index_multiset(recs) == [(2, -3), (2, -3), (4, -2)]

    def test_incomplete_orbit_data_raises(self):
        nt = make_closed_pa(())
        undeclared = NTDecomposition(
            (bad_piece(nt.pieces[0], orbits=None),), (), {"P": "P"}, {})
        with pytest.raises(OrbitDataIncompleteError, match="undeclared"):
            fixed_point_classes(undeclared, 1)
        # declared-empty is not incomplete
        assert fixed_point_classes(nt, 1) == ()

    def test_incomplete_only_when_fixed(self):
        base = make_swap()
        undeclared = NTDecomposition(
            tuple(bad_piece(p, orbits=None) for p in base.pieces),
            base.annuli, dict(base.piece_map), dict(base.circle_map))
        assert fixed_point_classes(undeclared, 1) == ()
        with pytest.raises(OrbitDataIncompleteError):
            fixed_point_classes(undeclared, 2)

    def test_record_constraints_enforced(self):
        with pytest.raises(DecompositionError):
            FixedClassRecord(1, 4, "x", -1)
        with pytest.raises(DecompositionError):
            FixedClassRecord(1, 2, "x", 0)
        with pytest.raises(DecompositionError):
            FixedClassRecord(1, 1, "x", 2)
        with pytest.raises(DecompositionError):
            FixedClassRecord(1, 3, "x", 0)
        with pytest.raises(DecompositionError):
            FixedClassRecord(1, 6, "x", 1)
        FixedClassRecord(1, 5, "x", -1)

    def test_rejects_nonpositive_iterate(self):
        with pytest.raises(DecompositionError):
            fixed_point_classes(make_swap(), 0)


# ---------------------------------------------------------------------------
# indexed orbit numbers
# ---------------------------------------------------------------------------

def counts(table: IndexedOrbitTable, m: int) -> dict:
    """{index: count} of iterate m; a table's rows are iterates 1, 2, ..."""
    return dict(table.rows[m - 1].counts)


def nielsen(table: IndexedOrbitTable, m: int) -> int:
    return table.rows[m - 1].nielsen


class TestIndexedOrbitNumbers:
    def test_swap_table(self):
        table = indexed_orbit_numbers(make_swap(), 6)
        assert [nielsen(table, m) for m in range(1, 7)] == [0, 2, 0, 2, 0, 2]
        for m in (2, 4, 6):
            assert counts(table, m) == {-3: 1, -2: 1}
        assert table.remainder == ("P",)

    def test_five_cases_table(self):
        table = indexed_orbit_numbers(make_five_cases(), 6)
        assert counts(table, 1) == {-2: 3, 1: 2}
        assert counts(table, 2) == {-3: 1, -2: 2, 1: 1}
        assert counts(table, 3) == {-2: 4, 1: 1}
        assert counts(table, 6) == {-3: 1, -2: 3}
        assert [nielsen(table, m) for m in (1, 2, 3, 6)] == [5, 4, 5, 4]

    def test_single_four_prong_orbit(self):
        nt = make_closed_pa((InteriorOrbit("s", 1, 4, 0),))
        table = indexed_orbit_numbers(nt, 1)
        assert counts(table, 1) == {-3: 1} and nielsen(table, 1) == 1

    def test_two_swapped_three_prongs(self):
        table = indexed_orbit_numbers(make_swap(prongs=3), 2)
        assert nielsen(table, 1) == 0
        # one orbit class made of two fixed classes, plus the crown annulus
        assert counts(table, 2) == {-2: 2}
        assert len(fixed_point_classes(make_swap(prongs=3), 2)) == 3

    def test_annuli_only_all_zero(self):
        table = indexed_orbit_numbers(make_annuli_only(), 6)
        for m in range(1, 7):
            assert counts(table, m) == {} and nielsen(table, m) == 0
        assert table.remainder == ()

    def test_separating_twist_constant_two(self):
        table = indexed_orbit_numbers(make_separating_twist(), 5)
        for m in range(1, 6):
            assert nielsen(table, m) == 2
            assert counts(table, m) == {-1: 2}

    def test_star_table(self):
        table = indexed_orbit_numbers(make_star(), 6)
        assert [nielsen(table, m) for m in range(1, 7)] == [0, 0, 2, 0, 0, 2]
        assert counts(table, 3) == {-1: 2}

    @pytest.mark.parametrize("factory", ALL_FIXTURES)
    def test_nielsen_is_total_count(self, factory):
        table = indexed_orbit_numbers(factory(), 6)
        for row in table.rows:
            assert row.nielsen == sum(c for _, c in row.counts)

    def test_row_constructor_guards(self):
        # the two properties a caller's counts could break
        with pytest.raises(DecompositionError, match="nonzero indices"):
            OrbitRow.from_counts({0: 2})
        with pytest.raises(DecompositionError, match="nonnegative"):
            OrbitRow.from_counts({-2: -1})

    def test_from_counts_and_json(self):
        table = IndexedOrbitTable(
            (OrbitRow.from_counts({-1: 2, 3: 0}), OrbitRow.from_counts({-2: 1})),
            remainder=("P",))
        assert table.rows[0].counts == ((-1, 2),)
        assert nielsen(table, 2) == 1
        assert _table_json(table) == {
            "rows": [{"iterate": 1, "counts": [[-1, 2]], "nielsen": 2},
                     {"iterate": 2, "counts": [[-2, 1]], "nielsen": 1}],
            "remainder": ["P"]}

    def test_orbit_counts_divide_class_counts(self):
        nt = make_swap()
        table = indexed_orbit_numbers(nt, 6)
        for m in range(1, 7):
            classes = len(fixed_point_classes(nt, m))
            orbits = nielsen(table, m)
            assert orbits <= classes
            if classes:
                assert orbits >= 1


class TestOrbitRowPeriod:
    """indexed_orbit_numbers computes rows 1..min(upto, P) once per
    decomposition and repeats them with period P; the oracle computes every
    iterate's row from its own essential families."""

    # shipped decomposition -> P
    PERIODS = {"two_pa_swap": 8, "five_cases": 6, "star_rotation": 3,
               "separating_twist": 1, "pure_twist": 2}

    @staticmethod
    def shipped(name):
        return load_fixture(FIXTURES / f"{name}.json").payload

    def decompositions(self):
        rng = random.Random(20261019)
        for name in sorted(self.PERIODS):
            nt = self.shipped(name)
            yield name, nt
            yield f"{name} relabeled", relabel(nt, *random_relabeling(nt, rng))

    @staticmethod
    def count_families(monkeypatch):
        calls = []
        families = ntform._essential_families
        monkeypatch.setattr(ntform, "_essential_families",
                            lambda nt, m: calls.append(m) or families(nt, m))
        return calls

    def test_tables_match_the_oracle_at_every_bound(self):
        for label, nt in self.decompositions():
            for upto in range(1, 61):
                assert indexed_orbit_numbers(nt, upto) == \
                    orbit_numbers_by_iterate(nt, upto), (label, upto)

    def test_tables_match_the_oracle_in_any_order(self):
        for label, nt in self.decompositions():
            for upto in (30, 6, 45, 1):
                assert indexed_orbit_numbers(nt, upto) == \
                    orbit_numbers_by_iterate(nt, upto), (label, upto)

    @pytest.mark.parametrize("factory", ALL_FIXTURES)
    def test_built_decompositions_match_the_oracle(self, factory):
        nt = factory()
        for upto in (7, 24, 3):
            assert indexed_orbit_numbers(nt, upto) == \
                orbit_numbers_by_iterate(nt, upto)

    @pytest.mark.parametrize("name", sorted(PERIODS))
    def test_each_row_is_computed_once(self, monkeypatch, name):
        nt = self.shipped(name)
        assert nt._row_period == self.PERIODS[name]
        calls = self.count_families(monkeypatch)
        for upto in (30, 6, 45, 1, 60):
            indexed_orbit_numbers(nt, upto)
        assert calls == list(range(1, self.PERIODS[name] + 1))

    @pytest.mark.parametrize("name", sorted(PERIODS))
    def test_rows_repeat_as_objects(self, name):
        # one checked row object per residue of the iterate mod P
        nt, period = self.shipped(name), self.PERIODS[name]
        rows = indexed_orbit_numbers(nt, 3 * period + 1).rows
        assert all(row is rows[m % period] for m, row in enumerate(rows))

    @pytest.mark.parametrize("upto", [ITERATE_LIMIT + 1, 10 ** 30])
    def test_bound_past_the_limit_computes_no_row(self, monkeypatch, upto):
        nt = self.shipped("two_pa_swap")
        calls = self.count_families(monkeypatch)
        with pytest.raises(DecompositionError,
                           match=f"at most {ITERATE_LIMIT}"):
            indexed_orbit_numbers(nt, upto)
        assert calls == []

    def test_short_bound_computes_only_its_rows(self, monkeypatch):
        nt = self.shipped("two_pa_swap")
        calls = self.count_families(monkeypatch)
        indexed_orbit_numbers(nt, 3)
        indexed_orbit_numbers(nt, 5)
        assert calls == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("nt, period", [
        # a fixed pA piece and fixed circles: only the 1/5 twist sets P
        (make_single_pa(twist="1/5"), 5),
        # a closed fixed pA piece: only the 3-prong fixed orbit sets P
        (make_closed_pa((InteriorOrbit("s", 1, 3, 1),)), 3),
        # a fixed pA piece that swaps its two boundary circles
        (NTDecomposition((VertexPiece("P", "pseudoAnosov", -2, ("x1", "x2"),
                                      (1, 1), PHI, orbits=()),),
                         (), {"P": "P"}, {"x1": "x2", "x2": "x1"}), 2),
    ], ids=["twist denominator", "size times prongs", "circle orbit"])
    def test_one_term_sets_the_period(self, nt, period):
        assert nt._row_period == period
        # P is prime and row P differs from row 1, so no smaller period
        rows = orbit_numbers_by_iterate(nt, 3 * period).rows
        assert rows[period - 1].counts != rows[0].counts
        assert indexed_orbit_numbers(nt, 3 * period) == \
            orbit_numbers_by_iterate(nt, 3 * period)

    @pytest.mark.parametrize("build, first", [
        (lambda: NTDecomposition((bad_piece(make_closed_pa(()).pieces[0],
                                            orbits=None),),
                                 (), {"P": "P"}, {}), 1),
        (lambda: NTDecomposition(
            tuple(bad_piece(p, orbits=None) for p in make_swap().pieces),
            make_swap().annuli, dict(make_swap().piece_map),
            dict(make_swap().circle_map)), 2),
    ], ids=["fixed piece", "swapped pieces"])
    def test_incomplete_data_fails_at_the_same_iterate(self, build, first):
        nt = build()
        for upto in (1, 2, 5, 1, 9):
            if upto < first:
                assert indexed_orbit_numbers(nt, upto) == \
                    orbit_numbers_by_iterate(nt, upto)
                continue
            with pytest.raises(OrbitDataIncompleteError) as expected:
                orbit_numbers_by_iterate(nt, upto)
            with pytest.raises(OrbitDataIncompleteError) as raised:
                indexed_orbit_numbers(nt, upto)
            assert str(raised.value) == str(expected.value)
            assert f"iterate {first} " in str(raised.value)


# ---------------------------------------------------------------------------
# growth estimates
# ---------------------------------------------------------------------------

class TestGrowthEstimates:
    def anosov_table(self, upto=30):
        a = ((2, 1), (1, 1))
        return IndexedOrbitTable(tuple(
            OrbitRow.from_counts({-1: det_power_minus_identity(a, m)})
            for m in range(1, upto + 1)))

    def test_bracket_invariant(self):
        for bracket in dilatation_from_nielsen(self.anosov_table(12)):
            n = max(1, bracket.nielsen)
            assert bracket.low ** bracket.iterate <= n
            assert bracket.high ** bracket.iterate >= n

    def test_anosov_within_one_percent_by_thirty(self):
        brackets = dilatation_from_nielsen(self.anosov_table(30))
        final = brackets[-1]
        assert final.iterate == 30
        assert certify_growth_estimate(final, Dilatation(PHI, 1), F(1, 100))

    def test_certification_rejects_wrong_value(self):
        brackets = dilatation_from_nielsen(self.anosov_table(30))
        wrong = Dilatation(StretchFactor((5, -5, 1), F(7, 2), F(4)), 1)
        assert not certify_growth_estimate(brackets[-1], wrong, F(1, 100))

    def test_early_iterates_not_certified(self):
        brackets = dilatation_from_nielsen(self.anosov_table(3))
        assert not certify_growth_estimate(brackets[0], Dilatation(PHI, 1),
                                           F(1, 100))

    def test_all_zero_table(self):
        table = IndexedOrbitTable((OrbitRow.from_counts({}),) * 5)
        for bracket in dilatation_from_nielsen(table):
            assert (bracket.low, bracket.high) == (1, 1)
            assert certify_growth_estimate(bracket, Dilatation(None, 1))

    def test_periodic_only_estimates_equal_dilatation(self):
        nt = make_rotating_periodic()
        table = indexed_orbit_numbers(nt, 6)
        for bracket in dilatation_from_nielsen(table):
            assert (bracket.low, bracket.high) == (1, 1)
            assert certify_growth_estimate(bracket, dilatation(nt))

    def test_tolerance_controls_width(self):
        table = self.anosov_table(5)
        for bracket in dilatation_from_nielsen(table, tolerance=F(1, 10 ** 9)):
            assert bracket.high - bracket.low <= F(1, 10 ** 9)

    def test_empty_table_rejected(self):
        with pytest.raises(DecompositionError):
            dilatation_from_nielsen(IndexedOrbitTable((), ()))


# ---------------------------------------------------------------------------
# relabeling invariance
# ---------------------------------------------------------------------------

def relabel(nt: NTDecomposition,
            piece_names: Optional[Mapping[str, str]] = None,
            circle_names: Optional[Mapping[str, str]] = None,
            orbit_names: Optional[Mapping[str, str]] = None
            ) -> NTDecomposition:
    """Rename pieces, annuli, circles, and interior orbits consistently;
    the permutations are conjugated by the renaming."""
    piece_names = dict(piece_names or {})
    circle_names = dict(circle_names or {})
    orbit_names = dict(orbit_names or {})

    def pn(name):
        return piece_names.get(name, name)

    def cn(name):
        return circle_names.get(name, name)

    def rename_orbits(orbits):
        if orbits is None:
            return None
        return tuple(replace(o, name=orbit_names.get(o.name, o.name))
                     for o in orbits)

    pieces = tuple(replace(
        p, name=pn(p.name), circles=tuple(cn(c) for c in p.circles),
        orbits=rename_orbits(p.orbits)) for p in nt.pieces)
    annuli = tuple(replace(
        a, name=pn(a.name),
        ends=tuple(None if e is None else cn(e) for e in a.ends),
        orbits=rename_orbits(a.orbits)) for a in nt.annuli)
    piece_map = {pn(src): pn(dst) for src, dst in nt.piece_map}
    circle_map = {cn(src): cn(dst) for src, dst in nt.circle_map}
    return NTDecomposition(pieces, annuli, piece_map, circle_map)


def random_relabeling(nt, rng):
    pieces = [p.name for p in nt.pieces] + [a.name for a in nt.annuli]
    circles = sorted(dict(nt.circle_map))
    orbit_names = [o.name for host in list(nt.pieces) + list(nt.annuli)
                   for o in host.orbits or ()]
    def fresh(names, tag):
        shuffled = list(range(100, 100 + len(names)))
        rng.shuffle(shuffled)
        return {name: f"{tag}{n}" for name, n in zip(names, shuffled)}
    return (fresh(pieces, "v"), fresh(circles, "c"), fresh(orbit_names, "o"))


class TestRelabelingInvariance:
    @pytest.mark.parametrize("factory",
                             (make_swap, make_five_cases, make_star,
                              make_separating_twist))
    def test_invariants_stable_under_renaming(self, factory):
        rng = random.Random(20260823)
        nt = factory()
        table = indexed_orbit_numbers(nt, 6)
        dil = dilatation(nt)
        dev = deviation(nt)
        for _ in range(25):
            renamed = relabel(nt, *random_relabeling(nt, rng))
            renamed.validate()
            other = indexed_orbit_numbers(renamed, 6)
            assert other.rows == table.rows
            assert len(other.remainder) == len(table.remainder)
            assert dilatation(renamed) == dil
            assert deviation(renamed) == dev

    def test_composing_with_fixture_automorphism(self):
        nt = make_swap()
        swapped = relabel(nt, {"P": "Q", "Q": "P"}, {"cP": "cQ", "cQ": "cP"})
        swapped.validate()
        assert indexed_orbit_numbers(swapped, 6).rows == \
            indexed_orbit_numbers(nt, 6).rows

    def test_relabel_moves_everything(self):
        nt = make_five_cases()
        renamed = relabel(nt, {"P": "X", "A1": "B"}, {"c2": "z2"},
                          {"sing": "spot"})
        renamed.validate()
        assert renamed.piece("X").circles == ("c1", "z2", "c5", "c6")
        assert renamed.annulus("B").ends == ("z2", "c3")
        assert renamed.piece("X").orbits[0].name == "spot"
        assert dict(renamed.piece_map)["B"] == "B"


# ---------------------------------------------------------------------------
# shearing degrees
# ---------------------------------------------------------------------------

class TestShearing:
    def test_examples(self):
        assert shearing_from_slopes((1, 0), (1, 5)) == 5
        assert shearing_from_slopes((1, 0), (1, 0)) == "trivial"
        assert shearing_from_slopes((2, 1), (1, 1)) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            shearing_from_slopes((0, 0), (1, 2))
        with pytest.raises(ValueError, match="nonzero"):
            shearing_from_slopes((1, 2), (0, 0))

    def test_arity(self):
        with pytest.raises(ValueError, match="pairs"):
            shearing_from_slopes((1, 0, 0), (1, 2))

    @pytest.mark.parametrize("entry", [1.5, 1.0, True, "1"])
    def test_non_integer_slope_entries_rejected(self, entry):
        # int() made (1.5, 0) and (True, 0) both the slope (1, 0)
        with pytest.raises(ValueError, match="slope entry must be an integer"):
            shearing_from_slopes((entry, 0), (0, 1))
        with pytest.raises(ValueError, match="slope entry must be an integer"):
            shearing_from_slopes((0, 1), (0, entry))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
           st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    def test_matches_determinant(self, g, h):
        if g == (0, 0) or h == (0, 0):
            return
        det = g[0] * h[1] - g[1] * h[0]
        expect = abs(det) if det else "trivial"
        assert shearing_from_slopes(g, h) == expect

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
           st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
           st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    def test_unimodular_invariance(self, g, h, a, b, c):
        if g == (0, 0) or h == (0, 0):
            return
        # build a unimodular matrix [[a, b], [c, d]] with det 1
        d, rem = divmod(1 + b * c, a) if a else (0, 1)
        if a == 0 or rem:
            return
        u = ((a, b), (c, d))
        ug = (u[0][0] * g[0] + u[0][1] * g[1], u[1][0] * g[0] + u[1][1] * g[1])
        uh = (u[0][0] * h[0] + u[0][1] * h[1], u[1][0] * h[0] + u[1][1] * h[1])
        assert shearing_from_slopes(ug, uh) == shearing_from_slopes(g, h)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestJson:
    @pytest.mark.parametrize("factory", ALL_FIXTURES)
    def test_decomposition_roundtrip(self, factory):
        nt = factory()
        assert decoded(encode_nt(nt)) == nt

    def test_json_is_plain_data(self):
        import json
        for factory in ALL_FIXTURES:
            json.dumps(encode_nt(factory()))

    def test_undeclared_orbits_distinct_from_empty(self):
        declared = make_closed_pa(())
        undeclared = NTDecomposition(
            (bad_piece(declared.pieces[0], orbits=None),), (), {"P": "P"}, {})
        assert "orbits" in encode_nt(declared)["pieces"][0]
        assert "orbits" not in encode_nt(undeclared)["pieces"][0]
        assert decoded(encode_nt(undeclared)) == undeclared
