"""Normal-form calculus: stretch factors, decomposition validation, split
order, dilatation/deviation, fixed class tables, orbit counts, growth
certification, decomposition graphs, relabeling invariance, shearing."""

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procong.ntform import (
    CASE_NAMES,
    DecompositionError,
    DecompositionGraph,
    Dilatation,
    FixedClassRecord,
    GrowthBracket,
    IndexedOrbitTable,
    InteriorOrbit,
    NTDecomposition,
    OrbitDataIncompleteError,
    OrbitRow,
    ReductionAnnulus,
    StretchFactor,
    VertexPiece,
    certify_growth_estimate,
    deviation,
    dilatation,
    dilatation_from_nielsen,
    fixed_point_classes,
    geometric_graph,
    graph_automorphism,
    indexed_orbit_numbers,
    iterate,
    nt_graph,
    relabel,
    shearing_from_slopes,
    split_order,
)

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


def as_multigraph(graph: DecompositionGraph) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    for v in graph.vertices:
        g.add_node(v, kind=graph.kind(v))
    for edge, src, dst in graph.as_edge_list():
        g.add_edge(src, dst, kind=graph.kind(edge))
    return g


def graphs_isomorphic(a: DecompositionGraph, b: DecompositionGraph) -> bool:
    return nx.is_isomorphic(
        as_multigraph(a), as_multigraph(b),
        node_match=lambda x, y: x["kind"] == y["kind"],
        edge_match=lambda x, y: True)


def index_multiset(records):
    return sorted((r.case, r.index) for r in records)


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
        assert StretchFactor.from_json(PHI.to_json()) == PHI

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
    from dataclasses import replace
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

    def test_pure_twist_warns_and_returns_zero(self):
        nt = make_pure_twist()
        assert dilatation(nt) == Dilatation(None, 1)
        with pytest.warns(UserWarning, match="pseudo-Anosov part is empty"):
            assert deviation(nt) == 0

    def test_separating_twist_warns(self):
        with pytest.warns(UserWarning):
            assert deviation(make_separating_twist()) == 0

    def test_no_annuli_no_warning(self):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            assert deviation(make_rotating_periodic()) == 0

    def test_maximum_over_pieces(self):
        bigger = PHI.power(2)
        nt = NTDecomposition(
            (VertexPiece("P", "pseudoAnosov", -1, (), (), PHI, ()),
             VertexPiece("Q", "pseudoAnosov", -1, (), (), bigger, ())),
            (), {"P": "P", "Q": "Q"}, {})
        assert dilatation(nt).factor.algebraic_equal(bigger)


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
        import warnings as w
        nt = factory()
        with w.catch_warnings():
            w.simplefilter("ignore")
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

class TestIndexedOrbitNumbers:
    def test_swap_table(self):
        table = indexed_orbit_numbers(make_swap(), 6)
        assert [table.nielsen(m) for m in range(1, 7)] == [0, 2, 0, 2, 0, 2]
        for m in (2, 4, 6):
            assert dict(table.row(m).counts) == {-3: 1, -2: 1}
        assert table.remainder == ("P",)

    def test_five_cases_table(self):
        table = indexed_orbit_numbers(make_five_cases(), 6)
        assert dict(table.row(1).counts) == {-2: 3, 1: 2}
        assert dict(table.row(2).counts) == {-3: 1, -2: 2, 1: 1}
        assert dict(table.row(3).counts) == {-2: 4, 1: 1}
        assert dict(table.row(6).counts) == {-3: 1, -2: 3}
        assert [table.nielsen(m) for m in (1, 2, 3, 6)] == [5, 4, 5, 4]

    def test_single_four_prong_orbit(self):
        nt = make_closed_pa((InteriorOrbit("s", 1, 4, 0),))
        table = indexed_orbit_numbers(nt, 1)
        assert table.nu(1, -3) == 1 and table.nielsen(1) == 1

    def test_two_swapped_three_prongs(self):
        table = indexed_orbit_numbers(make_swap(prongs=3), 2)
        assert table.nielsen(1) == 0
        # one orbit class made of two fixed classes, plus the crown annulus
        assert dict(table.row(2).counts) == {-2: 2}
        assert len(fixed_point_classes(make_swap(prongs=3), 2)) == 3

    def test_annuli_only_all_zero(self):
        table = indexed_orbit_numbers(make_annuli_only(), 6)
        for m in range(1, 7):
            assert table.row(m).counts == () and table.nielsen(m) == 0
        assert table.remainder == ()

    def test_separating_twist_constant_two(self):
        table = indexed_orbit_numbers(make_separating_twist(), 5)
        for m in range(1, 6):
            assert table.nielsen(m) == 2
            assert dict(table.row(m).counts) == {-1: 2}

    def test_star_table(self):
        table = indexed_orbit_numbers(make_star(), 6)
        assert [table.nielsen(m) for m in range(1, 7)] == [0, 0, 2, 0, 0, 2]
        assert dict(table.row(3).counts) == {-1: 2}

    @pytest.mark.parametrize("factory", ALL_FIXTURES)
    def test_nielsen_is_total_count(self, factory):
        table = indexed_orbit_numbers(factory(), 6)
        for row in table.rows:
            assert row.nielsen == sum(c for _, c in row.counts)

    def test_row_constructor_guards(self):
        with pytest.raises(DecompositionError):
            OrbitRow(1, ((0, 2),), 2)
        with pytest.raises(DecompositionError):
            OrbitRow(1, ((-2, 1),), 2)
        with pytest.raises(DecompositionError):
            OrbitRow(1, ((-2, -1),), -1)

    def test_from_counts_and_json(self):
        table = IndexedOrbitTable.from_counts(
            {1: {-1: 2, 3: 0}, 2: {-2: 1}}, remainder=("P",))
        assert table.row(1).counts == ((-1, 2),)
        assert table.nielsen(2) == 1
        assert IndexedOrbitTable.from_json(table.to_json()) == table

    def test_orbit_counts_divide_class_counts(self):
        nt = make_swap()
        table = indexed_orbit_numbers(nt, 6)
        for m in range(1, 7):
            classes = len(fixed_point_classes(nt, m))
            orbits = table.nielsen(m)
            assert orbits <= classes
            if classes:
                assert orbits >= 1


# ---------------------------------------------------------------------------
# growth estimates
# ---------------------------------------------------------------------------

class TestGrowthEstimates:
    def anosov_table(self, upto=30):
        a = ((2, 1), (1, 1))
        return IndexedOrbitTable.from_counts(
            {m: {-1: det_power_minus_identity(a, m)} for m in range(1, upto + 1)})

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
        table = IndexedOrbitTable.from_counts({m: {} for m in range(1, 6)})
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
# decomposition graphs
# ---------------------------------------------------------------------------

class TestGraphs:
    def test_fixed_pa_with_self_annulus(self):
        nt = make_single_pa(twist=F(1, 2))
        g = nt_graph(nt)
        assert g.vertices == ("P", "T")
        assert sorted(g.edges) == ["end:x1", "end:x2"]
        assert g.initial("end:x1") == "T" and g.terminal("end:x1") == "P"
        # trivial action: the quotient is the same graph
        assert geometric_graph(nt) == g

    def test_empty_reduction_part(self):
        g = nt_graph(make_closed_pa(()))
        assert g.vertices == ("P",) and g.edges == ()

    def test_swap_quotient(self):
        nt = make_swap()
        g, q = nt_graph(nt), geometric_graph(nt)
        assert g.vertices == ("A", "P", "Q")
        assert sorted(g.edges) == ["end:cP", "end:cQ"]
        assert q.vertices == ("A", "P") and q.edges == ("end:cP",)
        assert q.as_edge_list() == (("end:cP", "A", "P"),)

    def test_automorphism(self):
        auto = graph_automorphism(make_swap())
        assert auto == {"P": "Q", "Q": "P", "A": "A",
                        "end:cP": "end:cQ", "end:cQ": "end:cP"}

    def test_star_quotient_sizes(self):
        nt = make_star()
        g, q = nt_graph(nt), geometric_graph(nt)
        assert len(g.vertices) == 7 and len(g.edges) == 6
        assert len(q.vertices) == 3 and len(q.edges) == 2

    def test_five_cases_multigraph(self):
        g = as_multigraph(nt_graph(make_five_cases()))
        assert g.number_of_edges("A2", "P") == 2
        assert g.number_of_edges("A1", "P") == 1
        assert g.number_of_edges("A1", "E") == 1

    def test_retraction_law_validation(self):
        with pytest.raises(DecompositionError, match="retraction"):
            DecompositionGraph(("a", "b"), {"a": "b", "b": "a"},
                               {"a": "a", "b": "b"},
                               {"a": "k", "b": "k"})
        with pytest.raises(DecompositionError, match="vertex image"):
            DecompositionGraph(("a", "b"), {"a": "a", "b": "a"},
                               {"a": "a", "b": "b"},
                               {"a": "k", "b": "k"})
        with pytest.raises(DecompositionError, match="every element"):
            DecompositionGraph(("a", "b"), {"a": "a"},
                               {"a": "a", "b": "b"},
                               {"a": "k", "b": "k"})

    def test_kinds_required(self):
        with pytest.raises(DecompositionError, match="kind"):
            DecompositionGraph(("a",), {"a": "a"}, {"a": "a"}, {})

    def test_json(self):
        g = nt_graph(make_swap())
        data = g.to_json()
        assert sorted(data["elements"]) == sorted(g.elements)
        assert data["d0"]["end:cP"] == "A"


# ---------------------------------------------------------------------------
# relabeling invariance
# ---------------------------------------------------------------------------

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
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("ignore")
            dev = deviation(nt)
        for _ in range(25):
            renamed = relabel(nt, *random_relabeling(nt, rng))
            renamed.validate()
            other = indexed_orbit_numbers(renamed, 6)
            assert other.rows == table.rows
            assert len(other.remainder) == len(table.remainder)
            assert dilatation(renamed) == dil
            with w.catch_warnings():
                w.simplefilter("ignore")
                assert deviation(renamed) == dev
            assert graphs_isomorphic(nt_graph(renamed), nt_graph(nt))
            assert graphs_isomorphic(geometric_graph(renamed),
                                     geometric_graph(nt))

    def test_composing_with_fixture_automorphism(self):
        nt = make_swap()
        swapped = relabel(nt, {"P": "Q", "Q": "P"}, {"cP": "cQ", "cQ": "cP"})
        swapped.validate()
        assert indexed_orbit_numbers(swapped, 6).rows == \
            indexed_orbit_numbers(nt, 6).rows
        assert graphs_isomorphic(nt_graph(swapped), nt_graph(nt))
        # circle ownership follows the renaming, so the quotient coincides
        assert geometric_graph(swapped) == geometric_graph(nt)

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
        assert NTDecomposition.from_json(nt.to_json()) == nt

    def test_json_is_plain_data(self):
        import json
        for factory in ALL_FIXTURES:
            json.dumps(factory().to_json())

    def test_undeclared_orbits_distinct_from_empty(self):
        declared = make_closed_pa(())
        undeclared = NTDecomposition(
            (bad_piece(declared.pieces[0], orbits=None),), (), {"P": "P"}, {})
        assert "orbits" in declared.to_json()["pieces"][0]
        assert "orbits" not in undeclared.to_json()["pieces"][0]
        assert NTDecomposition.from_json(undeclared.to_json()) == undeclared
