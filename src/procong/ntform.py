"""Symbolic calculus for Nielsen-Thurston normal forms.

A decomposition fixture records the pieces of a surface self-map in
normal form: periodic and pseudo-Anosov vertex pieces, reduction
annuli with fractional twist rates, the induced permutation on pieces
and boundary circles, and declared singularity or marked-point orbits.
On top of validated fixtures the module computes the split order,
exact dilatation and deviation, fixed-class index tables for
iterates, indexed orbit counts with Nielsen numbers, and shearing
degrees from slope pairs.

All arithmetic is exact.  Stretch factors are algebraic numbers given
by an integer polynomial together with a rational interval that a Sturm
count certifies to isolate one root; comparisons and decimal rendering
bisect it by sign tests, never through floats.  A stretch factor keeps
each decimal rendering, and a decomposition the orbit-count rows of one
period of its iterates, so neither is derived twice.
"""

from __future__ import annotations

import decimal
import warnings
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence, Tuple, Union

from .kernel import LaurentPolynomial, laurent_gcd
from .record import Record


class DecompositionError(ValueError):
    """A decomposition fixture violates a structural requirement."""


class OrbitDataIncompleteError(DecompositionError):
    """A piece with pseudo-Anosov dynamics is fixed by the requested
    iterate but its interior orbit data was never declared."""


# ---------------------------------------------------------------------------
# exact univariate polynomial helpers (dense integer/rational coefficients)
# ---------------------------------------------------------------------------

def _derivative(p: LaurentPolynomial) -> LaurentPolynomial:
    return LaurentPolynomial({e - 1: e * c for e, c in p.terms.items() if e})


def _squarefree(p: LaurentPolynomial) -> LaurentPolynomial:
    g = laurent_gcd(p, _derivative(p))
    if g.degree == 0:
        return p
    return p.exact_divide(g)


def _cleared(p: LaurentPolynomial) -> Tuple[int, ...]:
    """Ascending integer coefficients of p (valuation >= 0) times the
    positive lcm of their denominators: p up to a positive factor."""
    coeffs = [Fraction(p.coefficient(e)) for e in range(p.degree + 1)]
    denom = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (denom // c.denominator) for c in coeffs)


def _sign_at(coeffs: Tuple[int, ...], x: Fraction) -> int:
    """Sign of sum c_i x^i at x = a/b, read off the integer
    sum c_i a^i b^(d-i) (Horner's rule; b > 0 keeps the sign)."""
    a, b = x.numerator, x.denominator
    value, b_power = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        b_power *= b
        value = value * a + c * b_power
    return (value > 0) - (value < 0)


def _sturm_chain(p: LaurentPolynomial) -> Tuple[Tuple[int, ...], ...]:
    """The Sturm chain of p, each member cleared of denominators (only
    the signs of its members are ever read)."""
    chain = [p, _derivative(p)]
    while not chain[-1].is_zero():
        _, r = chain[-2].divmod_poly(chain[-1])
        chain.append(-r)
    chain.pop()
    return tuple(_cleared(q) for q in chain)


def _sign_variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _roots_between(chain, low: Fraction, high: Fraction) -> int:
    """Distinct real roots in the half-open interval (low, high]."""
    return _sign_variations(chain, low) - _sign_variations(chain, high)


# ---------------------------------------------------------------------------
# stretch factors: exact algebraic numbers above one
# ---------------------------------------------------------------------------

class StretchFactor(Record):
    """An algebraic number above one, held as an integer polynomial with an
    isolating rational interval containing exactly one root.  The endpoints
    are ints or Fractions, stored as Fractions, so no float enters."""

    def __init__(self, polynomial: Tuple[int, ...], low: Fraction,
                 high: Fraction):
        if not all(type(end) in (int, Fraction) for end in (low, high)):
            raise TypeError("stretch factor interval endpoints must be ints "
                            f"or Fractions, got {low!r} and {high!r}")
        low, high = Fraction(low), Fraction(high)
        coeffs = tuple(polynomial)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        shift = 0
        while shift < len(coeffs) and coeffs[shift] == 0:
            shift += 1
        coeffs = coeffs[shift:]
        if len(coeffs) < 2:
            raise DecompositionError(
                "stretch factor needs a nonconstant defining polynomial")
        content = 0
        for c in coeffs:
            content = gcd(content, c)
        if coeffs[-1] < 0:
            content = -content
        coeffs = tuple(c // content for c in coeffs)
        if not 1 <= low < high:
            raise DecompositionError(
                "stretch factor interval must satisfy 1 <= low < high")
        sf = _squarefree(LaurentPolynomial.from_coefficients(coeffs))
        chain = _sturm_chain(sf)
        at_low = _sign_at(chain[0], low)
        if at_low == 0 or _sign_at(chain[0], high) == 0:
            raise DecompositionError(
                "stretch factor interval endpoints must not be roots")
        if _roots_between(chain, low, high) != 1:
            raise DecompositionError(
                "stretch factor interval must isolate exactly one root")
        # _renderings: digits -> the rendering `approx` certified
        self.__dict__.update(polynomial=coeffs, low=low, high=high, _sf=sf,
                             _chain=chain, _low_positive=at_low > 0,
                             _renderings={})

    # -- interval refinement -----------------------------------------------

    def _halved(self, low: Fraction, high: Fraction):
        """The half of (low, high) that holds the root, validating nothing:
        the root is simple, so the squarefree part keeps its sign at
        `self.low` up to the root (`self._chain[0]` is that part, cleared
        of denominators).  A midpoint that is the root gives (mid, mid)."""
        mid = (low + high) / 2
        sign = _sign_at(self._chain[0], mid)
        if sign == 0:
            return mid, mid
        return (mid, high) if (sign > 0) == self._low_positive else (low, mid)

    def refined(self) -> "StretchFactor":
        """Shrink the isolating interval (at least by half)."""
        low, high = self._halved(self.low, self.high)
        if low == high:
            # the midpoint is the root: isolate it again with rational ends
            mid, eps, sf = low, (self.high - self.low) / 8, self._chain[0]
            while (_sign_at(sf, mid - eps) == 0 or _sign_at(sf, mid + eps) == 0
                   or _roots_between(self._chain, mid - eps, mid + eps) != 1):
                eps /= 2
            low, high = mid - eps, mid + eps
        return StretchFactor(self.polynomial, low, high)

    # -- exact comparisons -------------------------------------------------

    def algebraic_equal(self, other: "StretchFactor") -> bool:
        g = laurent_gcd(self._sf, other._sf)
        if g.degree == 0:
            return False
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low >= high:
            return False
        return _roots_between(_sturm_chain(g), low, high) >= 1

    def compare(self, other: "StretchFactor") -> int:
        """-1, 0, or 1 by the represented real values."""
        if self.algebraic_equal(other):
            return 0
        a, b = (self.low, self.high), (other.low, other.high)
        while not (a[1] < b[0] or b[1] < a[0]):
            a, b = self._halved(*a), other._halved(*b)
        return -1 if a[1] < b[0] else 1

    # -- rendering ---------------------------------------------------------

    def approx(self, digits: int = 12) -> str:
        """Decimal rendering to the given significant digits, certified by
        refining the isolating interval once per digit count: the factor
        keeps each rendering."""
        if digits not in self._renderings:
            target = Fraction(1, 10 ** (digits + 2))
            low, high = self.low, self.high
            while high - low > low * target:
                low, high = self._halved(low, high)
            mid = (low + high) / 2
            with decimal.localcontext() as ctx:
                ctx.prec = digits
                value = (decimal.Decimal(mid.numerator)
                         / decimal.Decimal(mid.denominator))
            self._renderings[digits] = str(value)
        return self._renderings[digits]


class Dilatation(Record):
    """Maximal per-application stretch of the pseudo-Anosov part (the value
    one is encoded by a missing factor), together with the split order.
    Two dilatations are equal when their factors are the same real number;
    the split order takes no part."""

    def __init__(self, factor: Optional[StretchFactor], split_order: int):
        self.__dict__.update(factor=factor, split_order=split_order)

    def __eq__(self, other):
        if not isinstance(other, Dilatation):
            return NotImplemented
        if self.factor is None or other.factor is None:
            return self.factor is None and other.factor is None
        return self.factor.algebraic_equal(other.factor)

    __hash__ = None

    def approx(self, digits: int = 12) -> str:
        return "1" if self.factor is None else self.factor.approx(digits)


# ---------------------------------------------------------------------------
# decomposition data
# ---------------------------------------------------------------------------

PERIODIC = "periodic"
PSEUDO_ANOSOV = "pseudoAnosov"


class InteriorOrbit(Record):
    """A declared orbit of interior points.

    With a prong count the points are singularities (or marked regular
    points, prong count two) of the invariant foliations; `rotation` is the
    prong rotation of the first-return map.  Without a prong count the
    points are isolated elliptic or parabolic fixed points of the
    first-return map and always carry index one.
    """

    def __init__(self, name: str, size: int, prongs: Optional[int] = None,
                 rotation: int = 0):
        self.__dict__.update(name=name, size=size, prongs=prongs,
                             rotation=rotation)


class VertexPiece(Record):
    """A periodic or pseudo-Anosov piece.

    `circles` lists the piece's boundary circles; a circle not claimed by
    any annulus end lies on the boundary of the ambient surface.  For
    pseudo-Anosov pieces `boundary_singularities` gives, per circle, the
    number of foliation singular points sitting on it, and `orbits` is the
    declared interior orbit data (None means undeclared, as opposed to
    declared empty).  `period` is the order of the first-return map of a
    periodic piece.
    """

    def __init__(self, name: str, kind: str, euler: int,
                 circles: Tuple[str, ...] = (),
                 boundary_singularities: Tuple[int, ...] = (),
                 stretch: Optional[StretchFactor] = None,
                 orbits: Optional[Tuple[InteriorOrbit, ...]] = None,
                 period: int = 1):
        self.__dict__.update(
            name=name, kind=kind, euler=euler, circles=tuple(circles),
            boundary_singularities=tuple(boundary_singularities),
            stretch=stretch, orbits=None if orbits is None else tuple(orbits),
            period=period)

    def singular_points(self, circle: str) -> int:
        return self.boundary_singularities[self.circles.index(circle)]


class ReductionAnnulus(Record):
    """A reduction annulus with its per-application fractional twist rate.

    Each entry of `ends` is the boundary circle of a vertex piece the
    annulus is glued to, or None when that end lies on the boundary of the
    ambient surface.
    """

    def __init__(self, name: str, twist: Fraction,
                 ends: Tuple[Optional[str], Optional[str]],
                 orbits: Tuple[InteriorOrbit, ...] = ()):
        self.__dict__.update(name=name, twist=twist, ends=tuple(ends),
                             orbits=tuple(orbits))


def _as_sorted_pairs(mapping, field: str) -> Tuple[Tuple[str, str], ...]:
    """A map between names, given as a mapping or as (name, name) pairs,
    which may not map a name twice."""
    pairs = tuple(sorted(tuple(pair) for pair in (
        mapping.items() if isinstance(mapping, Mapping) else mapping)))
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if a == b:
            raise ValueError(f"{field} maps {a} more than once")
    return pairs


def _orbit(start: str, perm: Mapping[str, str]) -> Tuple[str, ...]:
    out = [start]
    current = perm[start]
    while current != start:
        out.append(current)
        current = perm[current]
    return tuple(out)


def _orbit_table(names, perm: Mapping[str, str]) -> dict:
    """Each name's orbit under perm, led by the member that comes first in
    `names` (the orbit's leader)."""
    table = {}
    for name in names:
        if name not in table:
            orbit = _orbit(name, perm)
            table.update(dict.fromkeys(orbit, orbit))
    return table


class NTDecomposition(Record):
    """A Nielsen-Thurston decomposition fixture: vertex pieces, reduction
    annuli, and the induced permutations on pieces and boundary circles.
    Validation keeps the lookup and orbit tables every consumer reads, and
    the period of the orbit-count rows (`_row_period`); the rows computed
    so far are kept too (see `indexed_orbit_numbers`)."""

    def __init__(self, pieces: Tuple[VertexPiece, ...],
                 annuli: Tuple[ReductionAnnulus, ...],
                 piece_map: Tuple[Tuple[str, str], ...],
                 circle_map: Tuple[Tuple[str, str], ...]):
        self.__dict__.update(
            pieces=tuple(pieces), annuli=tuple(annuli),
            piece_map=_as_sorted_pairs(piece_map, "piece_map"),
            circle_map=_as_sorted_pairs(circle_map, "circle_map"))
        self.validate()

    # -- lookups -----------------------------------------------------------

    @property
    def piece_permutation(self) -> dict:
        return dict(self.piece_map)

    @property
    def circle_permutation(self) -> dict:
        return dict(self.circle_map)

    def piece(self, name: str) -> VertexPiece:
        return self._pieces[name]

    def annulus(self, name: str) -> ReductionAnnulus:
        return self._annuli[name]

    # -- validation --------------------------------------------------------

    def validate(self) -> "NTDecomposition":
        """Raise DecompositionError unless the data is consistent; return
        self.  Construction calls this, so every instance is valid."""
        pieces = {p.name: p for p in self.pieces}
        annuli = {a.name: a for a in self.annuli}
        all_names = [*pieces, *annuli]
        if len(set(all_names)) != len(self.pieces) + len(self.annuli):
            raise DecompositionError("piece and annulus names must be distinct")

        owners = {}
        for p in self.pieces:
            if p.kind not in (PERIODIC, PSEUDO_ANOSOV):
                raise DecompositionError(
                    f"unknown piece kind {p.kind!r}: expected "
                    f"{PERIODIC!r} or {PSEUDO_ANOSOV!r}")
            if p.euler >= 0:
                raise DecompositionError(
                    "vertex pieces must have negative Euler characteristic")
            if p.period < 1:
                raise DecompositionError("piece period must be positive")
            for c in p.circles:
                if c in owners:
                    raise DecompositionError(
                        f"boundary circle {c} belongs to more than one piece")
                owners[c] = p
            if p.kind == PSEUDO_ANOSOV:
                if p.stretch is None:
                    raise DecompositionError(
                        f"pseudo-Anosov piece {p.name} needs a stretch factor")
                if len(p.boundary_singularities) != len(p.circles):
                    raise DecompositionError(
                        f"piece {p.name} needs one boundary singularity count "
                        "per circle")
                if any(c < 1 for c in p.boundary_singularities):
                    raise DecompositionError(
                        "boundary singularity counts must be at least one")
                if p.period != 1:
                    raise DecompositionError(
                        "the period field is reserved for periodic pieces")
            else:
                if p.stretch is not None:
                    raise DecompositionError(
                        f"periodic piece {p.name} must not carry a stretch factor")
                if p.boundary_singularities:
                    raise DecompositionError(
                        "boundary singularity counts only apply to "
                        "pseudo-Anosov pieces")

        attached = {}
        for a in self.annuli:
            if len(a.ends) != 2:
                raise DecompositionError(
                    f"annulus {a.name} needs exactly two ends")
            for end in a.ends:
                if end is None:
                    continue
                if end not in owners:
                    raise DecompositionError(
                        f"annulus {a.name} attaches to unknown circle {end}")
                if end in attached:
                    raise DecompositionError(
                        f"circle {end} is claimed by more than one annulus end")
                attached[end] = a
            kinds = tuple(None if end is None else owners[end].kind
                          for end in a.ends)
            if PSEUDO_ANOSOV not in kinds and a.twist == 0:
                raise DecompositionError(
                    f"twist-free annulus {a.name} must touch the pseudo-Anosov "
                    "part; otherwise some iterate restricts to the identity "
                    "on it")

        pmap = self.piece_permutation
        cmap = self.circle_permutation
        if sorted(pmap) != sorted(all_names) or sorted(pmap.values()) != sorted(all_names):
            raise DecompositionError(
                "the piece map must permute the piece and annulus names")
        if sorted(cmap) != sorted(owners) or sorted(cmap.values()) != sorted(owners):
            raise DecompositionError(
                "the circle map must permute the boundary circles")
        orbits = _orbit_table(all_names, pmap)
        circle_orbits = _orbit_table(owners, cmap)

        for p in self.pieces:
            if pmap[p.name] not in pieces:
                raise DecompositionError(
                    f"piece_map sends piece {p.name} to annulus {pmap[p.name]}")
            image = pieces[pmap[p.name]]
            if image.kind != p.kind or image.euler != p.euler \
                    or image.period != p.period:
                raise DecompositionError(
                    f"piece {p.name} and its image differ in kind, Euler "
                    "characteristic, or period")
            if sorted(cmap[c] for c in p.circles) != sorted(image.circles):
                raise DecompositionError(
                    f"the circle map does not carry the circles of {p.name} "
                    "onto those of its image")
            if p.kind == PSEUDO_ANOSOV:
                if not p.stretch.algebraic_equal(image.stretch):
                    raise DecompositionError(
                        "stretch factors must agree along piece orbits")
                for c in p.circles:
                    if p.singular_points(c) != image.singular_points(cmap[c]):
                        raise DecompositionError(
                            "boundary singularity counts must agree along "
                            "circle orbits")
        for a in self.annuli:
            image = annuli[pmap[a.name]]
            if a.twist != image.twist:
                raise DecompositionError(
                    "twist rates must agree along annulus orbits")
            mapped = sorted((cmap[e] if e is not None else "") for e in a.ends)
            target = sorted((e if e is not None else "") for e in image.ends)
            if mapped != target:
                raise DecompositionError(
                    f"the circle map does not respect the ends of annulus {a.name}")

        orbit_names = set()
        for host in list(self.pieces) + list(self.annuli):
            hosted = host.orbits or ()
            host_orbit = len(orbits[host.name])
            for o in hosted:
                if o.name in orbit_names:
                    raise DecompositionError(
                        f"interior orbit name {o.name} is declared twice")
                orbit_names.add(o.name)
                if o.size < 1:
                    raise DecompositionError("interior orbit sizes must be positive")
                if o.size % host_orbit:
                    raise DecompositionError(
                        f"interior orbit {o.name} must spread evenly over the "
                        "orbit of its piece")
                if isinstance(host, VertexPiece) and host.kind == PSEUDO_ANOSOV:
                    if o.prongs is None:
                        raise DecompositionError(
                            "interior orbits on pseudo-Anosov pieces need a "
                            "prong count")
                    if o.prongs != 2 and o.prongs < 3:
                        raise DecompositionError(
                            "interior prong counts must be at least three, or "
                            "two for marked regular points")
                    if not 0 <= o.rotation < o.prongs:
                        raise DecompositionError(
                            "prong rotations must be reduced modulo the prong "
                            "count")
                else:
                    if o.prongs is not None:
                        raise DecompositionError(
                            "prong counts only apply to orbits on "
                            "pseudo-Anosov pieces")
                    if isinstance(host, VertexPiece):
                        if (host_orbit * host.period) % o.size:
                            raise DecompositionError(
                                f"interior orbit {o.name} outlives the period "
                                "of its periodic piece")
        self.__dict__.update(_pieces=pieces, _annuli=annuli, _owners=owners,
                             _attached=attached, _orbits=orbits,
                             _circle_orbits=circle_orbits)
        # _rows: iterate r -> its orbit-count row, filled by
        # indexed_orbit_numbers
        self.__dict__.update(_row_period=_row_period(self), _rows={})
        return self


def _row_period(nt: NTDecomposition) -> int:
    """A period of the essential class families in the iterate m: the lcm
    of every modulus `_essential_families` reads m by.  Those are each
    piece's orbit length times its period (pointwise fixed pieces, fixed
    pseudo-Anosov pieces), each circle orbit length and each annulus orbit
    length (fixed circles and annuli), the denominator of each twist (whole
    twists at m), and each interior orbit's size, times its prong count
    when it has one (fixed points, and the prong rotation of m / size)."""
    return lcm(*(len(nt._orbits[p.name]) * p.period for p in nt.pieces),
               *(len(orbit) for orbit in nt._circle_orbits.values()),
               *(len(nt._orbits[a.name]) for a in nt.annuli),
               *(a.twist.denominator for a in nt.annuli),
               *(o.size * (o.prongs or 1)
                 for host in (*nt.pieces, *nt.annuli)
                 for o in host.orbits or ()))


# ---------------------------------------------------------------------------
# split order, dilatation, deviation, iterates
# ---------------------------------------------------------------------------

def split_order(nt: NTDecomposition) -> int:
    """Smallest power whose iterate fixes every periodic piece and every
    boundary circle of the pseudo-Anosov part."""
    return lcm(*(len(nt._orbits[p.name]) for p in nt.pieces),
               *(len(nt._circle_orbits[c]) for p in nt.pieces
                 if p.kind == PSEUDO_ANOSOV for c in p.circles))


def dilatation(nt: NTDecomposition) -> Dilatation:
    """Maximal stretch factor over the pseudo-Anosov pieces (one if there
    are none), bundled with the split order.  Stretch factors agree along
    piece orbits, so only orbit leaders are compared."""
    best: Optional[StretchFactor] = None
    for p in nt.pieces:
        if p.kind != PSEUDO_ANOSOV or nt._orbits[p.name][0] != p.name:
            continue
        if best is None or p.stretch.compare(best) > 0:
            best = p.stretch
    return Dilatation(best, split_order(nt))


def deviation(nt: NTDecomposition) -> Fraction:
    """Maximal absolute twist rate over the reduction annuli.  Defined to be
    zero when the pseudo-Anosov part is empty; a warning flags fixtures
    where nonzero twisting is then being discarded."""
    if not any(p.kind == PSEUDO_ANOSOV for p in nt.pieces):
        if any(a.twist != 0 for a in nt.annuli):
            warnings.warn(
                "deviation is defined to be zero when the pseudo-Anosov part "
                "is empty, although nonzero twist rates are present",
                stacklevel=2)
        return Fraction(0)
    return max((abs(a.twist) for a in nt.annuli), default=Fraction(0))


# ---------------------------------------------------------------------------
# fixed point classes and indexed orbit counts
# ---------------------------------------------------------------------------

CASE_NAMES = {
    1: "elliptic or parabolic point",
    2: "prong singularity or saddle",
    3: "crown circle",
    4: "crown annulus",
    5: "crown hyperbolic subsurface",
}


class FixedClassRecord(Record):
    """One essential fixed class of the m-th iterate with its index."""

    def __init__(self, iterate: int, case: int, carrier: str, index: int):
        legal = {1: index == 1,
                 2: index == 1 or index <= -1,
                 3: index <= -1,
                 4: index <= -2,
                 5: index <= -1}
        if case not in legal:
            raise DecompositionError(f"unknown fixed class case {case}")
        if not legal[case]:
            raise DecompositionError(
                f"index {index} is outside the legal range of case "
                f"{case} ({CASE_NAMES[case]})")
        self.__dict__.update(iterate=iterate, case=case, carrier=carrier,
                             index=index)


class _ClassFamily(Record):
    """One orbit of fixed classes: `classes` equal-index classes permuted
    transitively by the map."""

    def __init__(self, case: int, index: int, classes: int, carrier: str):
        self.__dict__.update(case=case, index=index, classes=classes,
                             carrier=carrier)


def _essential_families(nt: NTDecomposition, m: int):
    """The orbits of essential fixed classes of the m-th iterate.  Each
    orbit of pieces, annuli or circles is visited once, at its leader."""
    orbits, circle_orbits = nt._orbits, nt._circle_orbits

    def annulus_fixed(a: ReductionAnnulus) -> bool:
        return m % len(orbits[a.name]) == 0 and all(
            end is None or m % len(circle_orbits[end]) == 0 for end in a.ends)

    def pointwise_fixed(p: VertexPiece) -> bool:
        return p.kind == PERIODIC and m % (len(orbits[p.name]) * p.period) == 0

    def owners(a: ReductionAnnulus):
        return [None if e is None else nt._owners[e] for e in a.ends]

    families = []
    absorbed = set()

    # crown hyperbolic subsurfaces: pointwise fixed periodic pieces plus
    # their adjacent annuli that restrict to the identity at this iterate
    for p in nt.pieces:
        orbit = orbits[p.name]
        if orbit[0] != p.name or not pointwise_fixed(p):
            continue
        crown = 0
        joined = []
        for a in nt.annuli:
            if not (annulus_fixed(a) and a.twist * m == 0):
                continue
            ends = owners(a)
            if not any(owner is p for owner in ends):
                continue
            absorbed.update(orbits[a.name])
            joined.append(a.name)
            for end, owner in zip(a.ends, ends):
                if owner is not None and owner.kind == PSEUDO_ANOSOV:
                    crown += owner.singular_points(end)
        carrier = f"periodic piece {p.name}"
        if joined:
            carrier += " with annuli " + ", ".join(sorted(joined))
        families.append(_ClassFamily(5, p.euler - crown, len(orbit), carrier))

    # reduction annuli at integral twist: crown annuli between two
    # pseudo-Anosov pieces, or crown circles on their pseudo-Anosov side
    for a in nt.annuli:
        orbit = orbits[a.name]
        if (orbit[0] != a.name or a.name in absorbed or not annulus_fixed(a)
                or (a.twist * m).denominator != 1):
            continue
        ends = owners(a)
        kinds = [None if o is None else o.kind for o in ends]
        if kinds.count(PSEUDO_ANOSOV) == 2:
            total = sum(owner.singular_points(end)
                        for end, owner in zip(a.ends, ends))
            families.append(_ClassFamily(
                4, -total, len(orbit), f"reduction annulus {a.name}"))
        elif PSEUDO_ANOSOV in kinds:
            side = kinds.index(PSEUDO_ANOSOV)
            circle = a.ends[side]
            count = ends[side].singular_points(circle)
            families.append(_ClassFamily(
                3, -count, len(orbit), f"boundary circle {circle}"))

    # crown circles on the ambient boundary of the pseudo-Anosov part
    for p in nt.pieces:
        if p.kind != PSEUDO_ANOSOV:
            continue
        for c in p.circles:
            orbit = circle_orbits[c]
            if orbit[0] != c or c in nt._attached or m % len(orbit):
                continue
            families.append(_ClassFamily(
                3, -p.singular_points(c), len(orbit), f"boundary circle {c}"))

    # declared interior orbits
    for host in list(nt.pieces) + list(nt.annuli):
        for o in host.orbits or ():
            if m % o.size:
                continue
            if o.prongs is None:
                if isinstance(host, VertexPiece):
                    if pointwise_fixed(host):
                        continue
                elif annulus_fixed(host) and (host.twist * m).denominator == 1:
                    # the whole annulus is (part of) a crown class here
                    continue
                families.append(_ClassFamily(
                    1, 1, o.size, f"interior orbit {o.name}"))
            else:
                turns = (o.rotation * (m // o.size)) % o.prongs
                index = 1 if turns else 1 - o.prongs
                families.append(_ClassFamily(
                    2, index, o.size, f"interior orbit {o.name}"))

    # completeness: a fixed pseudo-Anosov piece without declared interior
    # orbit data cannot be tabulated faithfully
    for p in nt.pieces:
        orbit = orbits[p.name]
        if p.kind != PSEUDO_ANOSOV or orbit[0] != p.name or m % len(orbit):
            continue
        if all(nt._pieces[name].orbits is None for name in orbit):
            raise OrbitDataIncompleteError(
                f"pseudo-Anosov piece {p.name} is fixed by iterate {m} but "
                "its interior orbit data is undeclared")
    return families


def fixed_point_classes(nt: NTDecomposition, m: int) -> Tuple[FixedClassRecord, ...]:
    """All essential fixed classes of the m-th iterate, one record per
    class (classes in one orbit repeat the shared index)."""
    if m < 1:
        raise DecompositionError("iterate exponent must be a positive integer")
    records = []
    for family in _essential_families(nt, m):
        for j in range(family.classes):
            carrier = family.carrier
            if family.classes > 1:
                carrier += f" (class {j + 1} of {family.classes})"
            records.append(FixedClassRecord(m, family.case, carrier, family.index))
    return tuple(records)


class OrbitRow(Record):
    """Indexed orbit counts of one iterate: pairs (index, count), ascending
    by index, plus the Nielsen number."""

    def __init__(self, counts: Tuple[Tuple[int, int], ...], nielsen: int):
        self.__dict__.update(counts=counts, nielsen=nielsen)

    @staticmethod
    def from_counts(counts: Mapping[int, int]) -> "OrbitRow":
        """The row of {index: count}, zero counts dropped; the Nielsen
        number is the sum of the counts."""
        pairs = tuple((i, c) for i, c in sorted(counts.items()) if c)
        if any(i == 0 for i, _ in pairs):
            raise DecompositionError("orbit tables only keep nonzero indices")
        if any(c < 0 for _, c in pairs):
            raise DecompositionError("orbit counts must be nonnegative")
        return OrbitRow(pairs, sum(c for _, c in pairs))


class IndexedOrbitTable(Record):
    """Indexed orbit counts for the iterates 1..len(rows): iterate m has
    row m - 1, and equal rows may be one object.  `remainder` names the
    pieces whose interior regular orbits beyond the declared data are
    model-dependent."""

    def __init__(self, rows: Tuple[OrbitRow, ...],
                 remainder: Tuple[str, ...] = ()):
        self.__dict__.update(rows=rows, remainder=remainder)


# the largest iterate bound of an indexed orbit table
ITERATE_LIMIT = 10_000


def indexed_orbit_numbers(nt: NTDecomposition, upto: int) -> IndexedOrbitTable:
    """Orbit-class counts by index and Nielsen numbers for all iterates up
    to the bound; each orbit of fixed classes counts once.  The rows repeat
    with the period P of `_row_period`, so iterate m reads row
    ((m - 1) mod P) + 1.  Only rows 1..min(upto, P) are computed and
    checked, in order, each once per decomposition, which keeps them; the
    table repeats those row objects.  The bound is at most
    `ITERATE_LIMIT`: the table holds a row per iterate."""
    if upto < 1:
        raise DecompositionError("the iterate bound must be a positive integer")
    if upto > ITERATE_LIMIT:
        raise DecompositionError(
            f"the iterate bound must be at most {ITERATE_LIMIT}, got {upto}")
    period, rows = nt._row_period, nt._rows
    for r in range(1, min(upto, period) + 1):
        if r not in rows:
            counts = {}
            for family in _essential_families(nt, r):
                counts[family.index] = counts.get(family.index, 0) + 1
            rows[r] = OrbitRow.from_counts(counts)
    cycle = tuple(rows[r] for r in range(1, min(upto, period) + 1))
    whole, part = divmod(upto, period)
    leading = [nt._orbits[p.name] for p in nt.pieces
               if p.kind == PSEUDO_ANOSOV and nt._orbits[p.name][0] == p.name]
    remainder = sorted(min(orbit) for orbit in leading if len(orbit) <= upto)
    return IndexedOrbitTable(cycle * whole + cycle[:part], tuple(remainder))


# ---------------------------------------------------------------------------
# shearing degrees from slope pairs
# ---------------------------------------------------------------------------

def shearing_from_slopes(g: Sequence[int], gstar: Sequence[int]
                         ) -> Union[int, str]:
    """Order of the quotient of the rank-two lattice by the sublattice the
    two slopes generate: the absolute determinant when nonzero, or
    "trivial" for parallel slopes."""
    bad = next((v for v in (*g, *gstar) if type(v) is not int), None)
    if bad is not None:
        raise ValueError(f"slope entry must be an integer, got {bad!r}")
    g, gstar = tuple(g), tuple(gstar)
    if len(g) != 2 or len(gstar) != 2:
        raise ValueError("slopes must be integer pairs")
    if g == (0, 0) or gstar == (0, 0):
        raise ValueError("slope vectors must be nonzero")
    det = g[0] * gstar[1] - g[1] * gstar[0]
    return abs(det) if det else "trivial"
