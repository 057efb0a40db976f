"""Symbolic calculus for Nielsen-Thurston normal forms.

A decomposition fixture records the pieces of a surface self-map in
normal form: periodic and pseudo-Anosov vertex pieces, reduction
annuli with fractional twist rates, the induced permutation on pieces
and boundary circles, and declared singularity or marked-point orbits.
On top of validated fixtures the module computes the split order,
exact dilatation and deviation, fixed-class index tables for
iterates, indexed orbit counts with Nielsen numbers, decomposition
graphs and their quotients, and shearing degrees from slope pairs.

All arithmetic is exact.  Stretch factors are algebraic numbers given
by an integer polynomial together with an isolating rational
interval; comparisons, powers, and decimal rendering go through
interval refinement with Sturm counts, never through floats.
"""

from __future__ import annotations

import decimal
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence, Tuple, Union

from .kernel import LaurentPolynomial, laurent_gcd


class DecompositionError(ValueError):
    """A decomposition fixture violates a structural requirement."""


class OrbitDataIncompleteError(DecompositionError):
    """A piece with pseudo-Anosov dynamics is fixed by the requested
    iterate but its interior orbit data was never declared."""


# ---------------------------------------------------------------------------
# exact univariate polynomial helpers (dense integer/rational coefficients)
# ---------------------------------------------------------------------------

def _poly(coeffs: Sequence) -> LaurentPolynomial:
    return LaurentPolynomial.from_coefficients(coeffs)


def _derivative(p: LaurentPolynomial) -> LaurentPolynomial:
    return LaurentPolynomial({e - 1: e * c for e, c in p.terms.items() if e})


def _squarefree(p: LaurentPolynomial) -> LaurentPolynomial:
    g = laurent_gcd(p, _derivative(p))
    if g.degree == 0:
        return p
    return p.exact_divide(g)


def _sturm_chain(p: LaurentPolynomial) -> Tuple[LaurentPolynomial, ...]:
    chain = [p, _derivative(p)]
    while not chain[-1].is_zero():
        _, r = chain[-2].divmod_poly(chain[-1])
        chain.append(-r)
    chain.pop()
    return tuple(chain)


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = p.evaluate(x)
        s = (v > 0) - (v < 0)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _roots_between(chain, low: Fraction, high: Fraction) -> int:
    """Distinct real roots in the half-open interval (low, high]."""
    return _sign_variations(chain, low) - _sign_variations(chain, high)


def _integer_coefficients(p: LaurentPolynomial) -> Tuple[int, ...]:
    """Primitive integer coefficient tuple (ascending) with positive lead."""
    deg = p.degree
    coeffs = [Fraction(p.coefficient(e)) for e in range(deg + 1)]
    denom = 1
    for c in coeffs:
        denom = lcm(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# stretch factors: exact algebraic numbers above one
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StretchFactor:
    """An algebraic number above one, held as an integer polynomial with an
    isolating rational interval containing exactly one root."""

    polynomial: Tuple[int, ...]
    low: Fraction
    high: Fraction

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.polynomial)
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
        object.__setattr__(self, "polynomial", coeffs)
        object.__setattr__(self, "low", Fraction(self.low))
        object.__setattr__(self, "high", Fraction(self.high))
        if not 1 <= self.low < self.high:
            raise DecompositionError(
                "stretch factor interval must satisfy 1 <= low < high")
        sf = _squarefree(_poly(coeffs))
        chain = _sturm_chain(sf)
        object.__setattr__(self, "_sf", sf)
        object.__setattr__(self, "_chain", chain)
        if sf.evaluate(self.low) == 0 or sf.evaluate(self.high) == 0:
            raise DecompositionError(
                "stretch factor interval endpoints must not be roots")
        if _roots_between(chain, self.low, self.high) != 1:
            raise DecompositionError(
                "stretch factor interval must isolate exactly one root")

    # -- interval refinement -----------------------------------------------

    def refined(self) -> "StretchFactor":
        """Shrink the isolating interval (at least by half)."""
        low, high, sf = self.low, self.high, self._sf
        mid = (low + high) / 2
        if sf.evaluate(mid) == 0:
            eps = (high - low) / 8
            while (sf.evaluate(mid - eps) == 0 or sf.evaluate(mid + eps) == 0
                   or _roots_between(self._chain, mid - eps, mid + eps) != 1):
                eps /= 2
            return StretchFactor(self.polynomial, mid - eps, mid + eps)
        if _roots_between(self._chain, low, mid) == 1:
            return StretchFactor(self.polynomial, low, mid)
        return StretchFactor(self.polynomial, mid, high)

    def refined_to(self, width: Fraction) -> "StretchFactor":
        out = self
        while out.high - out.low > width:
            out = out.refined()
        return out

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
        a, b = self, other
        while not (a.high < b.low or b.high < a.low):
            a, b = a.refined(), b.refined()
        return -1 if a.high < b.low else 1

    # -- algebra -----------------------------------------------------------

    def power(self, m: int) -> "StretchFactor":
        """The exact m-th power, with a fresh defining polynomial."""
        if m < 1:
            raise DecompositionError("power exponent must be a positive integer")
        if m == 1:
            return self
        coeffs = [Fraction(c) for c in self.polynomial]
        n = len(coeffs) - 1
        lead = coeffs[-1]
        monic = [c / lead for c in coeffs]
        elem = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            elem[k] = (-1) ** k * monic[n - k]
        power_sums = [Fraction(n)] + [Fraction(0)] * (n * m)
        for k in range(1, n * m + 1):
            total = Fraction(0)
            for i in range(1, min(k - 1, n) + 1):
                total += (-1) ** (i - 1) * elem[i] * power_sums[k - i]
            if k <= n:
                total += (-1) ** (k - 1) * k * elem[k]
            power_sums[k] = total
        new_elem = [Fraction(1)] + [Fraction(0)] * n
        for k in range(1, n + 1):
            total = Fraction(0)
            for i in range(1, k + 1):
                total += (-1) ** (i - 1) * new_elem[k - i] * power_sums[i * m]
            new_elem[k] = total / k
        raised = LaurentPolynomial(
            {n - k: (-1) ** k * new_elem[k] for k in range(n + 1)})
        ints = _integer_coefficients(_squarefree(raised))
        target = _poly(ints)
        chain = _sturm_chain(target)
        base = self
        while True:
            low, high = base.low ** m, base.high ** m
            if (target.evaluate(low) != 0 and target.evaluate(high) != 0
                    and _roots_between(chain, low, high) == 1):
                return StretchFactor(ints, low, high)
            base = base.refined()

    # -- rendering ---------------------------------------------------------

    def approx(self, digits: int = 12) -> str:
        """Decimal rendering to the given significant digits, certified by
        refining the isolating interval."""
        target = Fraction(1, 10 ** (digits + 2))
        s = self
        while s.high - s.low > s.low * target:
            s = s.refined()
        mid = (s.low + s.high) / 2
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            value = (decimal.Decimal(mid.numerator)
                     / decimal.Decimal(mid.denominator))
        return str(value)

    def to_json(self):
        return {"polynomial": list(self.polynomial),
                "interval": [str(self.low), str(self.high)]}

    @staticmethod
    def from_json(data) -> "StretchFactor":
        low, high = (Fraction(str(v)) for v in data["interval"])
        return StretchFactor(tuple(data["polynomial"]), low, high)


@dataclass(frozen=True, eq=False)
class Dilatation:
    """Maximal per-application stretch of the pseudo-Anosov part (the value
    one is encoded by a missing factor), together with the split order."""

    factor: Optional[StretchFactor]
    split_order: int

    def is_one(self) -> bool:
        return self.factor is None

    def __eq__(self, other):
        if not isinstance(other, Dilatation):
            return NotImplemented
        if self.factor is None or other.factor is None:
            return self.factor is None and other.factor is None
        return self.factor.algebraic_equal(other.factor)

    __hash__ = None

    def power(self, m: int) -> "Dilatation":
        if self.factor is None:
            return self
        return Dilatation(self.factor.power(m), self.split_order)

    def approx(self, digits: int = 12) -> str:
        return "1" if self.factor is None else self.factor.approx(digits)

    def to_json(self):
        return {"factor": None if self.factor is None else self.factor.to_json(),
                "split_order": self.split_order}


# ---------------------------------------------------------------------------
# decomposition data
# ---------------------------------------------------------------------------

PERIODIC = "periodic"
PSEUDO_ANOSOV = "pseudoAnosov"


@dataclass(frozen=True)
class InteriorOrbit:
    """A declared orbit of interior points.

    With a prong count the points are singularities (or marked regular
    points, prong count two) of the invariant foliations; `rotation` is the
    prong rotation of the first-return map.  Without a prong count the
    points are isolated elliptic or parabolic fixed points of the
    first-return map and always carry index one.
    """

    name: str
    size: int
    prongs: Optional[int] = None
    rotation: int = 0


@dataclass(frozen=True)
class VertexPiece:
    """A periodic or pseudo-Anosov piece.

    `circles` lists the piece's boundary circles; a circle not claimed by
    any annulus end lies on the boundary of the ambient surface.  For
    pseudo-Anosov pieces `boundary_singularities` gives, per circle, the
    number of foliation singular points sitting on it, and `orbits` is the
    declared interior orbit data (None means undeclared, as opposed to
    declared empty).  `period` is the order of the first-return map of a
    periodic piece.
    """

    name: str
    kind: str
    euler: int
    circles: Tuple[str, ...] = ()
    boundary_singularities: Tuple[int, ...] = ()
    stretch: Optional[StretchFactor] = None
    orbits: Optional[Tuple[InteriorOrbit, ...]] = None
    period: int = 1

    def __post_init__(self):
        object.__setattr__(self, "circles", tuple(self.circles))
        object.__setattr__(self, "boundary_singularities",
                           tuple(int(c) for c in self.boundary_singularities))
        if self.orbits is not None:
            object.__setattr__(self, "orbits", tuple(self.orbits))

    def singular_points(self, circle: str) -> int:
        return self.boundary_singularities[self.circles.index(circle)]


@dataclass(frozen=True)
class ReductionAnnulus:
    """A reduction annulus with its per-application fractional twist rate.

    Each entry of `ends` is the boundary circle of a vertex piece the
    annulus is glued to, or None when that end lies on the boundary of the
    ambient surface.
    """

    name: str
    twist: Fraction
    ends: Tuple[Optional[str], Optional[str]]
    orbits: Tuple[InteriorOrbit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "twist", Fraction(self.twist))
        object.__setattr__(self, "ends", tuple(self.ends))
        object.__setattr__(self, "orbits", tuple(self.orbits))


def _as_sorted_pairs(mapping) -> Tuple[Tuple[str, str], ...]:
    if isinstance(mapping, Mapping):
        return tuple(sorted(mapping.items()))
    return tuple(sorted(tuple(pair) for pair in mapping))


def _orbit(start: str, perm: Mapping[str, str]) -> Tuple[str, ...]:
    out = [start]
    current = perm[start]
    while current != start:
        out.append(current)
        current = perm[current]
    return tuple(out)


def _power_map(perm: Mapping[str, str], m: int) -> dict:
    out = {}
    for key in perm:
        current = key
        for _ in range(m):
            current = perm[current]
        out[key] = current
    return out


@dataclass(frozen=True)
class NTDecomposition:
    """A Nielsen-Thurston decomposition fixture: vertex pieces, reduction
    annuli, and the induced permutations on pieces and boundary circles."""

    pieces: Tuple[VertexPiece, ...]
    annuli: Tuple[ReductionAnnulus, ...]
    piece_map: Tuple[Tuple[str, str], ...]
    circle_map: Tuple[Tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "annuli", tuple(self.annuli))
        object.__setattr__(self, "piece_map", _as_sorted_pairs(self.piece_map))
        object.__setattr__(self, "circle_map", _as_sorted_pairs(self.circle_map))
        self.validate()

    # -- lookups -----------------------------------------------------------

    @property
    def piece_permutation(self) -> dict:
        return dict(self.piece_map)

    @property
    def circle_permutation(self) -> dict:
        return dict(self.circle_map)

    def piece(self, name: str) -> VertexPiece:
        for p in self.pieces:
            if p.name == name:
                return p
        raise KeyError(name)

    def annulus(self, name: str) -> ReductionAnnulus:
        for a in self.annuli:
            if a.name == name:
                return a
        raise KeyError(name)

    def circle_owner(self, circle: str) -> VertexPiece:
        for p in self.pieces:
            if circle in p.circles:
                return p
        raise KeyError(circle)

    def attached_annulus(self, circle: str) -> Optional[ReductionAnnulus]:
        for a in self.annuli:
            if circle in a.ends:
                return a
        return None

    # -- validation --------------------------------------------------------

    def validate(self) -> "NTDecomposition":
        """Raise DecompositionError unless the data is consistent; return
        self.  Construction calls this, so every instance is valid."""
        piece_names = [p.name for p in self.pieces]
        annulus_names = [a.name for a in self.annuli]
        all_names = piece_names + annulus_names
        if len(set(all_names)) != len(all_names):
            raise DecompositionError("piece and annulus names must be distinct")

        circles = {}
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
                if c in circles:
                    raise DecompositionError(
                        f"boundary circle {c} belongs to more than one piece")
                circles[c] = p
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
                if end not in circles:
                    raise DecompositionError(
                        f"annulus {a.name} attaches to unknown circle {end}")
                if end in attached:
                    raise DecompositionError(
                        f"circle {end} is claimed by more than one annulus end")
                attached[end] = a.name
            kinds = tuple(None if end is None else circles[end].kind
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
        if sorted(cmap) != sorted(circles) or sorted(cmap.values()) != sorted(circles):
            raise DecompositionError(
                "the circle map must permute the boundary circles")

        for p in self.pieces:
            image = self.piece(pmap[p.name])
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
            image = self.annulus(pmap[a.name])
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
            host_orbit = len(_orbit(host.name, pmap))
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
        return self

    # -- serialization -----------------------------------------------------

    def to_json(self):
        def orbit_json(o):
            return {"name": o.name, "size": o.size,
                    "prongs": o.prongs, "rotation": o.rotation}

        pieces = []
        for p in self.pieces:
            entry = {"name": p.name, "kind": p.kind, "euler": p.euler,
                     "circles": list(p.circles)}
            if p.kind == PSEUDO_ANOSOV:
                entry["boundary_singularities"] = list(p.boundary_singularities)
                entry["stretch"] = p.stretch.to_json()
            if p.period != 1:
                entry["period"] = p.period
            if p.orbits is not None:
                entry["orbits"] = [orbit_json(o) for o in p.orbits]
            pieces.append(entry)
        annuli = []
        for a in self.annuli:
            entry = {"name": a.name, "twist": str(a.twist),
                     "ends": list(a.ends)}
            if a.orbits:
                entry["orbits"] = [orbit_json(o) for o in a.orbits]
            annuli.append(entry)
        return {"pieces": pieces, "annuli": annuli,
                "piece_map": dict(self.piece_map),
                "circle_map": dict(self.circle_map)}

    @staticmethod
    def from_json(data) -> "NTDecomposition":
        def orbit(o):
            return InteriorOrbit(o["name"], int(o["size"]),
                                 o.get("prongs"), int(o.get("rotation", 0)))

        pieces = []
        for p in data["pieces"]:
            stretch = p.get("stretch")
            orbits = p.get("orbits")
            pieces.append(VertexPiece(
                name=p["name"], kind=p["kind"], euler=int(p["euler"]),
                circles=tuple(p.get("circles", ())),
                boundary_singularities=tuple(p.get("boundary_singularities", ())),
                stretch=None if stretch is None else StretchFactor.from_json(stretch),
                orbits=None if orbits is None else tuple(orbit(o) for o in orbits),
                period=int(p.get("period", 1))))
        annuli = []
        for a in data.get("annuli", ()):
            annuli.append(ReductionAnnulus(
                name=a["name"], twist=Fraction(str(a["twist"])),
                ends=tuple(a["ends"]),
                orbits=tuple(orbit(o) for o in a.get("orbits", ()))))
        return NTDecomposition(tuple(pieces), tuple(annuli),
                               data["piece_map"], data["circle_map"])


# ---------------------------------------------------------------------------
# split order, dilatation, deviation, iterates
# ---------------------------------------------------------------------------

def split_order(nt: NTDecomposition) -> int:
    """Smallest power whose iterate fixes every periodic piece and every
    boundary circle of the pseudo-Anosov part."""
    pmap = nt.piece_permutation
    cmap = nt.circle_permutation
    d = 1
    for p in nt.pieces:
        d = lcm(d, len(_orbit(p.name, pmap)))
        if p.kind == PSEUDO_ANOSOV:
            for c in p.circles:
                d = lcm(d, len(_orbit(c, cmap)))
    return d


def dilatation(nt: NTDecomposition) -> Dilatation:
    """Maximal stretch factor over the pseudo-Anosov pieces (one if there
    are none), bundled with the split order."""
    best: Optional[StretchFactor] = None
    for p in nt.pieces:
        if p.kind != PSEUDO_ANOSOV:
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


def iterate(nt: NTDecomposition, m: int) -> NTDecomposition:
    """The decomposition data of the m-th iterate: permutations are raised
    to the m-th power, stretch factors to the m-th power, twist rates are
    multiplied by m, and orbit data is re-reduced."""
    if m < 1:
        raise DecompositionError("iterate exponent must be a positive integer")
    pmap = nt.piece_permutation
    cmap = nt.circle_permutation

    def new_orbits(orbits):
        if orbits is None:
            return None
        out = []
        for o in orbits:
            split = gcd(o.size, m)
            size = o.size // split
            if o.prongs is None:
                rotation = 0
            else:
                rotation = (o.rotation * (m // split)) % o.prongs
            if split == 1:
                out.append(InteriorOrbit(o.name, size, o.prongs, rotation))
            else:
                out.extend(InteriorOrbit(f"{o.name}#{k + 1}", size, o.prongs,
                                         rotation)
                           for k in range(split))
        return tuple(out)

    pieces = []
    for p in nt.pieces:
        period = p.period
        if p.kind == PERIODIC:
            orbit_len = len(_orbit(p.name, pmap))
            step = m // gcd(orbit_len, m)
            period = p.period // gcd(p.period, step)
        pieces.append(replace(
            p,
            stretch=None if p.stretch is None else p.stretch.power(m),
            orbits=new_orbits(p.orbits),
            period=period))
    annuli = [replace(a, twist=a.twist * m, orbits=new_orbits(a.orbits))
              for a in nt.annuli]
    return NTDecomposition(tuple(pieces), tuple(annuli),
                           _power_map(pmap, m), _power_map(cmap, m))


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


@dataclass(frozen=True)
class FixedClassRecord:
    """One essential fixed class of the m-th iterate with its index."""

    iterate: int
    case: int
    carrier: str
    index: int

    def __post_init__(self):
        legal = {1: self.index == 1,
                 2: self.index == 1 or self.index <= -1,
                 3: self.index <= -1,
                 4: self.index <= -2,
                 5: self.index <= -1}
        if self.case not in legal:
            raise DecompositionError(f"unknown fixed class case {self.case}")
        if not legal[self.case]:
            raise DecompositionError(
                f"index {self.index} is outside the legal range of case "
                f"{self.case} ({CASE_NAMES[self.case]})")


@dataclass(frozen=True)
class _ClassFamily:
    """One orbit of fixed classes: `classes` equal-index classes permuted
    transitively by the map."""

    case: int
    index: int
    classes: int
    carrier: str


def _essential_families(nt: NTDecomposition, m: int):
    pmap = nt.piece_permutation
    cmap = nt.circle_permutation
    piece_orbit = {p.name: _orbit(p.name, pmap) for p in nt.pieces}
    annulus_orbit = {a.name: _orbit(a.name, pmap) for a in nt.annuli}
    circle_orbit_len = {}
    for p in nt.pieces:
        for c in p.circles:
            circle_orbit_len[c] = len(_orbit(c, cmap))

    def annulus_fixed(a: ReductionAnnulus) -> bool:
        if m % len(annulus_orbit[a.name]):
            return False
        return all(end is None or m % circle_orbit_len[end] == 0
                   for end in a.ends)

    def pointwise_fixed(p: VertexPiece) -> bool:
        return p.kind == PERIODIC and m % (len(piece_orbit[p.name]) * p.period) == 0

    families = []
    absorbed = set()

    # crown hyperbolic subsurfaces: pointwise fixed periodic pieces plus
    # their adjacent annuli that restrict to the identity at this iterate
    seen = set()
    for p in nt.pieces:
        if p.kind != PERIODIC or p.name in seen:
            continue
        orbit = piece_orbit[p.name]
        seen.update(orbit)
        if not pointwise_fixed(p):
            continue
        crown = 0
        joined = []
        for a in nt.annuli:
            if not (annulus_fixed(a) and a.twist * m == 0):
                continue
            ends = [None if e is None else nt.circle_owner(e) for e in a.ends]
            if not any(owner is not None and owner.name == p.name
                       for owner in ends):
                continue
            absorbed.update(annulus_orbit[a.name])
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
    seen = set()
    for a in nt.annuli:
        if a.name in seen:
            continue
        orbit = annulus_orbit[a.name]
        seen.update(orbit)
        if a.name in absorbed or not annulus_fixed(a):
            continue
        if (a.twist * m).denominator != 1:
            continue
        owners = [None if e is None else nt.circle_owner(e) for e in a.ends]
        kinds = [None if o is None else o.kind for o in owners]
        if kinds.count(PSEUDO_ANOSOV) == 2:
            total = sum(owner.singular_points(end)
                        for end, owner in zip(a.ends, owners))
            families.append(_ClassFamily(
                4, -total, len(orbit), f"reduction annulus {a.name}"))
        elif PSEUDO_ANOSOV in kinds:
            side = kinds.index(PSEUDO_ANOSOV)
            circle = a.ends[side]
            count = owners[side].singular_points(circle)
            families.append(_ClassFamily(
                3, -count, len(orbit), f"boundary circle {circle}"))

    # crown circles on the ambient boundary of the pseudo-Anosov part
    seen = set()
    for p in nt.pieces:
        if p.kind != PSEUDO_ANOSOV:
            continue
        for c in p.circles:
            if c in seen:
                continue
            orbit = _orbit(c, cmap)
            seen.update(orbit)
            if nt.attached_annulus(c) is not None:
                continue
            if m % len(orbit):
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
    seen = set()
    for p in nt.pieces:
        if p.kind != PSEUDO_ANOSOV or p.name in seen:
            continue
        orbit = piece_orbit[p.name]
        seen.update(orbit)
        if m % len(orbit):
            continue
        if all(nt.piece(name).orbits is None for name in orbit):
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


@dataclass(frozen=True)
class OrbitRow:
    """Indexed orbit counts for one iterate: pairs (index, count) plus the
    Nielsen number."""

    iterate: int
    counts: Tuple[Tuple[int, int], ...]
    nielsen: int

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(sorted(tuple(c) for c in self.counts)))
        if any(i == 0 for i, _ in self.counts):
            raise DecompositionError("orbit tables only keep nonzero indices")
        if any(c < 0 for _, c in self.counts):
            raise DecompositionError("orbit counts must be nonnegative")
        if self.nielsen != sum(c for _, c in self.counts):
            raise DecompositionError(
                "the Nielsen number must equal the sum of the indexed counts")

    def count(self, index: int) -> int:
        return dict(self.counts).get(index, 0)


@dataclass(frozen=True)
class IndexedOrbitTable:
    """Indexed orbit counts for all iterates up to a bound.  `remainder`
    names the pieces whose interior regular orbits beyond the declared data
    are model-dependent."""

    rows: Tuple[OrbitRow, ...]
    remainder: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "remainder", tuple(self.remainder))

    def row(self, m: int) -> OrbitRow:
        for r in self.rows:
            if r.iterate == m:
                return r
        raise KeyError(m)

    def nu(self, m: int, index: int) -> int:
        return self.row(m).count(index)

    def nielsen(self, m: int) -> int:
        return self.row(m).nielsen

    @staticmethod
    def from_counts(counts: Mapping[int, Mapping[int, int]],
                    remainder: Sequence[str] = ()) -> "IndexedOrbitTable":
        rows = []
        for m in sorted(counts):
            pairs = tuple((i, c) for i, c in sorted(counts[m].items()) if c)
            rows.append(OrbitRow(m, pairs, sum(c for _, c in pairs)))
        return IndexedOrbitTable(tuple(rows), tuple(remainder))

    def to_json(self):
        return {"rows": [{"iterate": r.iterate,
                          "counts": [list(pair) for pair in r.counts],
                          "nielsen": r.nielsen} for r in self.rows],
                "remainder": list(self.remainder)}

    @staticmethod
    def from_json(data) -> "IndexedOrbitTable":
        rows = tuple(OrbitRow(r["iterate"],
                              tuple(tuple(pair) for pair in r["counts"]),
                              r["nielsen"]) for r in data["rows"])
        return IndexedOrbitTable(rows, tuple(data.get("remainder", ())))


def indexed_orbit_numbers(nt: NTDecomposition, upto: int) -> IndexedOrbitTable:
    """Orbit-class counts by index and Nielsen numbers for all iterates up
    to the bound; each orbit of fixed classes counts once."""
    if upto < 1:
        raise DecompositionError("the iterate bound must be a positive integer")
    counts = {}
    for m in range(1, upto + 1):
        row = {}
        for family in _essential_families(nt, m):
            row[family.index] = row.get(family.index, 0) + 1
        counts[m] = row
    pmap = nt.piece_permutation
    remainder = sorted({min(_orbit(p.name, pmap)) for p in nt.pieces
                        if p.kind == PSEUDO_ANOSOV
                        and len(_orbit(p.name, pmap)) <= upto})
    return IndexedOrbitTable.from_counts(counts, tuple(remainder))


# ---------------------------------------------------------------------------
# growth estimates from Nielsen numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthBracket:
    """Exact rational bracket for max(1, N_m)^(1/m)."""

    iterate: int
    nielsen: int
    low: Fraction
    high: Fraction


def dilatation_from_nielsen(table: IndexedOrbitTable,
                            tolerance: Fraction = Fraction(1, 10 ** 6)
                            ) -> Tuple[GrowthBracket, ...]:
    """Rational bracketing intervals for the growth estimates
    max(1, N_m)^(1/m), one per table row."""
    if not table.rows:
        raise DecompositionError("the orbit table has no rows")
    tolerance = Fraction(tolerance)
    out = []
    for row in table.rows:
        m, n = row.iterate, max(1, row.nielsen)
        if n == 1:
            out.append(GrowthBracket(m, row.nielsen, Fraction(1), Fraction(1)))
            continue
        low, high = Fraction(1), Fraction(n)
        while high - low > tolerance:
            mid = (low + high) / 2
            if mid ** m <= n:
                low = mid
            else:
                high = mid
        out.append(GrowthBracket(m, row.nielsen, low, high))
    return tuple(out)


def certify_growth_estimate(bracket: GrowthBracket, dil: Dilatation,
                            relative: Fraction = Fraction(1, 100)) -> bool:
    """Exact check whether the bracketed growth estimate lies within the
    given relative distance of the dilatation."""
    relative = Fraction(relative)
    if dil.factor is None:
        return (bracket.high <= 1 + relative
                and bracket.low >= 1 - relative)
    factor = dil.factor
    for _ in range(256):
        if (bracket.high <= (1 + relative) * factor.low
                and bracket.low >= (1 - relative) * factor.high):
            return True
        if (bracket.low > (1 + relative) * factor.high
                or bracket.high < (1 - relative) * factor.low):
            return False
        factor = factor.refined()
    raise ArithmeticError(
        "growth certification undecided at the available precision")


# ---------------------------------------------------------------------------
# decomposition graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionGraph:
    """An abstract directed graph: a finite set with two retractions onto a
    common vertex subset.  Elements outside the image are the directed
    edges; `kinds` tags every element with its geometric origin."""

    elements: Tuple[str, ...]
    d0: Tuple[Tuple[str, str], ...]
    d1: Tuple[Tuple[str, str], ...]
    kinds: Tuple[Tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))
        object.__setattr__(self, "d0", _as_sorted_pairs(self.d0))
        object.__setattr__(self, "d1", _as_sorted_pairs(self.d1))
        object.__setattr__(self, "kinds", _as_sorted_pairs(self.kinds))
        d0, d1 = dict(self.d0), dict(self.d1)
        elements = set(self.elements)
        kinds = dict(self.kinds)
        for mapping in (d0, d1):
            if set(mapping) != elements or not set(mapping.values()) <= elements:
                raise DecompositionError(
                    "graph retractions must be defined on every element")
        if set(kinds) != elements:
            raise DecompositionError("every graph element needs a kind tag")
        image0 = {d0[e] for e in elements}
        image1 = {d1[e] for e in elements}
        if image0 != image1:
            raise DecompositionError(
                "the two retractions must share one vertex image")
        for e in elements:
            if d0[d0[e]] != d0[e] or d1[d1[e]] != d1[e]:
                raise DecompositionError("graph maps must be retractions")
        for v in image0:
            if d0[v] != v or d1[v] != v:
                raise DecompositionError(
                    "vertices must be fixed by both retractions")

    # -- structure ---------------------------------------------------------

    @property
    def vertices(self) -> Tuple[str, ...]:
        image = {v for _, v in self.d0}
        return tuple(sorted(image))

    @property
    def edges(self) -> Tuple[str, ...]:
        image = set(self.vertices)
        return tuple(e for e in self.elements if e not in image)

    def initial(self, edge: str) -> str:
        return dict(self.d0)[edge]

    def terminal(self, edge: str) -> str:
        return dict(self.d1)[edge]

    def kind(self, element: str) -> str:
        return dict(self.kinds)[element]

    def as_edge_list(self):
        """(edge, initial vertex, terminal vertex) triples, for export."""
        return tuple((e, self.initial(e), self.terminal(e))
                     for e in self.edges)

    def quotient(self, automorphism: Mapping[str, str]) -> "DecompositionGraph":
        """Quotient by the cyclic group generated by an equivariant graph
        automorphism, using least orbit representatives."""
        rep = {}
        for e in self.elements:
            if e in rep:
                continue
            orbit = _orbit(e, dict(automorphism))
            least = min(orbit)
            for member in orbit:
                rep[member] = least
        d0, d1 = dict(self.d0), dict(self.d1)
        kinds = dict(self.kinds)
        elements = sorted(set(rep.values()))
        return DecompositionGraph(
            tuple(elements),
            tuple((e, rep[d0[e]]) for e in elements),
            tuple((e, rep[d1[e]]) for e in elements),
            tuple((e, kinds[e]) for e in elements))

    def to_json(self):
        return {"elements": list(self.elements),
                "d0": dict(self.d0), "d1": dict(self.d1),
                "kinds": dict(self.kinds)}


def nt_graph(nt: NTDecomposition) -> DecompositionGraph:
    """The decomposition graph: pieces and annuli are vertices, every
    attached boundary circle is a directed edge from its annulus to its
    vertex piece."""
    elements, d0, d1, kinds = [], {}, {}, {}
    for p in nt.pieces:
        elements.append(p.name)
        d0[p.name] = d1[p.name] = p.name
        kinds[p.name] = p.kind
    for a in nt.annuli:
        elements.append(a.name)
        d0[a.name] = d1[a.name] = a.name
        kinds[a.name] = "annulus"
    for a in nt.annuli:
        for end in a.ends:
            if end is None:
                continue
            name = f"end:{end}"
            elements.append(name)
            d0[name] = a.name
            d1[name] = nt.circle_owner(end).name
            kinds[name] = "end"
    return DecompositionGraph(tuple(elements), d0, d1, kinds)


def graph_automorphism(nt: NTDecomposition) -> dict:
    """The automorphism induced on the decomposition graph by the map."""
    pmap = nt.piece_permutation
    cmap = nt.circle_permutation
    out = dict(pmap)
    for a in nt.annuli:
        for end in a.ends:
            if end is not None:
                out[f"end:{end}"] = f"end:{cmap[end]}"
    return out


def geometric_graph(nt: NTDecomposition) -> DecompositionGraph:
    """The quotient of the decomposition graph by the induced automorphism:
    one element per orbit of pieces, annuli, and edge ends."""
    return nt_graph(nt).quotient(graph_automorphism(nt))


# ---------------------------------------------------------------------------
# shearing degrees from slope pairs
# ---------------------------------------------------------------------------

def shearing_from_slopes(g: Sequence[int], gstar: Sequence[int]
                         ) -> Union[int, str]:
    """Order of the quotient of the rank-two lattice by the sublattice the
    two slopes generate: the absolute determinant when nonzero, or
    "trivial" for parallel slopes."""
    g = tuple(int(v) for v in g)
    gstar = tuple(int(v) for v in gstar)
    if len(g) != 2 or len(gstar) != 2:
        raise ValueError("slopes must be integer pairs")
    if g == (0, 0) or gstar == (0, 0):
        raise ValueError("slope vectors must be nonzero")
    det = g[0] * gstar[1] - g[1] * gstar[0]
    return abs(det) if det else "trivial"


# ---------------------------------------------------------------------------
# relabeling
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
