"""Finite-group character machinery for orbit-class counting bounds.

A finite group ships as a verified table: multiplication, conjugacy
classes, and the irreducible complex character table over a cyclotomic
field.  Orbit projection tables record how periodic orbit classes land
in the group's conjugacy classes together with their indices; from these
the module computes twisted Lefschetz numbers against arbitrary class
functions, per-class indicator values by two independent routes (direct
evaluation and the orthogonality expansion, asserted equal), and the
resulting lower bound on the Nielsen number, optionally refined to exact
indexed counts when the caller asserts the bound is attained.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Tuple, Union

from .kernel import Cyclotomic, as_exact, hermitian_products
from .record import Record, parse_int

Scalar = Union[int, Fraction, Cyclotomic]

CYCLIC_LIMIT = 60


# ---------------------------------------------------------------------------
# group tables
# ---------------------------------------------------------------------------

class FiniteGroupTable(Record):
    """A finite group with its exact irreducible character table.

    Elements are the indices of the multiplication rows; element 0 is the
    identity and class 0 is its singleton class.
    Characters are stored per conjugacy class, with values in the
    cyclotomic field of the declared conductor.
    """

    def __init__(self, name: str, multiplication: Tuple[Tuple[int, ...], ...],
                 classes: Tuple[Tuple[int, ...], ...], conductor: int,
                 characters: Tuple[Tuple[Scalar, ...], ...]):
        self.__dict__.update(name=name, multiplication=multiplication,
                             classes=classes, conductor=conductor,
                             characters=characters)

    @property
    def order(self) -> int:
        return len(self.multiplication)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_size(self, class_id: int) -> int:
        return len(self.classes[class_id])

    def inverse(self, element: int) -> int:
        row = self.multiplication[element]
        return row.index(0)

    # -- verification ------------------------------------------------------

    def verify(self) -> "FiniteGroupTable":
        self._assert_structure()
        self._assert_orthogonality()
        return self

    def _assert_structure(self):
        n = self.order
        if any(len(row) != n or any(not 0 <= v < n for v in row)
               for row in self.multiplication):
            raise ValueError("multiplication table must be a square over "
                             "element indices")
        if any(self.multiplication[0][j] != j or self.multiplication[j][0] != j
               for j in range(n)):
            raise ValueError("element 0 must be the identity")
        flat = sorted(i for members in self.classes for i in members)
        if flat != list(range(n)):
            raise ValueError("conjugacy classes must partition the group")
        if self.classes[0] != (0,):
            raise ValueError("class 0 must be the identity class")
        mult = self.multiplication
        inverse = [self.inverse(h) for h in range(n)]
        for members in self.classes:
            bag = set(members)
            if any(mult[mult[h][g]][inverse[h]] not in bag
                   for g in members for h in range(n)):
                raise ValueError("classes must be closed under conjugation")
        if len(self.characters) != self.class_count:
            raise ValueError("need exactly one irreducible character per "
                             "conjugacy class")
        for row in self.characters:
            if len(row) != self.class_count:
                raise ValueError("character rows must cover every class")
            degree = row[0]
            if not isinstance(degree, int) or degree < 1:
                raise ValueError("character degrees must be positive integers")

    def _assert_orthogonality(self):
        for r, chi in enumerate(self.characters):
            weighted = [len(members) * value
                        for members, value in zip(self.classes, chi)]
            products = hermitian_products(self.characters[r:], weighted)
            for s, product in enumerate(products, r):
                expected = self.order if r == s else 0
                if product != expected:
                    raise ValueError(
                        f"character rows {r} and {s} of {self.name} violate "
                        "orthogonality")


def _cyclic_table(n: int) -> FiniteGroupTable:
    multiplication = tuple(tuple((i + j) % n for j in range(n))
                           for i in range(n))
    classes = tuple((k,) for k in range(n))
    roots = [as_exact(Cyclotomic.root(n, k)) if n > 1 else 1 for k in range(n)]
    characters = tuple(tuple(roots[(r * j) % n] for j in range(n))
                       for r in range(n))
    table = FiniteGroupTable(f"cyclic({n})", multiplication, classes, n,
                             characters)
    table._assert_structure()
    # Row orthogonality for the root-power table reduces to the difference
    # sums: chi_r(j) * conj(chi_s(j)) = zeta^((r-s) j), so the pairwise
    # inner products equal sum_j zeta^(d j) = <chi_d, chi_0> with d = r - s
    # mod n.  Row d of the batch below is sum_j conj(chi_d(j)), the
    # conjugate of that sum, so checking the n rows asserts the identical
    # statement while avoiding the quadratic blow-up of the generic
    # pairwise loop.  The n^2 entries share the n values in `roots`, so
    # each root's exponent is looked up once, here, and every later sum
    # over the table (twisted L, the indicator batch) adds by exponent.
    for d, total in enumerate(hermitian_products(characters, characters[0])):
        if total != (n if d == 0 else 0):
            raise ValueError(
                f"cyclic({n}) character rows violate orthogonality")
    if n <= 12:
        table._assert_orthogonality()
    return table


def _permutation_table(name: str, generators, representatives,
                       characters) -> FiniteGroupTable:
    """The verified table of the group generated by permutations (tuples
    of point images): the closure is enumerated breadth-first from the
    identity, and class c is the conjugation orbit of representatives[c],
    a word of generator indices."""
    elements = [tuple(range(len(generators[0])))]
    index = {elements[0]: 0}
    for p in elements:      # grows while it is read
        for g in generators:
            q = tuple(p[x] for x in g)
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
    multiplication = tuple(tuple(index[tuple(p[x] for x in q)]
                                 for q in elements) for p in elements)
    inverse = [row.index(0) for row in multiplication]
    classes = []
    for word in representatives:
        g = 0
        for letter in word:
            g = multiplication[g][index[generators[letter]]]
        classes.append(tuple(sorted({
            multiplication[multiplication[h][g]][inverse[h]]
            for h in range(len(elements))})))
    return FiniteGroupTable(name, multiplication, tuple(classes), 1,
                            characters).verify()


_CYCLIC_NAME = re.compile(r"cyclic\((.*)\)\Z")


@lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroupTable:
    """A verified built-in group table: cyclic(n) for 1 <= n <= 60, or one
    of the permutation groups S3, D4, Q8."""
    match = _CYCLIC_NAME.match(name)
    n = match and parse_int(match[1], "cyclic order")
    if n is not None:
        if not 1 <= n <= CYCLIC_LIMIT:
            raise ValueError(
                f"cyclic order must lie in 1..{CYCLIC_LIMIT}, got {n}")
        return _cyclic_table(n)
    # D4 and Q8 share this table; only their multiplications differ
    order8 = ((1, 1, 1, 1, 1),
              (1, 1, 1, -1, -1),
              (1, 1, -1, 1, -1),
              (1, 1, -1, -1, 1),
              (2, -2, 0, 0, 0))
    groups = {
        # a transposition and a 3-cycle; classes e, (01), (012)
        "S3": (((1, 0, 2), (1, 2, 0)), ((), (0,), (1,)),
               ((1, 1, 1), (1, -1, 1), (2, 0, -1))),
        # rotation r and reflection s of a square's vertices 0..3;
        # classes e, r^2, r, s, rs
        "D4": (((1, 2, 3, 0), (0, 3, 2, 1)), ((), (0, 0), (0,), (1,), (0, 1)),
               order8),
        # left multiplication by i and j on 1, -1, i, -i, j, -j, k, -k;
        # classes 1, -1, i, j, k
        "Q8": (((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)),
               ((), (0, 0), (0,), (1,), (0, 1)), order8),
    }
    if name not in groups:
        raise ValueError(f"unknown group {name!r}: expected cyclic(n), S3, "
                         "D4, or Q8")
    return _permutation_table(name, *groups[name])


# ---------------------------------------------------------------------------
# orbit projection tables
# ---------------------------------------------------------------------------

class OrbitProjectionTable(Record):
    """Rows (orbit class id, index, group class id) for one iterate."""

    def __init__(self, rows: Tuple[Tuple[str, int, int], ...]):
        seen = set()
        for orbit, index, class_id in rows:
            if orbit in seen:
                raise ValueError(f"orbit class {orbit} appears twice")
            seen.add(orbit)
            if index == 0:
                raise ValueError("orbit class indices must be nonzero")
            if class_id < 0:
                raise ValueError("group class ids must be nonnegative")
        self.__dict__.update(rows=rows)

    @property
    def orbit_count(self) -> int:
        return len(self.rows)

    def class_ids(self) -> Tuple[int, ...]:
        return tuple(sorted({c for _, _, c in self.rows}))


def twisted_L_from_orbits(table: OrbitProjectionTable,
                          chi: Union[Sequence[Scalar], Mapping[int, Scalar]]
                          ) -> Scalar:
    """Twisted Lefschetz number: the index-weighted sum of the class
    function over the orbit classes.  Linear in the class function.

    The sum is kept unreduced by exponent mod n, as the `hermitian_products`
    rows are: a value zeta_n^k only adds its index at exponent k, and the
    result is reduced mod Phi_n once.  As in a plain running sum, rational
    values of any conductor mix freely, and a value of another conductor
    than the sum so far raises unless one of the two is rational."""
    rational, conductor, raw = 0, None, None
    for _, index, class_id in table.rows:
        try:    # class ids are nonnegative, so a sequence cannot wrap
            value = chi[class_id]
        except (KeyError, IndexError):
            raise ValueError(
                f"class id {class_id} missing from the class function"
            ) from None
        if not isinstance(value, Cyclotomic):
            rational = rational + index * value
            continue
        if value.conductor != conductor:
            if value.is_rational():
                rational = rational + index * value.coeffs[0]
                continue
            if raw is not None:     # the sum so far must be rational
                so_far = Cyclotomic(conductor, raw)
                if not so_far.is_rational():
                    raise ValueError(f"mixed conductors {conductor} and "
                                     f"{value.conductor}")
                rational = rational + so_far.coeffs[0]
            conductor, raw = value.conductor, [0] * value.conductor
        k = value.root_exponent()
        if k is not None:
            raw[k] += index
        else:
            for j, c in enumerate(value.coeffs):
                if c:
                    raw[j] += index * c
    if raw is None:
        return as_exact(rational)
    raw[0] += rational
    return as_exact(Cyclotomic(conductor, raw))


def character_L_vector(table: OrbitProjectionTable,
                       group: FiniteGroupTable) -> Tuple[Scalar, ...]:
    """L(chi) for every irreducible character chi of the group, in table
    order."""
    bad = [c for c in table.class_ids() if c >= group.class_count]
    if bad:
        raise ValueError(
            f"orbit table references classes {bad} outside {group.name}")
    return tuple(twisted_L_from_orbits(table, chi)
                 for chi in group.characters)


def class_indicator_L(table: OrbitProjectionTable, group: FiniteGroupTable,
                      class_id: int,
                      character_L: Optional[Sequence[Scalar]] = None) -> int:
    """Indicator-function twisted Lefschetz number of one conjugacy class:
    its entry of `all_class_indicators`, so both routes are checked."""
    if not 0 <= class_id < group.class_count:
        raise ValueError(f"unknown conjugacy class {class_id} of {group.name}")
    return all_class_indicators(table, group, character_L)[class_id]


def all_class_indicators(table: OrbitProjectionTable,
                         group: FiniteGroupTable,
                         character_L: Optional[Sequence[Scalar]] = None
                         ) -> Tuple[int, ...]:
    """Indicator-L values for every class, computed both directly and
    through the orthogonality expansion over the irreducible characters
    (reading `character_L`, the table's `character_L_vector`); the two
    routes must agree exactly.  The expansions of all classes are one batch
    of Hermitian products with the one character_L."""
    if character_L is None:
        character_L = character_L_vector(table, group)
    direct = {}
    for _, index, c in table.rows:
        direct[c] = direct.get(c, 0) + index
    values = tuple(direct.get(c, 0) for c in range(group.class_count))
    columns = list(zip(*group.characters))
    for c, product in enumerate(hermitian_products(columns, character_L)):
        expansion = as_exact(Fraction(group.class_size(c), group.order)
                             * product)
        if expansion != values[c]:
            raise ArithmeticError(
                f"orthogonality expansion disagrees with direct evaluation "
                f"on class {c} of {group.name}: broken character table")
    return values


class NielsenBound(Record):
    """Lower bound for the Nielsen number, with exact per-index counts when
    the caller asserts the bound is attained."""

    def __init__(self, bound: int,
                 indexed_counts: Optional[Tuple[Tuple[int, int], ...]] = None):
        self.__dict__.update(bound=bound, indexed_counts=indexed_counts)


def nielsen_bound(table: OrbitProjectionTable, group: FiniteGroupTable,
                  attained: bool = False) -> NielsenBound:
    """Count the conjugacy classes with nonzero indicator-L value.  With the
    attainment flag the per-index class counts are reported as exact indexed
    orbit counts."""
    values = all_class_indicators(table, group)
    nonzero = [v for v in values if v != 0]
    if not attained:
        return NielsenBound(len(nonzero))
    tally = {}
    for v in nonzero:
        tally[v] = tally.get(v, 0) + 1
    return NielsenBound(len(nonzero), tuple(sorted(tally.items())))
