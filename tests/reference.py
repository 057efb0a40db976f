"""Reference code that only the tests read.

No subcommand, fixture or benchmark workload reaches these functions, so
they live beside the tests instead of in `procong`.  Some are oracles the
library is checked against (the brute-force characteristic level, complex
conjugation of cyclotomic scalars, behind the Hermitian products and the
character orthogonality relations, the dense
Gauss-Jordan inverse, dense Berkowitz, the least rotation of a cyclic R/L
word letter by letter, the least unit-determinant solution of X A = B X
mod n by a lexicographic walk over the Howell basis of the solution
module, the cycle product of a monomial
matrix, dense polynomial-matrix arithmetic, the orbit-count table computed
iterate by iterate); the others build test inputs and expected values
(copies of records with changed fields, exact powers and iterates of
normal forms, growth brackets from Nielsen numbers, presentation moves
and generator orders, changes of basis, dense copies of sparse
scalar matrices, polynomial matrices from and to dense grids, and the
affine representations of closed-fiber bundles, loaded from
`scripts/large_rep_timings.py`).

Importing the module attaches the moved methods to their classes
(`StretchFactor.power` and `refined_to`, `Dilatation.power`, the relator
moves and `permute_generators` of `MappingTorusPresentation` and
`FiniteRepresentation.conjugate`),
so a test calls them as methods.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd
from pathlib import Path
from typing import Iterable, Mapping, Tuple

from procong.kernel import (Cyclotomic, LaurentPolynomial, PolyMatrix,
                            SparseMatrix, as_exact, scalar_inverse)
from procong.lattice import ext_gcd, smith_integer
from procong.ntform import (PERIODIC, PSEUDO_ANOSOV, DecompositionError,
                            Dilatation, IndexedOrbitTable, InteriorOrbit,
                            NTDecomposition, OrbitRow, StretchFactor,
                            _essential_families, _orbit, _roots_between,
                            _sign_at, _squarefree, _sturm_chain)
from procong.surfgrp import (FiniteRepresentation, MappingTorusPresentation,
                             ScalarMatrix, Word, _check_indices, _mat_freeze,
                             _sparse, _sparse_mul, free_reduce, word_concat,
                             word_inverse)
from procong.torus import CommutationSolver, Mat2

# ---------------------------------------------------------------------------
# records: a copy with some fields changed
# ---------------------------------------------------------------------------


def replace(record, **changes):
    """A copy of a library record with the named fields changed, rebuilt
    through its public constructor, so every check of the constructor runs
    again; an unknown field name is a TypeError."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})

# ---------------------------------------------------------------------------
# lattices: the characteristic level by brute force
# ---------------------------------------------------------------------------


def integer_kernel_basis(matrix):
    """Basis of the integer kernel {x : M x = 0} as a list of column vectors."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    diag, v = smith_integer(matrix)
    rank = sum(1 for d in diag if d != 0)
    return [[v[i][j] for i in range(cols)] for j in range(rank, cols)]


def characteristic_level_bruteforce(n: int) -> int:
    """Direct computation: enumerate all sublattices of index <= n by their
    upper-triangular (Hermite) bases and intersect them."""
    if type(n) is not int or n < 1:
        raise ValueError(f"level must be a positive integer, got {n!r}")
    basis = [[1, 0], [0, 1]]
    for m in range(2, n + 1):
        for a in _divisors(m):
            d = m // a
            for b in range(a):
                sub = [[a, b], [0, d]]
                basis = _lattice_intersect(basis, sub)
    if basis[0][1] != 0 or basis[1][0] != 0 or basis[0][0] != basis[1][1]:
        raise AssertionError("intersection lattice is not a scaled copy of Z^2")
    return abs(basis[0][0])


def _divisors(m: int):
    return [d for d in range(1, m + 1) if m % d == 0]


def _lattice_intersect(b1, b2):
    """Intersect two full-rank sublattices of Z^2 given by column bases."""
    stacked = [[b1[0][0], b1[0][1], -b2[0][0], -b2[0][1]],
               [b1[1][0], b1[1][1], -b2[1][0], -b2[1][1]]]
    kernel = integer_kernel_basis(stacked)
    vectors = []
    for k in kernel:
        u1, u2 = k[0], k[1]
        vectors.append([b1[0][0] * u1 + b1[0][1] * u2,
                        b1[1][0] * u1 + b1[1][1] * u2])
    return _hermite_columns(vectors)


def _hermite_columns(vectors):
    """Column Hermite form [[a, b], [0, d]] of the lattice the vectors span."""
    cols = [list(v) for v in vectors if any(v)]
    # clear the second row down to a single pivot column by column operations
    while sum(1 for c in cols if c[1] != 0) > 1:
        nz = sorted((c for c in cols if c[1] != 0), key=lambda c: abs(c[1]))
        pivot = nz[0]
        for c in nz[1:]:
            q = c[1] // pivot[1]
            c[0] -= q * pivot[0]
            c[1] -= q * pivot[1]
    second = next((c for c in cols if c[1] != 0), None)
    firsts = [c[0] for c in cols if c[1] == 0]
    a = 0
    for x in firsts:
        a = gcd(a, abs(x))
    if second is None or a == 0:
        raise AssertionError("lattice intersection lost rank")
    b, d = second
    if d < 0:
        b, d = -b, -d
    b %= a
    return [[a, b], [0, d]]


# ---------------------------------------------------------------------------
# SL(2,Z): the cyclic R/L word letter by letter
# ---------------------------------------------------------------------------


def least_rotation(letters) -> int:
    """Index of the lexicographically least rotation of a letter list, the
    first one when several are equal."""
    n = len(letters)
    doubled = letters + letters
    best = 0
    for i in range(1, n):
        for j in range(n):
            x, y = doubled[i + j], doubled[best + j]
            if x != y:
                if x < y:
                    best = i
                break
    return best


def letter_cyclic_word(m: Mat2):
    """(letters, prefix) for a nonnegative determinant-1 matrix m of trace
    > 2: its R/L letters, peeled one at a time off the left, rotated to
    their least rotation, and the product of the letters rotated past,
    which conjugates m onto the rotation's matrix."""
    r, l = Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1)
    letters, rest = [], m
    while rest != Mat2.identity():
        if rest.a >= rest.c and rest.b >= rest.d:
            letters.append("R")
            rest = r.inverse() @ rest
        else:
            letters.append("L")
            rest = l.inverse() @ rest
        if not rest.nonnegative():
            raise AssertionError("peeled a letter off a matrix outside SL(2,N)")
    shift = least_rotation(letters)
    prefix = Mat2.identity()
    for letter in letters[:shift]:
        prefix = prefix @ (r if letter == "R" else l)
    return tuple(letters[shift:] + letters[:shift]), prefix


# ---------------------------------------------------------------------------
# GL(2,Z/n): the least unit solution by a walk over the Howell basis
# ---------------------------------------------------------------------------


def howell_form(rows, n: int):
    """The Howell basis of the Z/n-submodule spanned by integer rows.

    Returns the nonzero rows as tuples with entries in [0, n), their pivots
    (first nonzero entries) in strictly increasing columns.  Each pivot
    divides n, the entries above a pivot are reduced below it, and the rows
    whose pivot is at column c or later span every element of the module
    that is zero before column c (Howell, 1986).  The basis depends only on
    the module, not on the generating rows.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    work = []
    for row in rows:
        if any(type(x) is not int for x in row):
            raise ValueError(f"rows must hold integers, got {list(row)!r}")
        work.append([x % n for x in row])
    width = len(work[0]) if work else 0
    if any(len(row) != width for row in work):
        raise ValueError("rows must have equal length")
    basis = []
    for c in range(width):
        pivot, rest = None, []
        for row in work:
            if not row[c]:
                if any(row):
                    rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                # a determinant-1 step puts gcd(a, b) on the pivot and
                # clears column c of the other row
                a, b = pivot[c], row[c]
                g, s, t = ext_gcd(a, b)
                a, b = a // g, b // g
                pivot, row = ([(s * x + t * y) % n for x, y in zip(pivot, row)],
                              [(a * y - b * x) % n for x, y in zip(pivot, row)])
                if any(row):
                    rest.append(row)
        if pivot is None:
            continue
        # scale by a unit so the pivot becomes g = gcd(pivot, n); then
        # (n/g) * pivot row is zero through column c and joins the rest,
        # which is what the Howell property asks of the rows below
        g = gcd(pivot[c], n)
        m = n // g
        inverse = pow(pivot[c] // g, -1, m)
        unit = next(u for u in range(inverse, n, m) if gcd(u, n) == 1)
        pivot = [unit * x % n for x in pivot]
        annihilated = [m * x % n for x in pivot]
        if any(annihilated):
            rest.append(annihilated)
        basis.append(pivot)
        work = rest
    for i, row in enumerate(basis):
        c = next(j for j, x in enumerate(row) if x)
        for j in range(i):
            q = basis[j][c] // row[c]
            if q:
                basis[j] = [(x - q * y) % n for x, y in zip(basis[j], row)]
    return tuple(tuple(row) for row in basis)


def howell_points(basis, n: int, width: int):
    """Every point of the module a Howell basis spans, once each, in
    increasing lexicographic order of tuples in [0, n)^width.

    By the Howell property the points with a given prefix before a pivot
    column c take at c exactly one coset of the pivot, each value once, so
    walking the cosets upwards row by row is the lexicographic order.
    """
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]

    def walk(i, point):
        if i == len(basis):
            yield point
            return
        row, c = basis[i], pivots[i]
        p = row[c]
        steps, shift = n // p, point[c] // p
        for j in range(steps):
            k = (j - shift) % steps
            yield from walk(i + 1, tuple((x + k * y) % n
                                         for x, y in zip(point, row)))

    return walk(0, (0,) * width)


def least_unit_by_walk(solver: CommutationSolver, n: int):
    """The lexicographically least unit-determinant solution of the
    solver's X A = B X mod n, or None: the module's points are walked in
    lexicographic order from its Howell basis up to the first unit, a route
    that shares nothing with the solver's prime-power search but the Smith
    form.  It draws every point of the module when there is no unit."""
    rows = [[n // gcd(d, n) * v for v in col]
            for d, col in zip(solver.diag, solver.v_cols)]
    for x in howell_points(howell_form(rows, n), n, 4):
        if gcd(x[0] * x[3] - x[1] * x[2], n) == 1:
            return Mat2(*x)
    return None


# ---------------------------------------------------------------------------
# normal forms: exact powers, iterates and growth brackets
# ---------------------------------------------------------------------------


def refined_to(stretch: StretchFactor, width: Fraction) -> StretchFactor:
    out = stretch
    while out.high - out.low > width:
        out = out.refined()
    return out


def stretch_power(stretch: StretchFactor, m: int) -> StretchFactor:
    """The exact m-th power, defined by the squarefree part of
    det(xI - C^m) for C the companion matrix of the polynomial."""
    if m < 1:
        raise DecompositionError("power exponent must be a positive integer")
    if m == 1:
        return stretch
    *tail, lead = stretch.polynomial
    n = len(tail)
    last = [as_exact(Fraction(-c, lead)) for c in tail]
    # C has ones below the diagonal and last column `last` (ints for a
    # monic polynomial, so the products stay integral), so M C shifts
    # each row of M left and appends its product with `last`
    raised = [[int(i == j + 1) for j in range(n - 1)] + [last[i]]
              for i in range(n)]
    for _ in range(m - 1):
        raised = [row[1:] + [sum(a * b for a, b in zip(row, last) if b)]
                  for row in raised]
    chain = _sturm_chain(_squarefree(LaurentPolynomial.from_coefficients(
        dense_charpoly(raised)[::-1])))
    base = stretch
    while True:
        low, high = base.low ** m, base.high ** m
        if (_sign_at(chain[0], low) != 0 and _sign_at(chain[0], high) != 0
                and _roots_between(chain, low, high) == 1):
            return StretchFactor(chain[0], low, high)
        base = base.refined()


def dilatation_power(dil: Dilatation, m: int) -> Dilatation:
    if dil.factor is None:
        return dil
    return Dilatation(stretch_power(dil.factor, m), dil.split_order)


def _power_map(perm: Mapping[str, str], m: int) -> dict:
    out = {}
    for key in perm:
        current = key
        for _ in range(m):
            current = perm[current]
        out[key] = current
    return out


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
            stretch=None if p.stretch is None else stretch_power(p.stretch, m),
            orbits=new_orbits(p.orbits),
            period=period))
    annuli = [replace(a, twist=a.twist * m, orbits=new_orbits(a.orbits))
              for a in nt.annuli]
    return NTDecomposition(tuple(pieces), tuple(annuli),
                           _power_map(pmap, m), _power_map(cmap, m))


def orbit_numbers_by_iterate(nt: NTDecomposition,
                             upto: int) -> IndexedOrbitTable:
    """`indexed_orbit_numbers` without its row period: every iterate's row
    from its own essential families."""
    rows = []
    for m in range(1, upto + 1):
        counts = {}
        for family in _essential_families(nt, m):
            counts[family.index] = counts.get(family.index, 0) + 1
        rows.append(OrbitRow.from_counts(counts))
    leading = [nt._orbits[p.name] for p in nt.pieces
               if p.kind == PSEUDO_ANOSOV and nt._orbits[p.name][0] == p.name]
    remainder = sorted(min(orbit) for orbit in leading if len(orbit) <= upto)
    return IndexedOrbitTable(tuple(rows), tuple(remainder))


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
    for m, row in enumerate(table.rows, 1):
        n = max(1, row.nielsen)
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
# words, presentation moves and changes of basis
# ---------------------------------------------------------------------------


def cyclic_reduce(word: Iterable[int]) -> Word:
    """Cyclically reduce: free reduction plus cancellation across the ends."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _swap(mt: MappingTorusPresentation, index: int,
          new_relator: Word) -> Tuple[Word, ...]:
    relators = list(mt.relators)
    relators[index] = new_relator
    return tuple(relators)


def cycle_relator(mt: MappingTorusPresentation, index: int,
                  shift: int) -> MappingTorusPresentation:
    r = mt.relators[index]
    if not r:
        return mt
    shift %= len(r)
    moved = r[shift:] + r[:shift]
    return replace(mt, relators=_swap(mt, index, free_reduce(moved)))


def invert_relator(mt: MappingTorusPresentation,
                   index: int) -> MappingTorusPresentation:
    return replace(
        mt, relators=_swap(mt, index, word_inverse(mt.relators[index])))


def conjugate_relator(mt: MappingTorusPresentation, index: int,
                      word: Iterable[int]) -> MappingTorusPresentation:
    w = _check_indices(word, mt.rank)
    moved = word_concat(w, mt.relators[index], word_inverse(w))
    return replace(mt, relators=_swap(mt, index, moved))


def add_generator(mt: MappingTorusPresentation, name: str,
                  word: Iterable[int]) -> MappingTorusPresentation:
    """Adjoin a redundant generator x with defining relator x * word^-1."""
    if name in mt.generators:
        raise ValueError(f"generator name {name!r} already in use")
    w = _check_indices(word, mt.rank)
    new_index = mt.rank + 1
    relator = free_reduce((new_index,) + word_inverse(w))
    return replace(
        mt,
        generators=mt.generators + (name,),
        fiber_values=mt.fiber_values + (mt.degree(w),),
        relators=mt.relators + (relator,),
    )


def permute_generators(mt: MappingTorusPresentation,
                       order: Iterable[int]) -> MappingTorusPresentation:
    """The same group with its generators listed in `order`, the old index
    of each new generator: names, degree values, relator letters and the
    stable index follow their generators."""
    order = tuple(order)
    if sorted(order) != list(range(1, mt.rank + 1)):
        raise ValueError(f"order must be a permutation of 1..{mt.rank}")
    new = {old: j for j, old in enumerate(order, 1)}
    return replace(
        mt,
        generators=tuple(mt.generators[i - 1] for i in order),
        fiber_values=tuple(mt.fiber_values[i - 1] for i in order),
        relators=tuple(tuple(new[x] if x > 0 else -new[-x] for x in r)
                       for r in mt.relators),
        stable_index=new[mt.stable_index])


def mat_inverse(m):
    """Dense exact Gauss-Jordan inverse of a square matrix of scalars;
    ValueError when singular."""
    k = len(m)
    left = [list(row) for row in m]
    right = [[int(i == j) for j in range(k)] for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if left[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        left[col], left[pivot] = left[pivot], left[col]
        right[col], right[pivot] = right[pivot], right[col]
        inv = scalar_inverse(left[col][col])
        left[col] = [as_exact(e * inv) for e in left[col]]
        right[col] = [as_exact(e * inv) for e in right[col]]
        for r in range(k):
            if r == col:
                continue
            factor = left[r][col]
            if not factor:
                continue
            left[r] = [as_exact(x - factor * y)
                       for x, y in zip(left[r], left[col])]
            right[r] = [as_exact(x - factor * y)
                        for x, y in zip(right[r], right[col])]
    return tuple(tuple(row) for row in right)


# ---------------------------------------------------------------------------
# scalars: complex conjugation
# ---------------------------------------------------------------------------


def complex_conjugate(value):
    """Complex conjugate of an exact scalar: zeta_n^k goes to zeta_n^(n-k),
    and a rational is its own conjugate."""
    if not isinstance(value, Cyclotomic):
        return value
    n = value.conductor
    raw = [0] * n
    for k, c in enumerate(value.coeffs):
        raw[-k % n] = c
    return Cyclotomic(n, raw)


# ---------------------------------------------------------------------------
# scalar matrices: dense copies and characteristic polynomials
# ---------------------------------------------------------------------------


def dense(m: SparseMatrix) -> ScalarMatrix:
    """The dense square matrix of sparse rows, zeros filled in."""
    k = len(m)
    out = []
    for row in m:
        grid_row = [0] * k
        for j, e in row:
            grid_row[j] = e
        out.append(tuple(grid_row))
    return tuple(out)


def dense_charpoly(matrix) -> list:
    """[c_0, ..., c_n] with det(xI - A) = sum c_k x^(n-k), for a square
    tuple-of-tuples matrix A of exact scalars.

    Berkowitz's division-free algorithm (1984): with A[k:, k:] = [[a, R],
    [C, B]], the vector of A[k:, k:] is the lower-triangular Toeplitz matrix
    of (1, -a, -RC, -RBC, ...) times the vector of B.  No scalar is divided.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("characteristic polynomial of a non-square matrix")
    coeffs = [1]
    for k in range(n - 1, -1, -1):
        r_row, block = matrix[k][k + 1:], [row[k + 1:] for row in matrix[k + 1:]]
        col = [row[k] for row in matrix[k + 1:]]
        toeplitz = [1, -matrix[k][k]]
        for step in range(n - k - 1):
            if step:
                col = [sum(a * c for a, c in zip(row, col) if a and c)
                       for row in block]
            toeplitz.append(-sum(a * c for a, c in zip(r_row, col) if a and c))
        coeffs = [sum(toeplitz[i - j] * coeffs[j]
                      for j in range(min(i + 1, len(coeffs))))
                  for i in range(n - k + 1)]
    return coeffs


def monomial_charpoly(rows: SparseMatrix) -> list:
    """[c_0, ..., c_n] with det(xI - F) = sum c_k x^(n-k), for a monomial
    F (one nonzero entry in each row and each column) given as sparse
    rows: the product, over the cycles of F's pattern, of x^l minus the
    product of the cycle's l entries.  ValueError when F is not monomial."""
    step = {}
    for i, row in enumerate(rows):
        if len(row) != 1:
            raise ValueError(f"row {i} of a monomial matrix has {len(row)} "
                             "entries")
        step[i] = row[0]
    if sorted(j for j, _ in step.values()) != list(range(len(rows))):
        raise ValueError("columns of a monomial matrix repeat")
    coeffs, seen = [1], set()
    for start in range(len(rows)):
        if start in seen:
            continue
        length, weight, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            i, entry = step[i]
            length, weight = length + 1, weight * entry
        factor = [1] + [0] * (length - 1) + [-weight]
        coeffs = [sum(coeffs[j] * factor[d - j]
                      for j in range(len(coeffs)) if 0 <= d - j <= length)
                  for d in range(len(coeffs) + length)]
    return coeffs


# ---------------------------------------------------------------------------
# polynomial matrices as dense grids
# ---------------------------------------------------------------------------

ZERO = LaurentPolynomial.zero()


def poly_matrix(rows: int, cols: int, grid) -> PolyMatrix:
    """The PolyMatrix of a dense rows x cols grid of entries (polynomials
    or scalars), built through `PolyMatrix.build`."""
    grid = [list(row) for row in grid]
    if len(grid) != rows or any(len(row) != cols for row in grid):
        raise ValueError("entry grid does not match declared shape")
    return PolyMatrix.build(rows, cols, lambda i, j: grid[i][j])


def dense_entries(m: PolyMatrix) -> tuple:
    """The entries of m as a dense grid (a tuple of row tuples), zeros
    included."""
    grid = [[ZERO] * m.cols for _ in range(m.rows)]
    for i, row in enumerate(m.sparse):
        for j, e in row:
            grid[i][j] = e
    return tuple(map(tuple, grid))


def canonical_rows(m: PolyMatrix) -> bool:
    """Whether m stores exactly its nonzero entries: one tuple per row, of
    (column, entry) pairs with columns ascending and in range, and every
    entry a nonzero LaurentPolynomial."""
    return type(m.sparse) is tuple and len(m.sparse) == m.rows and all(
        type(row) is tuple
        and [j for j, _ in row] == sorted({j for j, _ in row})
        and all(0 <= j < m.cols and type(e) is LaurentPolynomial and e.terms
                for j, e in row)
        for row in m.sparse)


def dense_product(a, b, cols: int) -> tuple:
    """The product of dense grids a (n x k) and b (k x cols)."""
    return tuple(tuple(sum((row[l] * b[l][j] for l in range(len(b))), ZERO)
                       for j in range(cols)) for row in a)


def dense_map(f, *grids) -> tuple:
    """f applied entry by entry to grids of one shape."""
    return tuple(tuple(map(f, *rows)) for rows in zip(*grids))


def dense_transpose(a, cols: int) -> tuple:
    return tuple(tuple(row[j] for row in a) for j in range(cols))


def leibniz_determinant(a) -> LaurentPolynomial:
    """The determinant of a square dense grid as a sum over permutations."""
    total = ZERO
    for perm in permutations(range(len(a))):
        sign = (-1) ** sum(p > q for i, p in enumerate(perm)
                           for q in perm[i + 1:])
        term = LaurentPolynomial.constant(sign)
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total + term
    return total


def _script(name: str):
    """The module of `scripts/<name>.py`, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# affine:n of the canonical presentation of a closed-fiber mapping torus:
# the permutation representation on the points of (Z/n)^(2g) in which the
# fiber generators translate by the unit vectors and the stable letter acts
# by the monodromy's matrix on H1 of the fiber; the timing script owns it
affine_rep = _script("large_rep_timings").affine_rep


def conjugate(rep: FiniteRepresentation,
              change_of_basis) -> FiniteRepresentation:
    """The representation X M X^-1 for the change of basis X."""
    x = _mat_freeze(change_of_basis, rep.dimension)
    left, right = _sparse(x), _sparse(mat_inverse(x))
    return FiniteRepresentation(
        rep.dimension,
        tuple(dense(_sparse_mul(_sparse_mul(left, _sparse(m)), right))
              for m in rep.matrices))


StretchFactor.power = stretch_power
StretchFactor.refined_to = refined_to
Dilatation.power = dilatation_power
MappingTorusPresentation.cycle_relator = cycle_relator
MappingTorusPresentation.invert_relator = invert_relator
MappingTorusPresentation.conjugate_relator = conjugate_relator
MappingTorusPresentation.add_generator = add_generator
MappingTorusPresentation.permute_generators = permute_generators
FiniteRepresentation.conjugate = conjugate
