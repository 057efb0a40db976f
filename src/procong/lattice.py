"""Integer and Z/n linear algebra.

The integer Smith form (the diagonal and the column transform), the one
extended Euclid `ext_gcd`, the Howell basis of a submodule of (Z/n)^k and
an ordered walk over its points.  Nothing here touches the exact fields of
`kernel`, so a request that decides conjugacy of 2x2 integer matrices
imports this module alone.
"""

from __future__ import annotations

import math


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and friends
# ---------------------------------------------------------------------------

def ext_gcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0, by extended Euclid."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_integer(matrix):
    """Integer Smith form: returns (diag, V) with U * M * V diagonal for
    some unimodular U, which is not built.

    `matrix` is a list of lists of ints; diag is the list of nonnegative
    diagonal entries (zeros trailing), V unimodular.
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(dst, src, q):
        m[dst] = [a - q * b for a, b in zip(m[dst], m[src])]

    def col_op(dst, src, q):
        for i in range(rows):
            m[i][dst] -= q * m[i][src]
        for i in range(cols):
            v[i][dst] -= q * v[i][src]

    def col_swap(a, b):
        for i in range(rows):
            m[i][a], m[i][b] = m[i][b], m[i][a]
        for i in range(cols):
            v[i][a], v[i][b] = v[i][b], v[i][a]

    pr = 0
    for pc in range(min(rows, cols)):
        pivot = None
        for i in range(pr, rows):
            for j in range(pr, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i0, j0 = pivot
            if i0 != pr:
                m[pr], m[i0] = m[i0], m[pr]
            if j0 != pr:
                col_swap(pr, j0)
            done = True
            for i in range(pr + 1, rows):
                if m[i][pr] != 0:
                    q = m[i][pr] // m[pr][pr]
                    row_op(i, pr, q)
                    if m[i][pr] != 0:
                        m[pr], m[i] = m[i], m[pr]
                        done = False
                        break
            if not done:
                pivot = (pr, pr)
                continue
            for j in range(pr + 1, cols):
                if m[pr][j] != 0:
                    q = m[pr][j] // m[pr][pr]
                    col_op(j, pr, q)
                    if m[pr][j] != 0:
                        col_swap(pr, j)
                        done = False
                        break
            if done:
                break
            pivot = (pr, pr)
        if m[pr][pr] < 0:
            m[pr] = [-a for a in m[pr]]
        pr += 1

    # the divisibility chain d_i | d_j: one ext_gcd step per pair that
    # breaks it puts (gcd, lcm) on the diagonal by a unimodular change of
    # columns i and j of V
    diag = [m[i][i] for i in range(min(rows, cols))]
    for i in range(pr):
        for j in range(i + 1, pr):
            a, b = diag[i], diag[j]
            if b % a:
                g, s, t = ext_gcd(a, b)
                diag[i], diag[j] = g, a * b // g
                for row in v:
                    x, y = row[i], row[j]
                    row[i], row[j] = s * x + t * y, (a * y - b * x) // g
    return diag, v


# ---------------------------------------------------------------------------
# modules over Z/n: Howell form
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
        g = math.gcd(pivot[c], n)
        m = n // g
        inverse = pow(pivot[c] // g, -1, m)
        unit = next(u for u in range(inverse, n, m) if math.gcd(u, n) == 1)
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
    walking the cosets upwards row by row is the lexicographic order; a
    caller that looks for the least point with some property stops at the
    first one.
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
