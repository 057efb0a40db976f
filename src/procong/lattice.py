"""Integer linear algebra.

The integer Smith form (the diagonal and the column transform), from which
`torus` reads the solution module of X A = B X over every Z/n, and the one
extended Euclid `ext_gcd`.  Nothing here touches the exact fields of
`kernel`, so a request that decides conjugacy of 2x2 integer matrices
imports this module alone.
"""

from __future__ import annotations


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

