"""Conjugacy of unimodular 2x2 integer matrices, exactly and modulo n.

Three layers:

* `sl2_conjugate` decides conjugacy in SL(2,Z) with a verified witness or a
  distinguishing invariant.  Hyperbolic classes are decided through the cyclic
  R/L word read off the continued fraction of the attracting fixed point;
  parabolic classes through the integer twist invariant; elliptic classes by
  reducing the fixed point into the fundamental domain of the modular group.
* `congruent_conjugate_mod` decides conjugacy in GL(2,Z/n) by solving the
  linear commutation system X A = B X over Z/n (one integer Smith form, reused
  for every modulus) and searching the solution module for a unit-determinant
  point prime power by prime power.
* `congruence_sweep` runs the mod-n test over a range of levels and reports
  whether the pair looks procongruently conjugate without being SL(2,Z)
  conjugate.  `characteristic_level` computes the lattice d with
  d.Z^2 = (intersection of all subgroups of Z^2 of index <= n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from math import gcd, isqrt
from typing import Optional, Tuple

from .kernel import integer_kernel_basis, smith_integer


class Mat2:
    """Immutable 2x2 integer matrix with exact arithmetic."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        for v in (a, b, c, d):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError("matrix entries must be integers")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("Mat2 values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    @staticmethod
    def from_rows(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(a, b, c, d)

    @staticmethod
    def from_string(text: str) -> "Mat2":
        """Parse the CLI matrix format "a,b;c,d"."""
        try:
            row_parts = text.strip().split(";")
            if len(row_parts) != 2:
                raise ValueError
            rows = [[int(x) for x in part.split(",")] for part in row_parts]
            if any(len(r) != 2 for r in rows):
                raise ValueError
        except ValueError:
            raise ValueError(f"matrix must look like 'a,b;c,d', got {text!r}") from None
        return Mat2.from_rows(rows)

    def to_string(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return self + (-other)

    def scale(self, k: int) -> "Mat2":
        return Mat2(k * self.a, k * self.b, k * self.c, k * self.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return Mat2(-self.d, self.b, self.c, -self.a)
        raise ValueError("only unimodular matrices invert over Z")

    def power(self, m: int) -> "Mat2":
        if m < 0:
            return self.inverse().power(-m)
        out = Mat2.identity()
        base = self
        while m:
            if m & 1:
                out = out @ base
            base = base @ base
            m >>= 1
        return out

    def mod(self, n: int) -> "Mat2":
        return Mat2(self.a % n, self.b % n, self.c % n, self.d % n)

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def is_central(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def nonnegative(self) -> bool:
        return self.a >= 0 and self.b >= 0 and self.c >= 0 and self.d >= 0

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"Mat2({self.a},{self.b};{self.c},{self.d})"


R_LETTER = Mat2(1, 1, 0, 1)
L_LETTER = Mat2(1, 0, 1, 1)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SL2Verdict:
    conjugate: bool
    witness: Optional[Mat2]
    reason: str

    def to_json(self):
        return {
            "conjugate": self.conjugate,
            "witness": self.witness.to_string() if self.witness else None,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ModVerdict:
    modulus: int
    conjugate: bool
    witness: Optional[Mat2]

    def to_json(self):
        return {
            "modulus": self.modulus,
            "conjugate": self.conjugate,
            "witness": self.witness.to_string() if self.witness else None,
        }


# ---------------------------------------------------------------------------
# SL(2,Z) conjugacy
# ---------------------------------------------------------------------------

def _require_unimodular(*mats):
    for m in mats:
        if m.det() != 1:
            raise ValueError(f"matrix {m.to_string()} has determinant {m.det()}, need 1")


def _complete_to_sl2(p: int, q: int) -> Mat2:
    """Extend the primitive column (p, q) to a matrix in SL(2,Z)."""
    g, x, y = _ext_gcd(p, q)
    if g != 1:
        raise ValueError("column is not primitive")
    # p*x + q*y = 1 -> det [[p, -y], [q, x]] = p*x + q*y = 1
    return Mat2(p, -y, q, x)


def _ext_gcd(a: int, b: int):
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


def _parabolic_data(m: Mat2):
    """Invariant (eps, k) and reducing V with V^-1 m V = [[eps,k],[0,eps]]."""
    eps = m.trace() // 2
    n11, n12 = m.a - eps, m.b
    n21, n22 = m.c, m.d - eps
    col = (n11, n21) if (n11, n21) != (0, 0) else (n12, n22)
    g = gcd(abs(col[0]), abs(col[1]))
    p, q = col[0] // g, col[1] // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    # solve (n11, n21) = z1 * (p, q), (n12, n22) = z2 * (p, q)
    def ratio(x, y):
        if p != 0:
            if x % p or x // p * q != y:
                raise AssertionError("rank-1 decomposition failed")
            return x // p
        if y % q:
            raise AssertionError("rank-1 decomposition failed")
        return y // q
    z1 = ratio(n11, n21)
    z2 = ratio(n12, n22)
    # z = k * (-q, p)
    if q != 0:
        if z1 % q:
            raise AssertionError("twist invariant is not integral")
        k = -(z1 // q)
    else:
        k = z2 // p
    if (z1, z2) != (-k * q, k * p):
        raise AssertionError("twist invariant decomposition failed")
    v = _complete_to_sl2(p, q)
    reduced = v.inverse() @ m @ v
    if reduced != Mat2(eps, k, 0, eps):
        raise AssertionError("parabolic normal form mismatch")
    return eps, k, v


_S = Mat2(0, -1, 1, 0)
_T = Mat2(1, 1, 0, 1)


def _elliptic_reduce(m: Mat2):
    """Conjugate m so its fixed point is a corner of the fundamental domain.

    Returns (v, reduced) with reduced = v^-1 m v stabilizing i (trace 0) or
    the hexagonal corner (1 + sqrt(-3))/2 (trace +-1).
    """
    t = m.trace()
    disc = 4 - t * t
    if m.c > 0:
        p, q = m.a - m.d, 2 * m.c
    elif m.c < 0:
        p, q = m.d - m.a, -2 * m.c
    else:
        raise AssertionError("elliptic matrix cannot be triangular")
    v = Mat2.identity()
    for _ in range(10000):
        if (p * p + disc) % q:
            raise AssertionError("surd invariant broke")
        k = (2 * p + q) // (2 * q)
        if k:
            p -= k * q
            v = v @ _T.power(k)
        if p * p + disc < q * q:
            p, q = -p, (p * p + disc) // q
            v = v @ _S.inverse()
        else:
            break
    else:
        raise AssertionError("fixed point reduction did not terminate")
    if disc == 3 and (p, q) == (-1, 2):
        p, q = p + q, q
        v = v @ _T.inverse()
    if not ((disc == 4 and (p, q) == (0, 2)) or (disc == 3 and (p, q) == (1, 2))):
        raise AssertionError(f"fixed point missed the corners: ({p}+sqrt(-{disc}))/{q}")
    return v, v.inverse() @ m @ v


def _cf_reduce_nonnegative(m: Mat2):
    """Conjugate a trace>2 matrix into SL(2,N) by continued fraction steps.

    Each step conjugates by [[k,1],[1,0]] (determinant -1), so we only stop
    after an even number of steps; the accumulated v then lies in SL(2,Z) and
    v^-1 m v is a nonnegative R/L word.
    """
    t = m.trace()
    disc = t * t - 4
    f = isqrt(disc)
    if f * f == disc:
        raise AssertionError("hyperbolic discriminant cannot be a square")
    p, q = m.a - m.d, 2 * m.c
    v = Mat2.identity()
    cur = m
    for step in range(100000):
        if step % 2 == 0 and cur.nonnegative():
            if cur.b < 1 or cur.c < 1:
                raise AssertionError("nonnegative hyperbolic word must mix letters")
            return v, cur
        if q > 0:
            k = (p + f) // q
        else:
            k = -((p + f - q) // (-q))
        tilt = Mat2(k, 1, 1, 0)
        cur = tilt.inverse() @ cur @ tilt
        v = v @ tilt
        p_new = k * q - p
        q, p = (disc - p_new * p_new) // q, p_new
    raise AssertionError("continued fraction reduction did not terminate")


def rl_word(m: Mat2):
    """Greedy R/L run peeling of a nonnegative determinant-1 matrix.

    Returns the letter string as a list of "R"/"L"; the empty list for the
    identity.  Raises if the matrix is not a word in R = [[1,1],[0,1]] and
    L = [[1,0],[1,1]].
    """
    a, b, c, d = m.entries()
    if min(a, b, c, d) < 0 or a * d - b * c != 1:
        raise ValueError("R/L words require a nonnegative determinant-1 matrix")
    out = []
    while (a, b, c, d) != (1, 0, 0, 1):
        if a >= c and b >= d:
            k = b // d if c == 0 else min(a // c, b // d)
            if k < 1:
                raise AssertionError("run peeling stalled")
            a, b = a - k * c, b - k * d
            out.extend("R" * k)
        elif c >= a and d >= b:
            k = c // a if b == 0 else min(c // a, d // b)
            if k < 1:
                raise AssertionError("run peeling stalled")
            c, d = c - k * a, d - k * b
            out.extend("L" * k)
        else:
            raise AssertionError("nonnegative matrix escaped the R/L monoid")
    return out


def _word_matrix(letters) -> Mat2:
    m = Mat2.identity()
    for letter in letters:
        m = m @ (R_LETTER if letter == "R" else L_LETTER)
    return m


def _least_rotation(letters):
    """Index of the lexicographically least rotation of a letter list."""
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


def hyperbolic_cyclic_word(m: Mat2):
    """Canonical cyclic R/L word of a |trace| > 2 unimodular matrix.

    Returns (word, v) where word is the canonical letter tuple and v in
    SL(2,Z) conjugates sign(trace) * m onto the word's matrix.
    """
    sign = 1 if m.trace() > 0 else -1
    base = m if sign == 1 else -m
    v, reduced = _cf_reduce_nonnegative(base)
    letters = rl_word(reduced)
    shift = _least_rotation(letters)
    prefix = _word_matrix(letters[:shift])
    canonical = tuple(letters[shift:] + letters[:shift])
    v_total = v @ prefix
    if v_total.inverse() @ base @ v_total != _word_matrix(canonical):
        raise AssertionError("cyclic word reduction lost the conjugator")
    return canonical, v_total


def sl2_conjugate(a: Mat2, b: Mat2) -> SL2Verdict:
    """Decide conjugacy in SL(2,Z), with a verified witness when conjugate."""
    _require_unimodular(a, b)
    if a == b:
        return SL2Verdict(True, Mat2.identity(), "equal matrices")
    if a.trace() != b.trace():
        return SL2Verdict(False, None,
                          f"trace mismatch ({a.trace()} vs {b.trace()})")
    if a.is_central() or b.is_central():
        return SL2Verdict(False, None,
                          "central matrices are conjugate only to themselves")
    t = abs(a.trace())
    if t == 2:
        eps_a, k_a, v_a = _parabolic_data(a)
        eps_b, k_b, v_b = _parabolic_data(b)
        if (eps_a, k_a) != (eps_b, k_b):
            return SL2Verdict(False, None,
                              f"distinct parabolic twist invariants ({k_a} vs {k_b})")
        witness = v_b @ v_a.inverse()
        reason = f"matching parabolic twist invariant {k_a}"
    elif t < 2:
        v_a, red_a = _elliptic_reduce(a)
        v_b, red_b = _elliptic_reduce(b)
        if red_a != red_b:
            return SL2Verdict(False, None, "distinct elliptic normal forms")
        witness = v_b @ v_a.inverse()
        reason = "matching elliptic normal form"
    else:
        word_a, v_a = hyperbolic_cyclic_word(a)
        word_b, v_b = hyperbolic_cyclic_word(b)
        if word_a != word_b:
            return SL2Verdict(False, None, "inequivalent cyclic R/L words")
        witness = v_b @ v_a.inverse()
        reason = "matching cyclic R/L word"
    if witness.det() != 1 or witness @ a @ witness.inverse() != b:
        raise AssertionError("conjugacy witness failed verification")
    return SL2Verdict(True, witness, reason)


# ---------------------------------------------------------------------------
# conjugacy in GL(2, Z/n)
# ---------------------------------------------------------------------------

def _crt_pair(r1: int, m1: int, r2: int, m2: int):
    g, s, _ = _ext_gcd(m1, m2)
    if g != 1:
        raise ValueError("moduli must be coprime")
    return (r1 + (r2 - r1) * s % m2 * m1) % (m1 * m2)


def factorize(n: int):
    """Prime power factorization as a list of (p, e)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


class CommutationSolver:
    """Solution module of X A = B X over Z/n, shared across all moduli.

    One integer Smith form of the 4x4 commutation operator describes the
    solution set for every n at once: writing U T V = diag(d_i), the solutions
    mod n are V y with d_i y_i = 0 mod n.  Unit-determinant solutions are
    searched prime power by prime power and glued with the Chinese remainder
    theorem.
    """

    LEX_SEARCH_CAP = 4096

    def __init__(self, a: Mat2, b: Mat2):
        self.a = a
        self.b = b
        basis = [Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(0, 0, 0, 1)]
        columns = [(e @ a - b @ e).entries() for e in basis]
        op = [[columns[j][i] for j in range(4)] for i in range(4)]
        diag, _, v = smith_integer(op)
        self.diag = diag + [0] * (4 - len(diag))
        self.v_cols = [Mat2(v[0][j], v[1][j], v[2][j], v[3][j]) for j in range(4)]

    def _combine(self, coeffs, n: int) -> Mat2:
        x = Mat2(0, 0, 0, 0)
        for t_val, col in zip(coeffs, self.v_cols):
            if t_val:
                x = x + col.scale(t_val)
        return x.mod(n)

    def _free_directions(self, q: int):
        return [i for i in range(4) if gcd(self.diag[i], q) == q]

    def witness_mod_prime_power(self, p: int, e: int) -> Optional[Mat2]:
        """A solution with determinant a unit mod p^e, or None."""
        q = p ** e
        free = self._free_directions(q)
        if not free:
            return None
        # the determinant restricted to the free directions is a quadratic
        # form; over F_p with p >= 3 a nonzero form takes a nonzero value on
        # {0,1,2}^free, and for p = 2 the whole cube is only 2^|free| points
        search = range(p) if p == 2 else range(3)
        coords = [0, 0, 0, 0]
        if self._grid_search(free, search, coords, 0, p):
            x = self._combine(coords, q)
            self.verify(x, q)
            return x
        return None

    def _grid_search(self, free, search, coords, idx, p) -> bool:
        if idx == len(free):
            det = self._combine(coords, p).det() % p
            return det != 0
        for value in search:
            coords[free[idx]] = value
            if self._grid_search(free, search, coords, idx + 1, p):
                return True
        coords[free[idx]] = 0
        return False

    def witness_mod(self, n: int) -> Optional[Mat2]:
        """Deterministic unit-determinant solution mod n, or None."""
        if n == 1:
            return Mat2.identity().mod(1)
        if (self.a.det() - 1) % n or (self.b.det() - 1) % n:
            raise ValueError("matrices must have determinant 1 mod n")
        if self.a.mod(n) == self.b.mod(n):
            return Mat2.identity().mod(n)
        lex = self._lex_least_under_cap(n)
        if lex is not None:
            return lex if isinstance(lex, Mat2) else None
        parts = []
        for p, e in factorize(n):
            w = self.witness_mod_prime_power(p, e)
            if w is None:
                return None
            parts.append((w, p ** e))
        x, modulus = parts[0]
        for w, q in parts[1:]:
            merged = Mat2(*(
                _crt_pair(x_ent, modulus, w_ent, q)
                for x_ent, w_ent in zip(x.entries(), w.entries())))
            x, modulus = merged, modulus * q
        x = x.mod(n)
        self.verify(x, n)
        return x

    def _lex_least_under_cap(self, n: int):
        """Full enumeration of the solution module when it is small.

        Returns the lexicographically least unit witness, False if none
        exists, or None when the module is too large to enumerate.
        """
        sizes = [gcd(d, n) for d in self.diag]
        total = 1
        for s in sizes:
            total *= max(s, 1)
        if total > self.LEX_SEARCH_CAP:
            return None
        best = None
        steps = [n // max(s, 1) for s in sizes]
        coords = [0, 0, 0, 0]
        def rec(idx):
            nonlocal best
            if idx == 4:
                x = self._combine([c * s for c, s in zip(coords, steps)], n)
                if gcd(x.det(), n) == 1:
                    if best is None or x.entries() < best.entries():
                        self.verify(x, n)
                        best = x
                return
            for value in range(max(sizes[idx], 1)):
                coords[idx] = value
                rec(idx + 1)
            coords[idx] = 0
        rec(0)
        return best if best is not None else False

    def verify(self, x: Mat2, n: int):
        if gcd(x.det(), n) != 1:
            raise AssertionError("witness determinant is not a unit")
        if ((x @ self.a) - (self.b @ x)).mod(n) != Mat2(0, 0, 0, 0):
            raise AssertionError("witness does not intertwine the pair")


def congruent_conjugate_mod(a: Mat2, b: Mat2, n: int) -> ModVerdict:
    """Decide conjugacy of a and b in GL(2, Z/n)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"modulus must be a positive integer, got {n!r}")
    solver = CommutationSolver(a, b)
    witness = solver.witness_mod(n)
    return ModVerdict(n, witness is not None, witness)


# ---------------------------------------------------------------------------
# characteristic levels
# ---------------------------------------------------------------------------

def characteristic_level(n: int) -> int:
    """The d >= 1 with d.Z^2 = intersection of all index-<=n subgroups of Z^2.

    Every subgroup of index m contains m.Z^2, and the coordinate subgroups of
    index m intersect in exactly m.Z^2, so the intersection over all m <= n is
    lcm(1..n).Z^2.
    """
    if n < 1:
        raise ValueError("level must be a positive integer")
    return reduce(math.lcm, range(1, n + 1), 1)


def characteristic_level_bruteforce(n: int) -> int:
    """Direct computation: enumerate all sublattices of index <= n by their
    upper-triangular (Hermite) bases and intersect them."""
    if n < 1:
        raise ValueError("level must be a positive integer")
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
# sweeps
# ---------------------------------------------------------------------------

REPORT_NOTE = ("levels test conjugacy on the quotients (Z/n)^2; these are "
               "characteristic subgroups and, by the lcm structure of the "
               "intersection lattices, cofinal with the full characteristic "
               "tower, so a full pass carries the same information")


@dataclass(frozen=True)
class CongruenceReport:
    matrix_a: Mat2
    matrix_b: Mat2
    max_modulus: int
    verdicts: Tuple[ModVerdict, ...]
    sl2: SL2Verdict
    note: str = REPORT_NOTE

    @property
    def all_levels_pass(self) -> bool:
        return all(v.conjugate for v in self.verdicts)

    @property
    def first_failure(self) -> Optional[int]:
        for v in self.verdicts:
            if not v.conjugate:
                return v.modulus
        return None

    @property
    def procongruence_candidate(self) -> bool:
        return self.all_levels_pass and not self.sl2.conjugate

    def to_json(self):
        return {
            "matrix_a": self.matrix_a.to_string(),
            "matrix_b": self.matrix_b.to_string(),
            "max_modulus": self.max_modulus,
            "note": self.note,
            "sl2": self.sl2.to_json(),
            "levels": [v.to_json() for v in self.verdicts],
            "all_levels_pass": self.all_levels_pass,
            "first_failure": self.first_failure,
            "procongruence_candidate": self.procongruence_candidate,
        }

    def render_text(self) -> str:
        lines = [
            f"pair A = {self.matrix_a.to_string()}  B = {self.matrix_b.to_string()}",
            f"note: {self.note}",
            f"SL(2,Z): {'conjugate' if self.sl2.conjugate else 'not conjugate'}"
            f" ({self.sl2.reason})",
        ]
        if self.sl2.witness is not None:
            lines.append(f"SL(2,Z) witness: {self.sl2.witness.to_string()}")
        fails = [v for v in self.verdicts if not v.conjugate]
        lines.append(f"levels tested: 1..{self.max_modulus}; "
                     f"failures: {len(fails)}")
        if fails:
            lines.append(f"first failing level: {fails[0].modulus}")
        else:
            lines.append("all levels conjugate")
        lines.append("procongruence candidate: "
                     + ("yes" if self.procongruence_candidate else "no"))
        return "\n".join(lines)


def congruence_sweep(a: Mat2, b: Mat2, max_n: int) -> CongruenceReport:
    """Test GL(2,Z/n) conjugacy for n = 1..max_n and summarize."""
    _require_unimodular(a, b)
    if max_n < 1:
        raise ValueError("sweep bound must be a positive integer")
    solver = CommutationSolver(a, b)
    verdicts = []
    for n in range(1, max_n + 1):
        witness = solver.witness_mod(n)
        verdicts.append(ModVerdict(n, witness is not None, witness))
    return CongruenceReport(a, b, max_n, tuple(verdicts), sl2_conjugate(a, b))
