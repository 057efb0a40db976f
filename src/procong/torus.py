"""Conjugacy of unimodular 2x2 integer matrices, exactly and modulo n.

Three layers:

* `sl2_conjugate` decides conjugacy in SL(2,Z) with a verified witness or a
  distinguishing invariant.  Hyperbolic classes are decided through the cyclic
  R/L word read off the continued fraction of the attracting fixed point;
  parabolic classes through the integer twist invariant; elliptic classes by
  reducing the fixed point into the fundamental domain of the modular group.
* `congruent_conjugate_mod` decides conjugacy in GL(2,Z/n) by solving the
  linear commutation system X A = B X over Z/n (one integer Smith form, reused
  for every modulus) and finding a unit-determinant point of the solution
  module prime power by prime power, glued by the Chinese remainder theorem;
  a pair whose traces differ mod n is not conjugate there, and is answered
  without factoring n.
* `congruence_sweep` tests every level 1..N in one pass, gluing each
  level's smallest prime power (read off one sieve) onto its cofactor's
  residue by one CRT step, and reports whether the pair looks procongruently
  conjugate without being SL(2,Z) conjugate.  `characteristic_level`
  computes the lattice d with d.Z^2 = (intersection of all subgroups of Z^2
  of index <= n).

The verdicts and reports are plain records; `cli` renders them.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import count, product
from math import gcd, isqrt
from operator import mul, sub
from typing import Optional, Tuple

from .lattice import ext_gcd, smith_integer
from .record import Record, parse_int


class Mat2(Record):
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
        """Parse the CLI matrix format "a,b;c,d", each entry an integer as
        `parse_int` reads it, with optional spaces around it."""
        shape = f"matrix must look like 'a,b;c,d', got {text!r}"
        try:
            rows = [part.split(",") for part in text.split(";")]
        except AttributeError:
            raise ValueError(shape) from None
        entries = [parse_int(x.strip(), "matrix entries")
                   for row in rows for x in row]
        if [len(row) for row in rows] != [2, 2] or None in entries:
            raise ValueError(shape)
        return Mat2(*entries)

    def to_string(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"

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


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class SL2Verdict(Record):
    def __init__(self, conjugate: bool, witness: Optional[Mat2], reason: str):
        self.__dict__.update(conjugate=conjugate, witness=witness,
                             reason=reason)


class ModVerdict(Record):
    def __init__(self, modulus: int, conjugate: bool, witness: Optional[Mat2]):
        self.__dict__.update(modulus=modulus, conjugate=conjugate,
                             witness=witness)


# ---------------------------------------------------------------------------
# SL(2,Z) conjugacy
# ---------------------------------------------------------------------------

def _require_unimodular(*mats):
    for m in mats:
        if m.det() != 1:
            raise ValueError(f"matrix {m.to_string()} has determinant {m.det()}, need 1")


def _complete_to_sl2(p: int, q: int) -> Mat2:
    """Extend the primitive column (p, q) to a matrix in SL(2,Z)."""
    g, x, y = ext_gcd(p, q)
    if g != 1:
        raise ValueError("column is not primitive")
    # p*x + q*y = 1 -> det [[p, -y], [q, x]] = p*x + q*y = 1
    return Mat2(p, -y, q, x)


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
    v = _complete_to_sl2(p, q)
    reduced = v.inverse() @ m @ v
    if (reduced.a, reduced.c, reduced.d) != (eps, 0, eps):
        raise AssertionError("parabolic normal form mismatch")
    return eps, reduced.b, v


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


def rl_runs(m: Mat2):
    """Factor a determinant-1 matrix as sign * R^k1 L^k2 R^k3 ...

    Euclid on the first column (a, c): R^k is peeled off the left while
    |a| > |c| and L^k otherwise, until c = 0 leaves sign * R^(sign*b).
    Returns (sign, runs), runs a list of ("R" | "L", k) with k nonzero and
    alternating letters.  On a nonnegative matrix every k is positive, so the
    runs spell its word in the free monoid SL(2,N) on R = [[1,1],[0,1]] and
    L = [[1,0],[1,1]].
    """
    a, b, c, d = m.entries()
    if a * d - b * c != 1:
        raise ValueError("R/L runs need a determinant-1 matrix")
    runs = []
    if a == 0:                      # then c = +-1, and R^c m has a = 1
        runs.append(("R", -c))
        a, b = 1, b + c * d
    while c:
        flip = (a < 0) != (c < 0)
        if abs(a) > abs(c):         # |a - k c| lands in [1, |c|]
            k = (abs(a) - 1) // abs(c)
            k = -k if flip else k
            a, b = a - k * c, b - k * d
            runs.append(("R", k))
        else:                       # |c - k a| lands in [0, |a|)
            k = abs(c) // abs(a)
            k = -k if flip else k
            c, d = c - k * a, d - k * b
            runs.append(("L", k))
    if b:                           # a = d = sign
        runs.append(("R", a * b))
    return a, runs


def _runs_matrix(runs) -> Mat2:
    """The product of (letter, k) runs: R^k = [[1,k],[0,1]] and
    L^k = [[1,0],[k,1]]."""
    m = Mat2.identity()
    for letter, k in runs:
        m = m @ (Mat2(1, k, 0, 1) if letter == "R" else Mat2(1, 0, k, 1))
    return m


def hyperbolic_cyclic_word(m: Mat2):
    """Canonical cyclic R/L word of a |trace| > 2 unimodular matrix.

    Returns (runs, v).  The runs (("L", k1), ("R", k2), ...), every k >= 1
    and the letters alternating around the cycle, spell the least rotation
    of the cyclic letter word, the first least one when the word is
    periodic.  v in SL(2,Z) conjugates sign(trace) * m onto their matrix.
    """
    sign = 1 if m.trace() > 0 else -1
    base = m if sign == 1 else -m
    v, reduced = _cf_reduce_nonnegative(base)
    one, runs = rl_runs(reduced)
    if one != 1 or any(k < 1 for _, k in runs):
        raise AssertionError("nonnegative matrix escaped the R/L monoid")
    # the cycle's runs, each at its first letter in `runs`: the last run
    # absorbs the first when they share a letter, so cyclic[i] starts where
    # runs[head + i] does
    head = int(runs[0][0] == runs[-1][0])
    cyclic = runs[head:-1] + [(runs[-1][0], runs[-1][1] + head * runs[0][1])]
    # a least letter rotation starts at an L run, and two of those compare
    # letter by letter as their run lengths (-L, R, -L, R, ...) compare
    start = min((i for i, (letter, _) in enumerate(cyclic) if letter == "L"),
                key=lambda i: [k if letter == "R" else -k
                               for letter, k in cyclic[i:] + cyclic[:i]])
    canonical = tuple(cyclic[start:] + cyclic[:start])
    v_total = v @ _runs_matrix(runs[:head + start])
    if v_total.inverse() @ base @ v_total != _runs_matrix(canonical):
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

def _crt_pair(r1, m1: int, r2, m2: int):
    """The residues mod m1 m2 that are r1 mod m1 and r2 mod m2, entry by
    entry over the tuples r1 and r2: one modular inverse for all of them."""
    s, m = pow(m1, -1, m2), m1 * m2         # ValueError unless coprime
    return tuple((a + (b - a) * s % m2 * m1) % m for a, b in zip(r1, r2))


# Miller-Rabin on the first 13 primes is exact below FACTOR_LIMIT
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
FACTOR_LIMIT = 3317044064679887385961981
_TRIAL_BOUND = 128
# the largest sweep bound: a sweep keeps a sieve entry and a verdict per level
SWEEP_LIMIT = 100_000


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES, for n without prime factors below
    _TRIAL_BOUND (so coprime to every base)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1        # n - 1 = 2^s d, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper divisor of a composite n without prime factors below
    _TRIAL_BOUND: Pollard's rho as Brent (1980) runs it, y -> y^2 + c."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:          # the batch overshot: replay it step by step
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g


def factorize(n: int):
    """Prime power factorization as a list of (p, e), p ascending: trial
    division below _TRIAL_BOUND, then Miller-Rabin and Pollard-Brent."""
    if n >= FACTOR_LIMIT:
        raise ValueError(f"modulus {n} is too large to factor: need "
                         f"modulus < {FACTOR_LIMIT}")
    counts, d = {}, 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            n //= d
            counts[d] = counts.get(d, 0) + 1
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND ** 2 or _is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            stack += [d, m // d]
    return sorted(counts.items())


class CommutationSolver:
    """Solution module of X A = B X over Z/n, shared across all moduli.

    One integer Smith form of the 4x4 commutation operator describes the
    solution set for every n at once: writing U T V = diag(d_i), the solutions
    mod n are V y with d_i y_i = 0 mod n, as (a, b, c, d) int tuples.  So the
    module mod n is spanned by the four rows (n / gcd(d_i, n)) v_i, v_i the
    columns of V, and has prod gcd(d_i, n) points.

    A level n answers without a search when A = B mod n (the identity) or
    when tr A != tr B mod n (no unit conjugates one into the other).  Every
    other level glues its prime-power witnesses, p ascending, by CRT and
    fails at the first one missing; each is searched once per solver.  A
    sweep glues the least prime power q of n onto the residue of n/q, one
    CRT step per level.  Every witness passes `verify`.
    """

    def __init__(self, a: Mat2, b: Mat2):
        self.a = a
        self.b = b
        basis = [Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(0, 0, 0, 1)]
        columns = [(e @ a - b @ e).entries() for e in basis]
        op = [[columns[j][i] for j in range(4)] for i in range(4)]
        diag, v = smith_integer(op)
        self.diag = diag + [0] * (4 - len(diag))
        self.v_cols = [tuple(v[i][j] for i in range(4)) for j in range(4)]
        # A = B mod n iff n divides every entry of A - B, so iff n | _equal
        self._equal = reduce(gcd, map(sub, a.entries(), b.entries()), 0)
        self._trace_gap = a.trace() - b.trace()
        self._witnesses = {}        # (p, e) -> witness mod p^e, or None

    def witness_mod_prime_power(self, p: int, e: int) -> Optional[Mat2]:
        """A solution with determinant a unit mod p^e, or None."""
        q = p ** e
        free = [col for col, d in zip(self.v_cols, self.diag) if d % q == 0]
        rows = [[col[i] for col in free] for i in range(4)]     # by entry
        # the determinant restricted to the free directions is a quadratic
        # form; over F_p with p >= 3 a nonzero form takes a nonzero value on
        # {0,1,2}^free, and for p = 2 the whole cube is only 2^|free| points
        search = range(p) if p == 2 else range(3)
        for values in product(search, repeat=len(rows[0])):
            a, b, c, d = (sum(map(mul, values, row)) for row in rows)
            if (a * d - b * c) % p:
                x = Mat2(a % q, b % q, c % q, d % q)
                self.verify(x, q)
                return x
        return None

    def _prime_power(self, p: int, e: int) -> Optional[Mat2]:
        if (p, e) not in self._witnesses:
            self._witnesses[p, e] = self.witness_mod_prime_power(p, e)
        return self._witnesses[p, e]

    def _glue_factors(self, n: int):
        """The witness residue mod n glued from n's factorization, or None."""
        x, modulus = (0, 0, 0, 0), 1
        for p, e in factorize(n):
            w = self._prime_power(p, e)
            if w is None:
                return None
            q = p ** e
            x = _crt_pair(x, modulus, w.entries(), q)
            modulus *= q
        return x

    def _decide(self, n: int, glue) -> Optional[Mat2]:
        """The witness mod n: the identity when A = B mod n, None when the
        traces differ mod n, else the residue `glue(n)` (None or verified)."""
        if self._equal % n == 0:
            return Mat2.identity().mod(n)
        if self._trace_gap % n:
            return None
        x = glue(n)
        if x is not None:
            x = Mat2(*x)
            self.verify(x, n)
        return x

    def witness_mod(self, n: int) -> Optional[Mat2]:
        """Deterministic unit-determinant solution mod n, or None."""
        if (self.a.det() - 1) % n or (self.b.det() - 1) % n:
            raise ValueError("matrices must have determinant 1 mod n")
        return self._decide(n, self._glue_factors)

    def verify(self, x: Mat2, n: int):
        if gcd(x.det(), n) != 1:
            raise AssertionError("witness determinant is not a unit")
        p, q, r, s = x.entries()
        a1, b1, c1, d1 = self.a.entries()
        a2, b2, c2, d2 = self.b.entries()
        # the four entries of x a - b x
        if ((p * a1 + q * c1 - a2 * p - b2 * r) % n
                or (p * b1 + q * d1 - a2 * q - b2 * s) % n
                or (r * a1 + s * c1 - c2 * p - d2 * r) % n
                or (r * b1 + s * d1 - c2 * q - d2 * s) % n):
            raise AssertionError("witness does not intertwine the pair")


def congruent_conjugate_mod(a: Mat2, b: Mat2, n: int) -> ModVerdict:
    """Decide conjugacy of a and b in GL(2, Z/n)."""
    if type(n) is not int or n < 1:
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
    if type(n) is not int or n < 1:
        raise ValueError(f"level must be a positive integer, got {n!r}")
    return reduce(math.lcm, range(1, n + 1), 1)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class CongruenceReport(Record):
    def __init__(self, matrix_a: Mat2, matrix_b: Mat2, max_modulus: int,
                 verdicts: Tuple[ModVerdict, ...], sl2: SL2Verdict):
        self.__dict__.update(matrix_a=matrix_a, matrix_b=matrix_b,
                             max_modulus=max_modulus, verdicts=verdicts,
                             sl2=sl2)

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


def congruence_sweep(a: Mat2, b: Mat2, max_n: int) -> CongruenceReport:
    """Test GL(2,Z/n) conjugacy for n = 1..max_n and summarize; max_n is
    at most `SWEEP_LIMIT`."""
    _require_unimodular(a, b)
    if type(max_n) is not int or max_n < 1:
        raise ValueError(
            f"sweep bound must be a positive integer, got {max_n!r}")
    if max_n > SWEEP_LIMIT:
        raise ValueError(f"sweep bound must be at most {SWEEP_LIMIT}")
    solver = CommutationSolver(a, b)
    # least[n]: n's smallest prime factor.  Each p <= sqrt(N), descending,
    # marks its multiples from p^2, so n keeps its least divisor > 1
    least = list(range(max_n + 1))
    for p in range(isqrt(max_n), 1, -1):
        least[p * p::p] = [p] * len(range(p * p, max_n + 1, p))
    glued = {1: (0, 0, 0, 0)}           # n -> witness residue mod n, or None

    def glue(n):
        if n not in glued:
            p, q, e = least[n], least[n], 1
            while n // q % p == 0:
                q, e = q * p, e + 1
            w = solver._prime_power(p, e)
            rest = w and glue(n // q)
            glued[n] = rest and _crt_pair(w.entries(), q, rest, n // q)
        return glued[n]

    verdicts = []
    for n in range(1, max_n + 1):
        witness = solver._decide(n, glue)
        verdicts.append(ModVerdict(n, witness is not None, witness))
    return CongruenceReport(a, b, max_n, tuple(verdicts), sl2_conjugate(a, b))
