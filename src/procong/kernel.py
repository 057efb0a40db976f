"""Exact scalar, Laurent polynomial and rational function arithmetic.

Every computation in this package runs over characteristic-zero fields with no
rounding anywhere: scalars are big rationals (`fractions.Fraction`) or
elements of a cyclotomic field Q(zeta_n) stored as coefficient vectors modulo
the n-th cyclotomic polynomial.  `Cyclotomic` has no division:
`scalar_inverse` is the one inverse of a scalar.  On top of the scalars sit
sparse Laurent polynomials F[t^{+-1}]; rational functions F(t), canonical
reduced fractions that are built, compared, hashed, rendered and read at
t -> u t, with no field arithmetic; the canonical unit-normalized torsion
classes, Smith-type normal forms over F[t], the logarithmic coefficients of a
polynomial with constant term 1, from which `cellular.lefschetz_numbers` reads
Lefschetz numbers off the numerator and the denominator of a zeta function,
and Berkowitz's characteristic polynomial on sparse rows, the one determinant
routine over the scalars: det(1 - tF) of flow matrices and the determinant of
a homology action both come from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

from .record import Record


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def as_exact(value):
    """Coerce ints and Fractions to a canonical exact form (int when integral)."""
    if isinstance(value, Cyclotomic):
        return value.demote()
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"not an exact scalar: {value!r}")


def scalar_inverse(value):
    if isinstance(value, Cyclotomic):
        return value.inverse()
    if value == 0:
        raise ZeroDivisionError("scalar inverse of zero")
    if type(value) is int:
        return value if value in (1, -1) else Fraction(1, value)
    return as_exact(Fraction(1, 1) / Fraction(value))


def _power(base, exponent: int, one):
    """base ** exponent for exponent >= 0, by repeated squaring from `one`."""
    while exponent:
        if exponent & 1:
            one = one * base
        base, exponent = base * base, exponent >> 1
    return one


# ---------------------------------------------------------------------------
# cyclotomic fields
# ---------------------------------------------------------------------------

def _mobius(n: int) -> int:
    """The Moebius function of n >= 1, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (little-endian) of the n-th cyclotomic polynomial: the
    product of (x^d - 1)^mu(n/d) over the divisors d of n (Moebius
    inversion of x^n - 1 = prod_{d | n} Phi_d), on integer lists.  The
    factors of exponent 1 are multiplied first, so each division by a
    factor of exponent -1 is exact."""
    if n < 1:
        raise ValueError("conductor must be positive")
    exponents = [(d, _mobius(n // d)) for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d, mu in exponents:
        if mu == 1:         # p x^d - p
            poly = [0] * d + poly
            for i in range(len(poly) - d):
                poly[i] -= poly[i + d]
    for d, mu in exponents:
        if mu == -1:        # q with q x^d - q = p: q_i = q_(i-d) - p_i
            quotient = []
            for i in range(len(poly) - d):
                quotient.append((quotient[i - d] if i >= d else 0) - poly[i])
            poly = quotient
    return tuple(poly)


@lru_cache(maxsize=None)
def _field(n: int) -> tuple:
    """(deg Phi_n, the power reduction table: x^k mod Phi_n for 0 <= k < n
    as tuples of ints of length deg Phi_n, the nonzero (i, r) entries of
    each of its rows, and the map coeffs -> k of the roots zeta_n^k)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    row = [0] * deg
    if deg:
        row[0] = 1
    table = [tuple(row)]
    for _ in range(1, n):
        shifted = [0, *table[-1]]
        if len(shifted) > deg:
            top = shifted.pop()
            if top:
                # subtract top * Phi_n (monic), keeping degree < deg
                for i in range(deg):
                    shifted[i] -= top * phi[i]
        table.append(tuple(shifted))
    sparse = tuple(tuple((i, r) for i, r in enumerate(row) if r)
                   for row in table)
    return deg, tuple(table), sparse, {row: k for k, row in enumerate(table)}


def _lookup_root(n: int, coeffs: tuple) -> int | None:
    """k with coeffs the vector of zeta_n^k, or None."""
    return _field(n)[3].get(coeffs)


_RATIONALS = (int, Fraction)
_INT_ONLY = {int}


class Cyclotomic(Record):
    """An element of Q(zeta_n), stored as a vector modulo Phi_n.

    Coefficient entries are ints or Fractions; the vector length is
    phi(n) = deg Phi_n.  Arithmetic never leaves the field and never rounds.
    An int or Fraction operand of +, -, * and / acts on the coefficient
    vector directly.
    """

    __slots__ = ("conductor", "coeffs", "_root")

    def __init__(self, conductor: int, coeffs):
        deg, _, sparse, _ = _field(conductor)
        coeffs = list(coeffs)
        if len(coeffs) > deg:
            # reduce high powers through the nonzero entries of the table
            reduced = [0] * deg
            for k, c in enumerate(coeffs):
                if c:
                    for i, r in sparse[k % conductor]:
                        reduced[i] += c * r
            coeffs = reduced
        else:
            coeffs += [0] * (deg - len(coeffs))
        if set(map(type, coeffs)) != _INT_ONLY:
            coeffs = [c if type(c) is int else as_exact(c) for c in coeffs]
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def root(conductor: int, power: int = 1) -> "Cyclotomic":
        """zeta_n^power."""
        return Cyclotomic(conductor, _field(conductor)[1][power % conductor])

    @staticmethod
    def from_rational(conductor: int, value) -> "Cyclotomic":
        return Cyclotomic(conductor, [value])

    # -- basic structure ---------------------------------------------------

    def root_exponent(self) -> int | None:
        """k with self == zeta_n^k for the conductor n, or None when the
        value is no such root; looked up once per value."""
        try:
            return self._root
        except AttributeError:
            k = _lookup_root(self.conductor, self.coeffs)
            object.__setattr__(self, "_root", k)
            return k

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def demote(self):
        """Return a plain rational if the value is rational, else self."""
        if self.is_rational():
            return as_exact(self.coeffs[0]) if self.coeffs else 0
        return self

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        """(self, other) in one field; None when other is no Cyclotomic.
        A rational value joins the field of the other operand."""
        if not isinstance(other, Cyclotomic):
            return None
        if other.conductor == self.conductor:
            return self, other
        if other.is_rational():
            return self, Cyclotomic.from_rational(self.conductor,
                                                  other.coeffs[0])
        if self.is_rational():
            return Cyclotomic.from_rational(other.conductor,
                                            self.coeffs[0]), other
        raise ValueError(
            f"mixed conductors {self.conductor} and {other.conductor}"
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _RATIONALS) and not isinstance(other, bool):
            return Cyclotomic(self.conductor,
                              (self.coeffs[0] + other,) + self.coeffs[1:])
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Cyclotomic(x.conductor, [a + b for a, b in zip(x.coeffs, y.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, _RATIONALS) and not isinstance(other, bool):
            return Cyclotomic(self.conductor,
                              (self.coeffs[0] - other,) + self.coeffs[1:])
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Cyclotomic(x.conductor, [a - b for a, b in zip(x.coeffs, y.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _RATIONALS) and not isinstance(other, bool):
            return Cyclotomic(self.conductor, [a * other for a in self.coeffs])
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        a = x.coeffs
        b = [(j, bj) for j, bj in enumerate(y.coeffs) if bj]
        prod = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b:
                    prod[i + j] += ai * bj
        return Cyclotomic(x.conductor, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        k = self.root_exponent()
        if k is not None:       # zeta_n^k: its inverse is looked up
            return Cyclotomic.root(self.conductor, -k)
        # extended Euclid in Q[x], tracking the cofactor s of the invariant
        # s * self = r (mod Phi_n); it ends at a nonzero constant r
        r0 = LaurentPolynomial.from_coefficients(
            cyclotomic_polynomial(self.conductor))
        r1 = LaurentPolynomial.from_coefficients(self.coeffs)
        s0, s1 = LaurentPolynomial.zero(), LaurentPolynomial.one()
        while r1.degree > 0:
            q, rem = r0.divmod_poly(r1)
            if rem.is_zero():
                raise AssertionError("Phi_n shares a factor with a field element")
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - q * s1
        const = scalar_inverse(r1.coefficient(0))
        return Cyclotomic(self.conductor,
                          [s1.coefficient(e) * const
                           for e in range(s1.degree + 1)])

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent, Cyclotomic.root(self.conductor, 0))

    # -- comparisons / hashing / rendering ---------------------------------

    def __eq__(self, other):
        if isinstance(other, _RATIONALS) and not isinstance(other, bool):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            if other.conductor == self.conductor:
                return self.coeffs == other.coeffs
            a, b = self.demote(), other.demote()
            if isinstance(a, Cyclotomic) and isinstance(b, Cyclotomic):
                return NotImplemented if a.conductor != b.conductor else a.coeffs == b.coeffs
            if isinstance(a, Cyclotomic) or isinstance(b, Cyclotomic):
                return False
            return a == b
        return NotImplemented

    def __hash__(self):
        d = self.demote()
        if not isinstance(d, Cyclotomic):
            return hash(d)
        return hash((d.conductor, d.coeffs))

    def __repr__(self):
        return f"cyc({self.conductor}):{list(self.coeffs)}"


def _sparse_terms(value):
    """The nonzero (exponent, coefficient) terms of a scalar in the power
    basis of its field."""
    if isinstance(value, Cyclotomic):
        return [(j, b) for j, b in enumerate(value.coeffs) if b]
    return [(0, value)] if value else []


def hermitian_products(rows, ys):
    """[sum(conj(x) * y for x, y in zip(row, ys)) for row in rows], exact.

    Each y is sparsified once.  Within a row, cyclotomic products are summed
    unreduced by exponent mod n, conj(z^i) z^j = z^(j-i), and the sum is
    reduced mod Phi_n once.  A factor x equal to a root of unity z^k, found
    by its cached `root_exponent`, only shifts y's exponents by -k; as
    0 <= j, k < n, the list index j - k wraps like j - k mod n.  Rational
    products add up in Q."""
    prepared = [(y.conductor if isinstance(y, Cyclotomic) else None, y,
                 _sparse_terms(y)) for y in ys]
    sums = []
    for row in rows:
        rational, conductor, raw = 0, None, None
        for x, (m, y, terms) in zip(row, prepared):
            if isinstance(x, Cyclotomic):
                n, k = x.conductor, x.root_exponent()
            elif m is None:
                rational += x * y
                continue
            else:
                n, k = m, None
            if conductor is None:
                conductor, raw = n, [0] * n
            if n != conductor or (m is not None and m != conductor):
                raise ValueError("mixed conductors in one sum")
            if k is not None:
                for j, b in terms:
                    raw[j - k] += b
                continue
            x_terms = (_sparse_terms(x) if isinstance(x, Cyclotomic)
                       else ((0, x),))
            for i, a in x_terms:
                for j, b in terms:
                    raw[j - i] += a * b
        if raw is None:
            sums.append(as_exact(rational))
        else:
            raw[0] += rational
            sums.append(as_exact(Cyclotomic(conductor, raw)))
    return sums


# ---------------------------------------------------------------------------
# scalar parsing / rendering (the JSON grammar's coefficient strings)
# ---------------------------------------------------------------------------

def render_scalar(value) -> str:
    """Render an exact scalar as "p/q" or "cyc(n):[c0,c1,...]"."""
    value = as_exact(value)
    if isinstance(value, Cyclotomic):
        parts = ",".join(str(c) if type(c) is int else render_scalar(c)
                         for c in value.coeffs)
        return f"cyc({value.conductor}):[{parts}]"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def parse_scalar(text: str):
    """Parse the coefficient-string grammar: "p/q" rationals or "cyc(n):[...]"."""
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {text!r}")
    text = text.strip()
    if text.startswith("cyc("):
        head, _, body = text.partition(":")
        conductor = int(head[4:-1])
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed cyclotomic literal: {text!r}")
        inner = body[1:-1].strip()
        coeffs = [parse_scalar(p) for p in _split_top(inner)] if inner else []
        return Cyclotomic(conductor, coeffs).demote()
    if "/" in text:
        num, _, den = text.partition("/")
        return as_exact(Fraction(int(num), int(den)))
    return int(text)


def _split_top(text):
    return [p for p in (s.strip() for s in text.split(",")) if p]


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

def _clean_terms(terms: dict) -> dict:
    """`terms` without its zero coefficients and with every coefficient in
    canonical exact form (`as_exact`, which also rejects booleans and
    non-scalars); ints, the common case, pass unchecked."""
    clean = {}
    for e, c in terms.items():
        if type(c) is not int:
            c = as_exact(c)
        if c:
            clean[e] = c
    return clean


def _canonical(c):
    """A coefficient in the canonical form `_clean_terms` gives it."""
    return c if type(c) is int else as_exact(c)


def _divide_terms(a: dict, b: dict, limit: int) -> tuple:
    """(q, rem) of the long division of a by b, both term dicts {exponent:
    coeff}: each step cancels the leading term of rem by a multiple of b,
    until rem is zero or of degree below `limit`.  The coefficients of q
    are canonical, those of rem need `_clean_terms`."""
    top = max(b)
    lead = scalar_inverse(b[top])
    rem, q = dict(a), {}
    while rem:
        d = max(rem)
        if d < limit:
            break
        c = q[d - top] = _canonical(rem[d] * lead)
        for e, v in b.items():
            e += d - top
            v = rem.get(e, 0) - c * v
            if v:
                rem[e] = v
            else:
                rem.pop(e, None)
    return q, rem


class LaurentPolynomial(Record):
    """Sparse Laurent polynomial over exact scalars.

    Terms live in a dict {exponent: coefficient} with no zero coefficients;
    the zero polynomial is the empty dict.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms and not isinstance(terms, dict):
            pairs, terms = terms, {}
            for e, c in pairs:
                if type(c) is not int:
                    c = as_exact(c)
                terms[e] = terms[e] + c if e in terms else c
        object.__setattr__(self, "terms", _clean_terms(terms or {}))

    @classmethod
    def _of(cls, terms: dict) -> "LaurentPolynomial":
        """The polynomial of a dict of exact scalars the kernel computed,
        without the argument dispatch of `__init__`."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", _clean_terms(terms))
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return LaurentPolynomial()

    @staticmethod
    def one() -> "LaurentPolynomial":
        return LaurentPolynomial({0: 1})

    @staticmethod
    def constant(c) -> "LaurentPolynomial":
        return LaurentPolynomial({0: c})

    @staticmethod
    def t_power(exponent: int, coefficient=1) -> "LaurentPolynomial":
        return LaurentPolynomial({exponent: coefficient})

    @staticmethod
    def from_coefficients(coeffs, valuation: int = 0) -> "LaurentPolynomial":
        return LaurentPolynomial({valuation + i: c for i, c in enumerate(coeffs)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def valuation(self):
        """Order of vanishing at t = 0 (min exponent); None for the zero polynomial."""
        return min(self.terms) if self.terms else None

    @property
    def degree(self):
        return max(self.terms) if self.terms else None

    def coefficient(self, exponent: int):
        return self.terms.get(exponent, 0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        others = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in others:
                e = e1 + e2
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return LaurentPolynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only for monomial units")
            ((e, c),) = self.terms.items()
            return LaurentPolynomial({e * exponent: scalar_inverse(c) ** (-exponent)})
        return _power(self, exponent, LaurentPolynomial.one())

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial._of({e + k: c for e, c in self.terms.items()})

    def scale(self, c) -> "LaurentPolynomial":
        return LaurentPolynomial._of({e: c * v for e, v in self.terms.items()})

    def at_u_t(self, u) -> "LaurentPolynomial":
        """p(u t) for a unit scalar u, each power of u one product from the
        last, up from u^valuation (an exact power of 1/u when negative)."""
        if u == 1 or not self.terms:
            return self
        out, at = {}, self.valuation
        power = u ** at if at >= 0 else scalar_inverse(u) ** -at
        for e in sorted(self.terms):
            while at < e:
                power, at = power * u, at + 1
            out[e] = self.terms[e] * power
        return LaurentPolynomial._of(out)

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, (int, Fraction, Cyclotomic)) and not isinstance(other, bool):
            return LaurentPolynomial.constant(other)
        return NotImplemented

    # -- division ----------------------------------------------------------

    def divmod_poly(self, den: "LaurentPolynomial"):
        """Polynomial division; requires both to have valuation >= 0."""
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if (self.valuation is not None and self.valuation < 0) or den.valuation < 0:
            raise ValueError("divmod_poly needs nonnegative valuations")
        q, rem = _divide_terms(self.terms, den.terms, den.degree)
        return LaurentPolynomial._of(q), LaurentPolynomial._of(rem)

    def exact_divide(self, den: "LaurentPolynomial") -> "LaurentPolynomial":
        """Division known to be exact in F[t^{+-1}]."""
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        sv, dv = self.valuation, den.valuation
        q, r = self.shift(-sv).divmod_poly(den.shift(-dv))
        if not r.is_zero():
            raise ValueError("division was not exact")
        return q.shift(sv - dv)

    # -- canonical forms ---------------------------------------------------

    def monic_normal(self) -> "LaurentPolynomial":
        """Canonical representative modulo monomial units: valuation 0, leading
        coefficient 1.  Zero maps to zero."""
        if self.is_zero():
            return self
        p = self.shift(-self.valuation) if self.valuation else self
        lead = p.terms[p.degree]
        if lead == 1:
            return p
        inv = scalar_inverse(lead)
        return p.scale(inv)

    def unit_equal(self, other: "LaurentPolynomial") -> bool:
        """Equality up to a monomial unit r * t^m."""
        return self.monic_normal() == other.monic_normal()

    # -- comparisons / rendering -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, Cyclotomic)) and not isinstance(other, bool):
            return self == LaurentPolynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        # a constant compares equal to its scalar, so it hashes like it
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"LaurentPolynomial({self.pretty()})"

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                term = render_scalar(c)
            else:
                t = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    term = t
                elif c == -1:
                    term = f"-{t}"
                else:
                    cs = render_scalar(c)
                    if isinstance(c, Cyclotomic) or (isinstance(c, Fraction)):
                        term = f"({cs})*{t}"
                    else:
                        term = f"{cs}*{t}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json(self):
        return [[e, render_scalar(self.terms[e])] for e in sorted(self.terms)]

    @staticmethod
    def from_json(pairs) -> "LaurentPolynomial":
        return LaurentPolynomial({int(e): parse_scalar(str(c)) for e, c in pairs})


def laurent_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Monic-normal gcd in F[t^{+-1}] (grid of monomial units factored out)."""
    if a.is_zero():
        return b.monic_normal()
    if b.is_zero():
        return a.monic_normal()
    p = a.shift(-a.valuation)
    q = b.shift(-b.valuation)
    while not q.is_zero():
        _, r = p.divmod_poly(q)
        p, q = q, r
    return p.monic_normal()


# ---------------------------------------------------------------------------
# rational functions and the torsion class
# ---------------------------------------------------------------------------

class RationalFunction(Record):
    """Reduced fraction of Laurent polynomials.

    Canonical form: gcd(num, den) is a monomial unit, and the denominator is a
    polynomial with valuation 0 and constant coefficient 1.  Equality is then
    literal equality of numerators and denominators.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial = None):
        if den is None:
            den = LaurentPolynomial.one()
        if isinstance(num, (int, Fraction, Cyclotomic)):
            num = LaurentPolynomial.constant(num)
        if isinstance(den, (int, Fraction, Cyclotomic)):
            den = LaurentPolynomial.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", LaurentPolynomial.zero())
            object.__setattr__(self, "den", LaurentPolynomial.one())
            return
        g = laurent_gcd(num, den)
        if not (g.is_monomial() and g.coefficient(0) == 1 and g.valuation == 0):
            num = num.exact_divide(g)
            den = den.exact_divide(g)
        # normalize the denominator to valuation 0, constant coefficient 1
        shift = -den.valuation
        num = num.shift(shift)
        den = den.shift(shift)
        low = den.coefficient(0)
        if low != 1:
            inv = scalar_inverse(low)
            num = num.scale(inv)
            den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, num, den) -> "RationalFunction":
        """num / den, already canonical, without `__init__`'s reduction."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(LaurentPolynomial.zero())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(LaurentPolynomial.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def at_u_t(self, u) -> "RationalFunction":
        """f(u t) for a unit scalar u: t -> u t is a ring automorphism fixing
        constants, so a canonical fraction stays canonical."""
        return RationalFunction._of(self.num.at_u_t(u), self.den.at_u_t(u))

    # -- comparisons / hashing / rendering ---------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Cyclotomic, LaurentPolynomial)) and not isinstance(other, bool):
            return RationalFunction(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # with denominator one it compares equal to its numerator
        if self.den.terms == {0: 1}:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.pretty()})"

    def pretty(self) -> str:
        if self.den == LaurentPolynomial.one():
            return self.num.pretty()
        return f"({self.num.pretty()}) / ({self.den.pretty()})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    # -- series ------------------------------------------------------------

    def series(self, terms: int):
        """First `terms` Taylor coefficients at t = 0; error on a pole.
        No computation of the package expands a series: the tests read
        this as an oracle, and the benchmark's tracer times it by name."""
        if terms < 0:
            raise ValueError("terms must be nonnegative")
        if self.is_zero():
            return [0] * terms
        if self.num.valuation < 0:
            raise ValueError("pole at t = 0, no Taylor expansion")
        den0 = self.den.coefficient(0)
        inv0 = scalar_inverse(den0)
        coeffs = []
        for m in range(terms):
            acc = self.num.coefficient(m)
            for i in range(m):
                ci = coeffs[i]
                if ci:
                    d = self.den.coefficient(m - i)
                    if d:
                        acc = acc - ci * d
            c = acc * inv0
            coeffs.append(as_exact(c))
        return coeffs


class NormalizedTorsionClass(Record):
    """A rational function up to monomial units, in canonical unit form.

    The stored representative has ord_{t=0} = 0 and value 1 at t = 0, or is the
    zero function (the acyclicity-failed convention).
    """

    __slots__ = ("value",)

    def __init__(self, value: RationalFunction):
        object.__setattr__(self, "value", value)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def pretty(self) -> str:
        return self.value.pretty()

    def to_json(self):
        return self.value.to_json()


def normalize_unit_class(f: RationalFunction) -> NormalizedTorsionClass:
    """Unique representative of {r * t^m * f} with ord 0 and value 1 at t = 0."""
    if isinstance(f, LaurentPolynomial):
        f = RationalFunction(f)
    if f.is_zero():
        return NormalizedTorsionClass(RationalFunction.zero())
    v = f.num.valuation
    lead = f.num.coefficient(v)
    den0 = f.den.coefficient(0)
    c = lead * scalar_inverse(den0)          # value of t^{-v} f at 0
    # a monomial quotient of a reduced fraction stays reduced
    rep = RationalFunction._of(
        f.num.exact_divide(LaurentPolynomial({v: c})), f.den)
    if rep.num.coefficient(0) * scalar_inverse(rep.den.coefficient(0)) != 1:
        raise AssertionError("unit normalization failed to reach value 1")
    return NormalizedTorsionClass(rep)


# ---------------------------------------------------------------------------
# series plumbing
# ---------------------------------------------------------------------------

def log_coefficients(series, terms: int):
    """Extract L_m = m * [t^m] log(series) for m = 1..terms.

    The input series must have constant term exactly 1 and at least terms + 1
    coefficients; then exp(sum L_m t^m / m) reproduces it mod t^{terms+1}.
    The sum for L_m only visits the coefficients up to the last nonzero
    one, so a polynomial of degree d takes time linear in terms * d.
    """
    if not series or series[0] != 1:
        raise ValueError("series constant term must be exactly 1")
    if len(series) < terms + 1:
        raise ValueError(f"need {terms + 1} coefficients, got {len(series)}")
    last = max(k for k in range(terms + 1) if series[k])
    out = []
    for m in range(1, terms + 1):
        acc = m * series[m]
        for i in range(max(1, m - last), m):
            li = out[i - 1]
            if li:
                a = series[m - i]
                if a:
                    acc = acc - li * a
        out.append(as_exact(acc))
    return out


# ---------------------------------------------------------------------------
# polynomial matrices over F[t^{+-1}]
# ---------------------------------------------------------------------------

# A sparse matrix is a tuple of rows, each a tuple of (column, entry) pairs
# in canonical form: columns ascending, no zero entries.  Equal matrices
# therefore have equal, hashable sparse forms.  Scalar matrices (module
# `surfgrp`) hold `as_exact` scalars, `PolyMatrix` LaurentPolynomials.
SparseMatrix = tuple[tuple[tuple[int, object], ...], ...]

_ZERO = LaurentPolynomial.zero()
_ONES = ((0, LaurentPolynomial.one()), (1, LaurentPolynomial.one()))


def _sparse_row(cells: dict) -> tuple:
    """The canonical sparse row of a dict {column: {exponent: coeff}}."""
    row = ((j, LaurentPolynomial._of(cells[j])) for j in sorted(cells))
    return tuple((j, p) for j, p in row if p.terms)


class PolyMatrix(Record):
    """Immutable matrix with LaurentPolynomial entries; supports 0-dim shapes.
    `sparse` holds its nonzero entries, in canonical `SparseMatrix` rows,
    which the constructor takes as they are; `build` takes any entries.
    `_diagonal` keeps the `smith_diagonalize` result once it is computed."""

    __slots__ = ("rows", "cols", "sparse", "_diagonal")

    def __init__(self, rows: int, cols: int, sparse: SparseMatrix):
        if len(sparse) != rows:
            raise ValueError("sparse rows do not match declared shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "sparse", tuple(sparse))
        object.__setattr__(self, "_diagonal", None)

    @staticmethod
    def build(rows, cols, fn) -> "PolyMatrix":
        """Entry fn(i, j), a LaurentPolynomial or a scalar, at (i, j)."""
        return PolyMatrix(rows, cols, [
            _sparse_row({j: (_ZERO + fn(i, j)).terms for j in range(cols)})
            for i in range(rows)])

    @staticmethod
    def zero(rows, cols) -> "PolyMatrix":
        return PolyMatrix(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n) -> "PolyMatrix":
        return PolyMatrix.build(n, n, lambda i, j: int(i == j))

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return PolyMatrix(self.rows, other.cols, [
            _sparse_row(_row_product({}, left, other.sparse, 1))
            for left in self.sparse])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        # row i of the sum is (1, 1) times the two-row matrix of the rows i
        return PolyMatrix(self.rows, self.cols, [
            _sparse_row(_row_product({}, _ONES, pair, 1))
            for pair in zip(self.sparse, other.sparse)])

    def __neg__(self) -> "PolyMatrix":
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [
            _sparse_row({j: (e * p).terms for j, e in row})
            for row in self.sparse])

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return PolyMatrix(self.rows, self.cols + other.cols, [
            a + tuple((j + self.cols, e) for j, e in b)
            for a, b in zip(self.sparse, other.sparse)])

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return PolyMatrix(self.rows + other.rows, self.cols,
                          self.sparse + other.sparse)

    @staticmethod
    def from_blocks(grid) -> "PolyMatrix":
        """Assemble from a 2-dim grid of PolyMatrix blocks."""
        return reduce(PolyMatrix.vstack,
                      [reduce(PolyMatrix.hstack, row) for row in grid])

    def grid_transpose(self) -> "PolyMatrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, e in row:
                out[j].append((i, e))
        return PolyMatrix(self.cols, self.rows, list(map(tuple, out)))

    def determinant(self) -> LaurentPolynomial:
        """Fraction-free Bareiss determinant (exact over the Laurent ring),
        on a dense working copy."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [[row.get(j, _ZERO) for j in range(n)]
             for row in map(dict, self.sparse)]
        sign, prev = 1, LaurentPolynomial.one()
        # step n - 1 only checks its pivot; prev ends as the determinant
        for k in range(n):
            if m[k][k].is_zero():
                pivot_row = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
                if pivot_row is None:
                    return LaurentPolynomial.zero()
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                    m[i][j] = num.exact_divide(prev)
            prev = m[k][k]
        return prev if sign == 1 else -prev


def _row_product(acc: dict, left, right: SparseMatrix, sign: int) -> dict:
    """Add sign * (left row) . right to acc, a dict {column: {exponent:
    coeff}}; left is a sparse row and right a sparse matrix.  Only nonzero
    entries meet, so the work is the number of term products."""
    for l, a in left:
        a_terms = a.terms.items()
        if sign < 0:
            a_terms = [(e, -c) for e, c in a_terms]
        for j, b in right[l]:
            cell = acc.get(j)
            if cell is None:
                cell = acc[j] = {}
            b_terms = b.terms.items()
            for e1, c1 in a_terms:
                for e2, c2 in b_terms:
                    e = e1 + e2
                    c = c1 * c2
                    cell[e] = cell[e] + c if e in cell else c
    return acc


def products_cancel(*terms) -> bool:
    """Whether the sum of sign * (a @ b) over the (sign, a, b) in `terms`,
    sign +1 or -1, is the zero matrix.  Each row of the sum is accumulated
    by `_row_product` and tested on its own: the check stops at the first
    row that does not cancel and never builds a PolyMatrix."""
    shapes = {(a.rows, b.cols) for _, a, b in terms}
    if len(shapes) > 1 or any(a.cols != b.rows for _, a, b in terms):
        raise ValueError("shape mismatch in matrix product")
    for i in range(terms[0][1].rows):
        acc = {}
        for sign, a, b in terms:
            _row_product(acc, a.sparse[i], b.sparse, sign)
        if any(c for cell in acc.values() for c in cell.values()):
            return False
    return True


def charpoly_coefficients(rows: SparseMatrix) -> list:
    """[c_0, ..., c_n] with det(xI - A) = sum c_k x^(n-k), for a square
    matrix A of exact scalars given as its n sparse rows; a column index
    of n or more raises ValueError.

    Berkowitz's division-free algorithm (1984): with A[k:, k:] = [[a, R],
    [C, B]], the vector of A[k:, k:] is the lower-triangular Toeplitz matrix
    of (1, -a, -RC, -RBC, ...) times the vector of B.  No scalar is divided.
    Each B^i C is a dict of its nonzero entries, pushed through B's columns
    until it empties, and the Toeplitz product skips the entries that no
    product reached, so a monomial A costs O(n^2).
    """
    n = len(rows)
    columns = [[] for _ in range(n)]  # (row, entry) of the rows below k
    coeffs = [1]
    for k in range(n - 1, -1, -1):
        if rows[k] and rows[k][-1][0] >= n:
            raise ValueError("characteristic polynomial of a non-square matrix")
        r_row = {j: e for j, e in rows[k] if j >= k}
        toeplitz = [(0, 1), (1, -r_row.pop(k, 0))]
        vec = dict(columns[k])
        for m in range(2, n - k + 1):
            if not vec:
                break
            products = [r_row[l] * c for l, c in vec.items() if l in r_row]
            if products:
                toeplitz.append((m, -sum(products)))
            if m < n - k:
                pushed = {}
                for l, c in vec.items():
                    for i, a in columns[l]:
                        pushed[i] = pushed[i] + a * c if i in pushed else a * c
                vec = {i: e for i, e in pushed.items() if e}
        for j, e in rows[k]:
            columns[j].append((k, e))
        # the old coeffs has n - k entries
        coeffs = [sum(t * coeffs[i - m] for m, t in toeplitz
                      if 0 <= i - m < n - k) for i in range(n - k + 1)]
    return coeffs


def _quotient(a: dict, b: dict) -> dict:
    """Quotient of a by b in F[t^{+-1}], both term dicts {exponent: coeff}:
    the division runs as if both were shifted to valuation 0, so a - q * b
    is zero or of smaller span than b (zero when b is a unit)."""
    if len(b) == 1:
        ((e, c),) = b.items()
        c = scalar_inverse(c)
        return {k - e: _canonical(v * c) for k, v in a.items()}
    # a - q * b keeps the valuation of a and must end below this degree
    return _divide_terms(a, b, min(a) + max(b) - min(b))[0]


class _Elimination:
    """The working state of `smith_diagonalize`: `rows` holds the rows
    left, as dicts {column: {exponent: coeff}} that `subtract` updates in
    place, and `cols` the rows meeting each column, {column: {rows}}."""

    def __init__(self, sparse: SparseMatrix, ncols: int):
        self.rows = {}
        self.cols = cols = {j: set() for j in range(ncols)}
        for i, row in enumerate(sparse):
            if row:
                self.rows[i] = {j: dict(e.terms) for j, e in row}
                for j, _ in row:
                    cols[j].add(i)

    def subtract(self, i: int, q: dict, source: dict) -> None:
        """rows[i] -= q * source, one fused a - q * b per entry of
        `source`, a dict {column: terms}; q is a term dict."""
        row, cols = self.rows[i], self.cols
        q = q.items()
        for j, b in source.items():
            a = row.get(j)
            if a is None:
                a = row[j] = {}
                cols[j].add(i)
            for e2, c2 in b.items():
                for e1, c1 in q:
                    e = e1 + e2
                    c = (a[e] if e in a else 0) - c1 * c2
                    if type(c) is not int:
                        c = as_exact(c)
                    if c:
                        a[e] = c
                    else:
                        del a[e]
            if not a:
                del row[j]
                cols[j].discard(i)
        if not row:
            del self.rows[i]

    def drop_row(self, i: int) -> None:
        """Remove row i with all its entries."""
        for j in self.rows.pop(i):
            self.cols[j].discard(i)

    def choose_pivot(self):
        """(row, column) of the entry of least span (degree - valuation),
        ties broken by the Markowitz cost (row nonzeros - 1) * (column
        nonzeros - 1) and then by the order of the scan; None once no
        entry is left.  Units (monomials, span 0) are looked for first,
        since they are most of the entries, and one of cost 0 ends the
        scan."""
        rows, cols = self.rows, self.cols
        best = best_cost = None
        for i, row in rows.items():
            width = len(row) - 1
            for j, a in row.items():
                if len(a) == 1:
                    cost = width * (len(cols[j]) - 1)
                    if best is None or cost < best_cost:
                        if not cost:
                            return i, j
                        best, best_cost = (i, j), cost
        if best is not None:
            return best
        best_key = None
        for i, row in rows.items():
            width = len(row) - 1
            for j, a in row.items():
                key = (max(a) - min(a), width * (len(cols[j]) - 1))
                if best_key is None or key < best_key:
                    best, best_key = (i, j), key
        return best


def smith_diagonalize(matrix: PolyMatrix) -> tuple:
    """Nonzero diagonal of `matrix` diagonalized over F[t^{+-1}] by unimodular
    row and column operations (no transforms are kept).

    Its length is the rank of `matrix`, and its product is the gcd of the
    maximal nonzero minors up to a unit.  Computed once per matrix and kept
    on it, so later calls read it back.

    One sparse elimination on term dicts (`_Elimination`): each entry is a
    dict {exponent: coeff} updated in place by one fused a - q * b, and
    LaurentPolynomials are built only for the diagonal returned.  Each step
    takes the pivot `_Elimination.choose_pivot` names: an entry of least
    span, and among those of least Markowitz cost, found by a scan of the
    entries left that stops at a unit of cost 0.  The other entries of
    its column are divided by it, each row taking the quotient's multiple
    of the pivot's row.  A pivot of span 0 is a monomial, hence a unit:
    the division is exact, so its column is clear, its row is dropped and
    1 is recorded.  Otherwise the remainders, of smaller span, are left to
    the next choice; once the column is clear, the entries of its row are
    divided the same way, by column operations, and a pivot alone in its
    row and column is recorded at valuation 0.  Between two recorded pivots the least span strictly
    falls, so the elimination ends.
    """
    if matrix._diagonal is not None:
        return matrix._diagonal
    work = _Elimination(matrix.sparse, matrix.cols)
    one = LaurentPolynomial.one()
    diag = []
    while (chosen := work.choose_pivot()) is not None:
        p, c = chosen
        pivot_row = work.rows[p]
        pivot = pivot_row[c]
        for i in [i for i in work.cols[c] if i != p]:
            work.subtract(i, _quotient(work.rows[i][c], pivot), pivot_row)
        if len(pivot) == 1:
            work.drop_row(p)
            diag.append(one)
            continue
        if len(work.cols[c]) > 1:
            continue
        # the column is clear, so a column operation changes only the
        # pivot's row: each entry becomes its remainder
        for j in [j for j in pivot_row if j != c]:
            work.subtract(p, _quotient(pivot_row[j], pivot), {j: pivot})
        if len(pivot_row) == 1:
            v = min(pivot)
            diag.append(LaurentPolynomial._of(
                {k - v: x for k, x in pivot.items()}))
            work.drop_row(p)
    diag = tuple(diag)
    object.__setattr__(matrix, "_diagonal", diag)
    return diag


def homology_order(boundary_in, boundary_out) -> LaurentPolynomial:
    """Order of ker(boundary_out)/im(boundary_in) over F[t^{+-1}].

    `boundary_in` maps into the middle chain module (its columns generate the
    image); `boundary_out` maps out of it.  Pass None for a missing boundary
    (treated as the zero map out of / into a zero module).  Returns 0 exactly
    when the homology module has positive rank; otherwise a representative of
    the module order, in monic-normal form.

    Precondition: boundary_out . boundary_in = 0.  The builder of the
    complex checks it; this function only reads the boundaries.

    Over the PID F[t^{+-1}], R^n/ker(boundary_out) embeds in a free module,
    so coker(boundary_in) is the homology plus a free module: the homology
    has rank n - rank(out) - rank(in), and its order is the product of the
    nonzero invariant factors of `boundary_in`.
    """
    if boundary_in is None and boundary_out is None:
        raise ValueError("need at least one boundary to size the middle module")
    n = boundary_in.rows if boundary_in is not None else boundary_out.cols
    if boundary_out is not None and boundary_out.cols != n:
        raise ValueError("boundary shapes do not share the middle module")
    in_diag = () if boundary_in is None else smith_diagonalize(boundary_in)
    out_rank = 0
    if boundary_out is not None and boundary_out.rows:
        out_rank = len(smith_diagonalize(boundary_out))
    if len(in_diag) + out_rank < n:
        return LaurentPolynomial.zero()
    order = LaurentPolynomial.one()
    for d in in_diag:
        if len(d.terms) > 1:  # a unit changes the product by a unit only
            order = order * d
    return order.monic_normal()
