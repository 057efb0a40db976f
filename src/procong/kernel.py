"""Exact scalar, Laurent polynomial and rational function arithmetic.

Every computation in this package runs over characteristic-zero fields with no
rounding anywhere: scalars are big rationals (`fractions.Fraction`) or elements
of a cyclotomic field Q(zeta_n) stored as coefficient vectors modulo the n-th
cyclotomic polynomial.  On top of the scalars sit sparse Laurent polynomials
F[t^{+-1}], reduced rational functions F(t), the canonical unit-normalized
torsion classes, Smith-type normal forms over F[t] and over Z, and the formal
power series plumbing (Taylor expansion, logarithmic coefficient extraction)
used to turn zeta functions into Lefschetz numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


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


def scalar_conjugate(value):
    """Complex conjugation: identity on rationals, zeta -> zeta^-1 on cyclotomics."""
    if isinstance(value, Cyclotomic):
        return value.conjugate()
    return value


def scalar_is_zero(value) -> bool:
    if isinstance(value, Cyclotomic):
        return value.is_zero()
    return value == 0


def scalar_inverse(value):
    if isinstance(value, Cyclotomic):
        return value.inverse()
    if value == 0:
        raise ZeroDivisionError("scalar inverse of zero")
    return as_exact(Fraction(1, 1) / Fraction(value))


# ---------------------------------------------------------------------------
# integer polynomial helpers for cyclotomic polynomials
# ---------------------------------------------------------------------------

def _intpoly_divmod(num, den):
    """Exact division of integer coefficient lists (little-endian), den monic."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coeff = num[shift + len(den) - 1]
        q[shift] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[shift + i] -= coeff * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (little-endian) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (n - 1) + [1]          # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _intpoly_divmod(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_reduction_table(n: int) -> tuple:
    """x^k mod Phi_n for 0 <= k < n, as tuples of ints of length deg Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    row = [0] * deg
    if deg:
        row[0] = 1
    rows.append(tuple(row))
    for _ in range(1, n):
        shifted = [0] + list(rows[-1])
        if len(shifted) > deg:
            top = shifted.pop()
            if top:
                # subtract top * Phi_n (monic), keeping degree < deg
                for i in range(deg):
                    shifted[i] -= top * phi[i]
        rows.append(tuple(shifted))
    return tuple(rows)


class Cyclotomic:
    """An element of Q(zeta_n), stored as a vector modulo Phi_n.

    Coefficient entries are ints or Fractions; the vector length is
    phi(n) = deg Phi_n.  Arithmetic never leaves the field and never rounds.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        table = _power_reduction_table(conductor)
        deg = len(table[0])
        coeffs = list(coeffs)
        if len(coeffs) > deg:
            # reduce high powers through the table
            reduced = [0] * deg
            for k, c in enumerate(coeffs):
                if c == 0:
                    continue
                row = table[k % conductor] if k < conductor else None
                if row is None:
                    row = _reduce_large_power(conductor, k)
                for i, r in enumerate(row):
                    if r:
                        reduced[i] += c * r
            coeffs = reduced
        else:
            coeffs = coeffs + [0] * (deg - len(coeffs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(as_exact(c) for c in coeffs))

    def __setattr__(self, *args):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def root(conductor: int, power: int = 1) -> "Cyclotomic":
        """zeta_n^power."""
        table = _power_reduction_table(conductor)
        return Cyclotomic(conductor, list(table[power % conductor]))

    @staticmethod
    def from_rational(conductor: int, value) -> "Cyclotomic":
        return Cyclotomic(conductor, [value])

    # -- basic structure ---------------------------------------------------

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
        if isinstance(other, Cyclotomic):
            if other.conductor == self.conductor:
                return other
            if other.is_rational():
                return Cyclotomic.from_rational(self.conductor, other.coeffs[0] if other.coeffs else 0)
            if self.is_rational():
                return NotImplemented  # handled by reflected op
            raise ValueError(
                f"mixed conductors {self.conductor} and {other.conductor}"
            )
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Cyclotomic.from_rational(self.conductor, other)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None or other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None or other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None or other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a:
            return self
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj != 0:
                    prod[i + j] += ai * bj
        return Cyclotomic(self.conductor, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        a = [Fraction(c) for c in self.coeffs]
        while a and a[-1] == 0:
            a.pop()
        # extended Euclid in Q[x]: s*a + t*phi = gcd = nonzero constant
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        t0, t1 = [Fraction(1)], [Fraction(0)]
        while len(r1) > 1 or (len(r1) == 1 and False):
            q, rem = _fracpoly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _fracpoly_sub(s0, _fracpoly_mul(q, s1))
            t0, t1 = t1, _fracpoly_sub(t0, _fracpoly_mul(q, t1))
            if not r1:
                raise AssertionError("Phi_n shares a factor with a field element")
            if len(r1) == 1:
                break
        const = r1[0]
        inv = [c / const for c in s1]
        return Cyclotomic(self.conductor, inv)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 0:
                raise ZeroDivisionError
            return self * Fraction(1, 1) / Cyclotomic.from_rational(self.conductor, other)
        other = self._coerce(other)
        if other is None or other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.from_rational(self.conductor, other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.from_rational(self.conductor, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: sends zeta_n to zeta_n^{n-1}."""
        n = self.conductor
        table = _power_reduction_table(n)
        deg = len(table[0])
        out = [0] * deg
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = table[(k * (n - 1)) % n]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
        return Cyclotomic(n, out)

    # -- comparisons / hashing / rendering ---------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.is_rational() and (self.coeffs[0] if self.coeffs else 0) == other
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


def _reduce_large_power(n, k):
    """x^k mod Phi_n for k >= n via x^n = 1... careful: x^n = 1 only in the group
    ring sense; modulo Phi_n we do have zeta^n = 1, so reduce k mod n."""
    return _power_reduction_table(n)[k % n]


def _fracpoly_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - dn)
    for shift in range(len(num) - dn - 1, -1, -1):
        coeff = num[shift + dn] / lead
        q[shift] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[shift + i] -= coeff * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _fracpoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _fracpoly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# scalar parsing / rendering (the JSON grammar's coefficient strings)
# ---------------------------------------------------------------------------

def render_scalar(value) -> str:
    """Render an exact scalar as "p/q" or "cyc(n):[c0,c1,...]"."""
    value = as_exact(value)
    if isinstance(value, Cyclotomic):
        parts = ",".join(render_scalar(c) for c in value.coeffs)
        return f"cyc({value.conductor}):[{parts}]"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def parse_scalar(text: str):
    """Parse the coefficient-string grammar: "p/q" rationals or "cyc(n):[...]"."""
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

class LaurentPolynomial:
    """Sparse Laurent polynomial over exact scalars.

    Terms live in a dict {exponent: coefficient} with no zero coefficients;
    the zero polynomial is the empty dict.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = as_exact(c) if not isinstance(c, Cyclotomic) else c.demote()
                if scalar_is_zero(c):
                    continue
                if e in clean:
                    s = clean[e] + c
                    if scalar_is_zero(s):
                        del clean[e]
                    else:
                        clean[e] = s
                else:
                    clean[e] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("LaurentPolynomial values are immutable")

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
            s = out.get(e, 0) + c
            if scalar_is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.terms.items()})

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
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if scalar_is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only for monomial units")
            ((e, c),) = self.terms.items()
            return LaurentPolynomial({e * exponent: scalar_inverse(c) ** (-exponent)})
        result = LaurentPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial({e + k: c for e, c in self.terms.items()})

    def scale(self, c) -> "LaurentPolynomial":
        if scalar_is_zero(c):
            return LaurentPolynomial.zero()
        return LaurentPolynomial({e: c * v for e, v in self.terms.items()})

    def substitute_neg(self) -> "LaurentPolynomial":
        """t -> -t."""
        return LaurentPolynomial({e: (c if e % 2 == 0 else -c) for e, c in self.terms.items()})

    def reverse(self) -> "LaurentPolynomial":
        """t -> t^{-1}."""
        return LaurentPolynomial({-e: c for e, c in self.terms.items()})

    def evaluate(self, x):
        total = 0
        for e, c in self.terms.items():
            if e >= 0:
                total = total + c * (x ** e)
            else:
                total = total + c * (scalar_inverse(x) ** (-e))
        return total

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
        rem = dict(self.terms)
        q = {}
        dd = den.degree
        dl = den.terms[dd]
        dl_inv = scalar_inverse(dl)
        while rem:
            rd = max(rem)
            if rd < dd:
                break
            coeff = rem[rd] * dl_inv
            q[rd - dd] = coeff
            for e, c in den.terms.items():
                e2 = e + rd - dd
                s = rem.get(e2, 0) - coeff * c
                if scalar_is_zero(s):
                    rem.pop(e2, None)
                else:
                    rem[e2] = s
        return LaurentPolynomial(q), LaurentPolynomial(rem)

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
        p = self.shift(-self.valuation)
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
        return hash(frozenset((e, as_exact(c) if not isinstance(c, Cyclotomic) else c)
                              for e, c in self.terms.items()))

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

class RationalFunction:
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

    def __setattr__(self, *args):
        raise AttributeError("RationalFunction values are immutable")

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

    # -- field operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Cyclotomic, LaurentPolynomial)) and not isinstance(other, bool):
            return RationalFunction(other if isinstance(other, LaurentPolynomial)
                                    else LaurentPolynomial.constant(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

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
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

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

    def order_at_zero(self):
        """ord_{t=0}; None for the zero function."""
        if self.is_zero():
            return None
        return self.num.valuation  # denominator has valuation 0 by canon

    def series(self, terms: int):
        """First `terms` Taylor coefficients at t = 0; error on a pole."""
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
                if not scalar_is_zero(ci):
                    d = self.den.coefficient(m - i)
                    if not scalar_is_zero(d):
                        acc = acc - ci * d
            c = acc * inv0
            coeffs.append(as_exact(c) if not isinstance(c, Cyclotomic) else c.demote())
        return coeffs


class NormalizedTorsionClass:
    """A rational function up to monomial units, in canonical unit form.

    The stored representative has ord_{t=0} = 0 and value 1 at t = 0, or is the
    zero function (the acyclicity-failed convention).
    """

    __slots__ = ("value",)

    def __init__(self, value: RationalFunction):
        object.__setattr__(self, "value", value)

    def __setattr__(self, *args):
        raise AttributeError("NormalizedTorsionClass values are immutable")

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __eq__(self, other):
        if not isinstance(other, NormalizedTorsionClass):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"NormalizedTorsionClass({self.value.pretty()})"

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
    unit = LaurentPolynomial({v: c})
    rep = RationalFunction(f.num.exact_divide(unit), f.den)
    if rep.num.coefficient(0) * scalar_inverse(rep.den.coefficient(0)) != 1:
        raise AssertionError("unit normalization failed to reach value 1")
    return NormalizedTorsionClass(rep)


# ---------------------------------------------------------------------------
# series plumbing
# ---------------------------------------------------------------------------

def series_expand(f: RationalFunction, terms: int):
    """First `terms` Taylor coefficients of f at t = 0 (exact)."""
    return f.series(terms)


def log_coefficients(series, terms: int):
    """Extract L_m = m * [t^m] log(series) for m = 1..terms.

    The input series must have constant term exactly 1 and at least terms + 1
    coefficients; then exp(sum L_m t^m / m) reproduces it mod t^{terms+1}.
    """
    if not series or series[0] != 1:
        raise ValueError("series constant term must be exactly 1")
    if len(series) < terms + 1:
        raise ValueError(f"need {terms + 1} coefficients, got {len(series)}")
    out = []
    for m in range(1, terms + 1):
        acc = m * series[m]
        for i in range(1, m):
            li = out[i - 1]
            if not scalar_is_zero(li):
                a = series[m - i]
                if not scalar_is_zero(a):
                    acc = acc - li * a
        out.append(as_exact(acc) if not isinstance(acc, Cyclotomic) else acc.demote())
    return out


def exp_series(l_values, terms: int):
    """Inverse of log_coefficients: coefficients of exp(sum L_m t^m / m)."""
    coeffs = [1]
    for m in range(1, terms + 1):
        acc = 0
        for i in range(1, m + 1):
            li = l_values[i - 1] if i - 1 < len(l_values) else 0
            acc = acc + li * coeffs[m - i]
        c = Fraction(1, m) * acc if not isinstance(acc, Cyclotomic) else acc / m
        coeffs.append(as_exact(c) if not isinstance(c, Cyclotomic) else c.demote())
    return coeffs


# ---------------------------------------------------------------------------
# polynomial matrices over F[t^{+-1}]
# ---------------------------------------------------------------------------

class PolyMatrix:
    """Immutable matrix with LaurentPolynomial entries; supports 0-dim shapes."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(tuple(self._lift(e) for e in row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def _lift(e):
        if isinstance(e, LaurentPolynomial):
            return e
        return LaurentPolynomial.constant(e)

    def __setattr__(self, *args):
        raise AttributeError("PolyMatrix values are immutable")

    @staticmethod
    def build(rows, cols, fn) -> "PolyMatrix":
        return PolyMatrix(rows, cols, [[fn(i, j) for j in range(cols)] for i in range(rows)])

    @staticmethod
    def zero(rows, cols) -> "PolyMatrix":
        z = LaurentPolynomial.zero()
        return PolyMatrix(rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(n) -> "PolyMatrix":
        return PolyMatrix.build(n, n, lambda i, j: LaurentPolynomial.one()
                                if i == j else LaurentPolynomial.zero())

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return PolyMatrix.build(
            self.rows, other.cols,
            lambda i, j: sum((self.entries[i][k] * other.entries[k][j]
                              for k in range(self.cols)), LaurentPolynomial.zero()))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return PolyMatrix.build(self.rows, self.cols,
                                lambda i, j: self.entries[i][j] + other.entries[i][j])

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix.build(self.rows, self.cols, lambda i, j: -self.entries[i][j])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p) -> "PolyMatrix":
        p = self._lift(p)
        return PolyMatrix.build(self.rows, self.cols, lambda i, j: p * self.entries[i][j])

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return PolyMatrix(self.rows, self.cols + other.cols,
                          [list(a) + list(b) for a, b in zip(self.entries, other.entries)])

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return PolyMatrix(self.rows + other.rows, self.cols,
                          list(self.entries) + list(other.entries))

    @staticmethod
    def from_blocks(grid) -> "PolyMatrix":
        """Assemble from a 2-dim grid of PolyMatrix blocks."""
        rows = None
        for block_row in grid:
            acc = None
            for block in block_row:
                acc = block if acc is None else acc.hstack(block)
            rows = acc if rows is None else rows.vstack(acc)
        return rows

    def grid_transpose(self) -> "PolyMatrix":
        return PolyMatrix.build(self.cols, self.rows, lambda i, j: self.entries[j][i])

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        return PolyMatrix(len(row_idx), len(col_idx),
                          [[self.entries[i][j] for j in col_idx] for i in row_idx])

    def determinant(self) -> LaurentPolynomial:
        """Fraction-free Bareiss determinant (exact over the Laurent ring)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return LaurentPolynomial.one()
        m = [list(row) for row in self.entries]
        sign = 1
        prev = LaurentPolynomial.one()
        for k in range(n - 1):
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
        det = m[n - 1][n - 1]
        return det if sign == 1 else -det


def smith_diagonalize(matrix: PolyMatrix):
    """Diagonalize over F[t] by unimodular row/column operations.

    Returns (diagonal entries as a list, R, R_inv) where the column transform R
    satisfies: x solves matrix @ x = 0 iff x = R @ y with y supported on the
    zero columns of the diagonalized matrix.  Row transforms are not tracked.
    """
    rows, cols = matrix.rows, matrix.cols
    m = [list(r) for r in matrix.entries]
    r_mat = [[LaurentPolynomial.one() if i == j else LaurentPolynomial.zero()
              for j in range(cols)] for i in range(cols)]
    r_inv = [[LaurentPolynomial.one() if i == j else LaurentPolynomial.zero()
              for j in range(cols)] for i in range(cols)]

    def col_swap(a, b):
        for i in range(rows):
            m[i][a], m[i][b] = m[i][b], m[i][a]
        for i in range(cols):
            r_mat[i][a], r_mat[i][b] = r_mat[i][b], r_mat[i][a]
        r_inv[a], r_inv[b] = r_inv[b], r_inv[a]

    def col_addmul(dst, src, q):
        # col_dst += q * col_src ; inverse: subtract on r_inv rows reversed
        for i in range(rows):
            m[i][dst] = m[i][dst] + q * m[i][src]
        for i in range(cols):
            r_mat[i][dst] = r_mat[i][dst] + q * r_mat[i][src]
        for j in range(cols):
            r_inv[src][j] = r_inv[src][j] - q * r_inv[dst][j]

    def col_scale_unit(idx, unit):
        inv = unit ** (-1)
        for i in range(rows):
            m[i][idx] = m[i][idx] * unit
        for i in range(cols):
            r_mat[i][idx] = r_mat[i][idx] * unit
        for j in range(cols):
            r_inv[idx][j] = r_inv[idx][j] * inv

    def row_swap(a, b):
        m[a], m[b] = m[b], m[a]

    def row_addmul(dst, src, q):
        for j in range(cols):
            m[dst][j] = m[dst][j] + q * m[src][j]

    # clear columns into F[t]
    for j in range(cols):
        vals = [m[i][j].valuation for i in range(rows) if not m[i][j].is_zero()]
        if vals:
            v = min(vals)
            if v != 0:
                col_scale_unit(j, LaurentPolynomial.t_power(-v))

    diag = []
    pr = pc = 0
    while pr < rows and pc < cols:
        # find the nonzero entry of least degree in the remaining block
        best = None
        for i in range(pr, rows):
            for j in range(pc, cols):
                if not m[i][j].is_zero():
                    d = m[i][j].degree - m[i][j].valuation + (0 if m[i][j].valuation == 0 else 0)
                    d = m[i][j].degree
                    if best is None or d < best[0]:
                        best = (d, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != pr:
            row_swap(pr, bi)
        if bj != pc:
            col_swap(pc, bj)
        reduced = True
        while reduced:
            reduced = False
            pivot = m[pr][pc]
            for i in range(pr + 1, rows):
                if not m[i][pc].is_zero():
                    q, r = m[i][pc].divmod_poly(pivot)
                    row_addmul(i, pr, -q)
                    if not r.is_zero():
                        row_swap(pr, i)
                        reduced = True
                        break
            if reduced:
                continue
            pivot = m[pr][pc]
            for j in range(pc + 1, cols):
                if not m[pr][j].is_zero():
                    q, r = m[pr][j].divmod_poly(pivot)
                    col_addmul(j, pc, -q)
                    if not r.is_zero():
                        col_swap(pc, j)
                        reduced = True
                        break
        diag.append(m[pr][pc])
        pr += 1
        pc += 1

    r_matrix = PolyMatrix(cols, cols, r_mat)
    r_inverse = PolyMatrix(cols, cols, r_inv)
    zero_cols = [j for j in range(cols) if j >= len(diag) or diag[j].is_zero()]
    diag = [d for d in diag if not d.is_zero()]
    return diag, zero_cols, r_matrix, r_inverse


def homology_order(boundary_in, boundary_out) -> LaurentPolynomial:
    """Order of ker(boundary_out)/im(boundary_in) over F[t^{+-1}].

    `boundary_in` maps into the middle chain module (its columns generate the
    image); `boundary_out` maps out of it.  Pass None for a missing boundary
    (treated as the zero map out of / into a zero module).  Returns 0 exactly
    when the homology module has positive rank; otherwise a representative of
    the module order, in monic-normal form.
    """
    if boundary_in is None and boundary_out is None:
        raise ValueError("need at least one boundary to size the middle module")
    if boundary_out is None:
        boundary_out = PolyMatrix.zero(0, boundary_in.rows)
    if boundary_in is None:
        boundary_in = PolyMatrix.zero(boundary_out.cols, 0)
    if boundary_out.cols != boundary_in.rows:
        raise ValueError("boundary shapes do not share the middle module")
    if boundary_out.rows and boundary_in.cols:
        if not (boundary_out @ boundary_in).is_zero():
            raise ValueError("chain condition failed: boundary_out . boundary_in != 0")

    n = boundary_in.rows
    if n == 0:
        return LaurentPolynomial.one()

    if boundary_out.rows == 0:
        kernel_dim = n
        presentation = boundary_in
    else:
        diag, zero_cols, r_mat, r_inv = smith_diagonalize(boundary_out)
        kernel_dim = len(zero_cols)
        if kernel_dim == 0:
            return LaurentPolynomial.one()
        coords = r_inv @ boundary_in
        nonzero_rows = [i for i in range(n) if i not in set(zero_cols)]
        if any(not coords.entries[i][j].is_zero()
               for i in nonzero_rows for j in range(coords.cols)):
            raise AssertionError("image escaped the kernel coordinates")
        presentation = coords.submatrix(zero_cols, range(coords.cols))

    if presentation.cols == 0:
        return LaurentPolynomial.zero() if kernel_dim > 0 else LaurentPolynomial.one()
    diag, _, _, _ = smith_diagonalize(presentation)
    if len(diag) < kernel_dim:
        return LaurentPolynomial.zero()
    order = LaurentPolynomial.one()
    for d in diag:
        order = order * d
    return order.monic_normal()


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and friends
# ---------------------------------------------------------------------------

def smith_integer(matrix):
    """Integer Smith form: returns (diag, U, V) with U * M * V diagonal.

    `matrix` is a list of lists of ints; diag is the list of nonnegative
    diagonal entries (zeros trailing), U and V unimodular.
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(dst, src, q):
        m[dst] = [a - q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a - q * b for a, b in zip(u[dst], u[src])]

    def col_op(dst, src, q):
        for i in range(rows):
            m[i][dst] -= q * m[i][src]
        for i in range(cols):
            v[i][dst] -= q * v[i][src]

    def row_swap(a, b):
        m[a], m[b] = m[b], m[a]
        u[a], u[b] = u[b], u[a]

    def col_swap(a, b):
        for i in range(rows):
            m[i][a], m[i][b] = m[i][b], m[i][a]
        for i in range(cols):
            v[i][a], v[i][b] = v[i][b], v[i][a]

    def row_negate(idx):
        m[idx] = [-a for a in m[idx]]
        u[idx] = [-a for a in u[idx]]

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
                row_swap(pr, i0)
            if j0 != pr:
                col_swap(pr, j0)
            done = True
            for i in range(pr + 1, rows):
                if m[i][pr] != 0:
                    q = m[i][pr] // m[pr][pr]
                    row_op(i, pr, q)
                    if m[i][pr] != 0:
                        row_swap(pr, i)
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
            row_negate(pr)
        pr += 1

    # enforce the divisibility chain d_i | d_{i+1}
    k = pr
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if a and b and b % a != 0:
                # fold entry b into row i via standard gcd trick
                col_op(i, i + 1, -1)       # col_i -= -1 * col_{i+1}: adds col i+1
                # now column i has entries (a, b); clear by row reduction
                while m[i + 1][i] != 0:
                    q = m[i][i] // m[i + 1][i] if m[i + 1][i] != 0 else 0
                    if m[i + 1][i] != 0:
                        qq = m[i][i] // m[i + 1][i]
                        row_op(i, i + 1, qq)
                        row_swap(i, i + 1)
                # re-clear column/row tails
                for j in range(k):
                    if j != i and m[i][j] != 0:
                        q = m[i][j] // m[i][i]
                        col_op(j, i, q)
                for r2 in range(k):
                    if r2 != i and m[r2][i] != 0:
                        q = m[r2][i] // m[i][i]
                        row_op(r2, i, q)
                if m[i][i] < 0:
                    row_negate(i)
                if m[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True
    diag = [m[i][i] for i in range(min(rows, cols))]
    return diag, u, v


def integer_kernel_basis(matrix):
    """Basis of the integer kernel {x : M x = 0} as a list of column vectors."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    diag, _, v = smith_integer(matrix)
    rank = sum(1 for d in diag if d != 0)
    return [[v[i][j] for i in range(cols)] for j in range(rank, cols)]

