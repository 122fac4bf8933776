"""Exact coefficient fields parameterized by (q, rho).

Three families of fields are supported:

* ``generic``      -- rational functions in two variables q, rho over Q whose
                      denominators are a power of rho times a polynomial in q.
* ``qpow:a``       -- rational functions in q over Q, with rho identified with q^a.
* ``cyclo:m``      -- the cyclotomic field Q(zeta_m) with q = zeta_m, and rho either
                      a fixed power zeta_m^a or a fresh transcendental.

A field is a ``FieldSpec``, the named tuple ``(kind, m, tie)``: ``m`` is
the order of q = zeta on ``cyclo:m`` and None on the other kinds, and
``tie`` is the exponent b with rho = q^b (b mod m on ``cyclo:m``), or None
where rho is free, on ``generic`` and ``cyclo:m,rho=free``.  The order of
q and the tie are all that the field layer reads of a field.

All arithmetic is exact; equality is decided on canonical normal forms.  The
quantum characteristic e is the multiplicative order of q^2 (infinite in the
first two families).

This module is the only one that knows how a value is stored.  Other modules
use the operators of ``Scalar``, its truthiness for "nonzero", and the
functions below: ``monomial`` (with ``zero`` and ``one``), ``specialize``,
``evaluate`` (the rational value at a point), ``to_text`` (the canonical
text form that results print; nothing parses it back),
``generic_terms`` / ``generic_from_terms`` (an exponent-and-coefficient
encoding of generic values), ``Scalar.has_table_denominator`` (the one
denominator shape c*q^A*rho^B*(q^2-1)^K a table value may have), and
``Scalar.to_laurent`` / ``Scalar.from_laurent``, the lift of a ``qpow`` or
``rho = zeta^a`` value to a ``Laurent`` polynomial in q over a denominator
and the lowering back, on which the tensor action runs, and
``Scalar.mod_p``, the image of a value in Z/p under one fixed ring map per
field, returned as the pair ``(v, p)`` of an int 0 <= v < p and the prime
p, or None where a denominator maps to zero; ``mod_p(field)`` sends a
generic value, from its terms, to the image of its specialisation to
``field``.  Changing the representation of a field therefore changes this
module only.

A generic value is a ``QRhoFrac``: the reduced fraction

    q^e * rho^f * N(q, rho) / (c * (q-1)^i * (q+1)^j * r(q)),

N = sum_k rho^k * n_k(q) with integer coefficient lists n_k, c > 0 an
int and r(q) an integer polynomial.  Its denominator lies in Q[q] times a
power of rho, and ``+ - *`` keep it there; so does division by a value
whose numerator has a single power of rho, a unit of the form.  Division
by any other value answers where the quotient lies in the form (an exact
division, as ``linalg.rref``'s Bareiss steps make) and raises
``RhoDependentDivisor`` where it does not.  Written with nonnegative
exponents, the form is the reduced fraction over Z[q, rho] with content 1
and a denominator of positive leading coefficient, unique because
Z[q, rho] is a UFD: its terms, as ``generic_terms`` returns them and a
stored table holds them, are the canonical terms of a value.  Every table value
N / (c*q^A*rho^B*(q^2-1)^K) has r = 1 and i = j = K.  ``generic_from_terms``
builds a value from canonical terms without normalising and keeps the
terms with it, so ``specialize``, ``mod_p``, ``evaluate``, ``to_text`` and
``generic_terms`` read a stored value's terms as they were loaded; any
other value computes its terms once, on first read.

A ``qpow`` value is a ``LaurentFrac``: the reduced fraction
q^e * n(q) / (c * (q-1)^i * (q+1)^j * r(q)), the same form without rho.
A table value maps under rho = q^a to such a fraction with r = 1, and so
do sums and products of such images, so ``specialize`` to ``qpow:a`` is
the substitution rho -> q^a into the stored integer terms.  In both value
types ``+ - * /`` cancel the factors q, rho, q - 1 and q + 1 by exponent
shifts and synthetic division at +-1, with no polynomial gcd.  Only a
division by a value whose numerator has another factor in q makes r != 1
(on the query path, a ``linalg.rref`` pivot; on the generic field,
``delta``'s q - q^-1 and the q^2 + 1 of some ``singular`` queries); while
r != 1, each operation takes one gcd of integer coefficient lists
(``_pgcd``: the heuristic gcd, checked by exact division, with the
primitive remainder sequence as fallback).  The forms are unique, so
``==`` and ``hash`` compare them, and ``to_text`` prints a value with its
powers of q and rho moved to the side where they are not negative.  The
module runs on Python ints alone: ``_phi`` divides x^m - 1 in the
integers and ``_modp_point`` tests primes by Miller-Rabin.

Where q and rho go in each field kind is written once, in the private
``_substitute``: it takes the terms c * q^i * rho^j of a numerator and a
denominator and builds their quotient in the field.  ``monomial``,
``Scalar.from_laurent`` and ``specialize`` each build their values
through it.

An element of Q(zeta_m) (``CycloNum``) is an integer vector of length phi(m)
over a positive integer denominator coprime to its content, so sums and
products run on Python ints.  Its inverse is the field norm's: for an
algebraic integer x, y = prod_{k != 1} sigma_k(x) over the Galois group
satisfies x*y = N(x), a rational integer, so 1/x = y/N(x) without any
polynomial division (Cohen, *A Course in Computational Algebraic Number
Theory*, GTM 138, section 4.3).  Inverses come from one module-level cache,
``_inverse``: table denominators map to c*zeta^e*(zeta^2-1)^K, so the same
few inverses serve ``specialize``, ``linalg.rref`` pivots and the
normalisation of ``CycloFrac``.
"""

import collections
from fractions import Fraction
import functools
import itertools
import math

from .errors import (
    DenominatorVanishes, IntegralityViolation, RhoDependentDivisor,
)

INFINITY = float("inf")


# ---------------------------------------------------------------------------
# dense integer polynomials in q (ascending lists of ints)
# ---------------------------------------------------------------------------

def _pmul(a, b):
    """The product of two nonzero integer polynomials, as a list."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        y = b[0]
        return list(a) if y == 1 else [x * y for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for k, y in enumerate(b):
        if y:
            for i, x in enumerate(a, k):
                out[i] += x * y
    return out


def _padd(a, b):
    """The sum of two int lists, as a new list."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        out[k] += y
    return out


def _pdivexact(a, b):
    """The quotient a / b of integer polynomials, b nonzero, as a list, or
    None unless b divides a in Z[q]; long division from the top."""
    a = list(a)
    nb, lead = len(b), b[-1]
    out = [0] * max(0, len(a) - nb + 1)
    for k in range(len(out) - 1, -1, -1):
        t, rem = divmod(a[k + nb - 1], lead)
        if rem:
            return None
        if t:
            out[k] = t
            for i, y in enumerate(b, k):
                a[i] -= t * y
    return None if any(a[:nb - 1]) else out


def _div_q_minus_one(a):
    """a / (q - 1), where a(1) = 0: the quotient's coefficients are the
    partial sums of a from the top."""
    out = list(itertools.accumulate(reversed(a[1:])))
    out.reverse()
    return out


def _div_q_plus_one(a):
    """a / (q + 1), where a(-1) = 0, by synthetic division from the top."""
    out, carry = [], 0
    for x in reversed(a[1:]):
        carry = x - carry
        out.append(carry)
    out.reverse()
    return out


def _at_minus_one(a):
    return sum(a[::2]) - sum(a[1::2])


@functools.lru_cache(maxsize=None)
def _q_minus_plus(i, j):
    """The coefficients of (q - 1)^i * (q + 1)^j."""
    out = [1]
    for _ in range(i):
        out = [x - y for x, y in zip([0] + out, out + [0])]
    for _ in range(j):
        out = [x + y for x, y in zip([0] + out, out + [0])]
    return tuple(out)


def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [x // g for x in a]


def _pgcd(a, b):
    """The gcd of two nonzero integer polynomials, primitive and with a
    positive leading coefficient.

    First the heuristic gcd (Char, Geddes and Gonnet, *GCDHEU: heuristic
    polynomial GCD algorithm based on integer GCD computation*, J. Symbolic
    Comput. 7, 1989): the symmetric xi-adic expansion of
    gcd(a(xi), b(xi)), for an integer xi > 2 * min(|a|, |b|) + 2 in the
    max-norms of the primitive parts, is the gcd as soon as its primitive
    part divides both, which exact division checks.  After six values of
    xi the primitive remainder sequence decides."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    a, b = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        h = math.gcd(_value_at(a, xi), _value_at(b, xi))
        if h:
            cand = []
            while h:
                c = h % xi
                if 2 * c > xi:
                    c -= xi
                cand.append(c)
                h = (h - c) // xi
            if len(cand) == 1:
                return [1]
            cand = _primitive(cand)
            if (len(cand) <= min(len(a), len(b))
                    and _pdivexact(a, cand) is not None
                    and _pdivexact(b, cand) is not None):
                return cand
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return _prs_gcd(a, b)


def _value_at(a, x):
    total = 0
    for c in reversed(a):
        total = total * x + c
    return total


def _prs_gcd(a, b):
    """The gcd of two primitive integer polynomials by the primitive
    remainder sequence: pseudo-remainders, each divided by its content."""
    while True:
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            return [1]
        r, lead = list(a), b[-1]
        while len(r) >= len(b):
            t = r.pop()
            r = [x * lead for x in r]
            for i, y in enumerate(b[:-1], len(r) - len(b) + 1):
                r[i] -= t * y
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        a, b = b, _primitive(r)


@functools.lru_cache(maxsize=None)
def _cyclotomic(m):
    """The coefficients of the m-th cyclotomic polynomial: x^m - 1 divided
    by Phi_d for every proper divisor d of m, in the integers."""
    out = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            out = _pdivexact(out, _cyclotomic(d))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _phi(m):
    """The degree d of the m-th cyclotomic polynomial and the powers of zeta.

    Returns (d, zpows): for k = 0..m-1, zpows[k] is the integer coefficient
    vector (length d) of x^k reduced modulo Phi_m.  Since Phi_m divides
    x^m - 1, x^k reduces to zpows[k % m] for every k >= 0.
    """
    coeffs = _cyclotomic(m)
    d = len(coeffs) - 1
    cur = [1] + [0] * (d - 1)
    zpows = []
    for _ in range(m):
        zpows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * p for c, p in zip(cur, coeffs)]
    return d, zpows


def _content_free(v, den):
    """(v, den) divided by gcd(content(v), den): the integer normal form of
    v / den, as a tuple and a positive int."""
    g = math.gcd(den, *v)
    if g == 1:
        return tuple(v), den
    return tuple(x // g for x in v), den // g


def _cyclo(m, v, den):
    """The CycloNum v / den, where v and den are in normal form already."""
    x = object.__new__(CycloNum)
    x.m, x.v, x.den = m, v, den
    return x


def _normal(m, v, den):
    return _cyclo(m, *_content_free(v, den))


@functools.lru_cache(maxsize=4096)
def _inverse(m, v, den):
    """(v, den) of the inverse of the nonzero v / den in Q(zeta_m).

    The integer vector v is an algebraic integer x; y, the product of its
    conjugates sigma_k(x) for the units k != 1 mod m, is one too, and
    x*y = N(x) is a nonzero rational integer.  So (v/den)^-1 = den*y/N(x).
    Every table denominator maps to c*zeta^e*(zeta^2-1)^K, so few distinct
    arguments recur many times."""
    if not any(v):
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    x = _cyclo(m, v, 1)
    y = CycloNum.const(m, 1)
    for k in range(2, m):
        if math.gcd(k, m) == 1:
            y = y * x.galois(k)
    norm = (x * y).v[0]
    sign = 1 if norm > 0 else -1
    return _content_free([sign * den * c for c in y.v], abs(norm))


class CycloNum:
    """An element of Q(zeta_m) in integer normal form v / den.

    v is the tuple of phi(m) integer coordinates of a residue modulo the m-th
    cyclotomic polynomial (ascending powers of zeta), den is a positive int,
    and gcd(content(v), den) = 1; zero is v = 0, den = 1.  The form is
    canonical, so ``==`` compares (m, v, den), and it is truthy exactly when
    nonzero.  Sums, products and Galois conjugates run on Python ints
    (through the zeta-power table of ``_phi``) and normalise with one gcd
    pass.  Inverses come from the module cache ``_inverse``, keyed by
    (m, v, den).
    """

    __slots__ = ("m", "v", "den")

    def __init__(self, m, coeffs):
        d, zpows = _phi(m)
        coeffs = [Fraction(x) for x in coeffs]
        den = math.lcm(*(x.denominator for x in coeffs))
        v = [0] * d
        for k, x in enumerate(coeffs):
            if x:
                n = x.numerator * (den // x.denominator)
                if k < d:
                    v[k] += n
                else:
                    for i, z in enumerate(zpows[k % m]):
                        v[i] += n * z
        self.m = m
        self.v, self.den = _content_free(v, den)

    @property
    def c(self):
        """The coordinates as a tuple of Fractions."""
        return tuple(Fraction(x, self.den) for x in self.v)

    @staticmethod
    def const(m, value):
        value = Fraction(value)
        d = _phi(m)[0]
        return _cyclo(m, (value.numerator,) + (0,) * (d - 1), value.denominator)

    def __bool__(self):
        return any(self.v)

    def __eq__(self, other):
        return (isinstance(other, CycloNum) and self.m == other.m
                and self.v == other.v and self.den == other.den)

    def __hash__(self):
        return hash((self.m, self.v, self.den))

    def __add__(self, other):
        da, db = self.den, other.den
        if da == db:
            return _normal(self.m, [x + y for x, y in zip(self.v, other.v)], da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _normal(self.m, [x * fa + y * fb for x, y in zip(self.v, other.v)],
                       da * fa)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _cyclo(self.m, tuple(-x for x in self.v), self.den)

    def __mul__(self, other):
        m = self.m
        d, zpows = _phi(m)
        a, b = self.v, other.v
        out = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        res = out[:d]
        for k in range(d, 2 * d - 1):
            x = out[k]
            if x:
                for i, z in enumerate(zpows[k % m]):
                    if z:
                        res[i] += x * z
        return _normal(m, res, self.den * other.den)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        return _cyclo(self.m, *_inverse(self.m, self.v, self.den))

    def galois(self, k):
        """Apply the automorphism sigma_k: zeta -> zeta^k (k a unit mod m)."""
        m = self.m
        d, zpows = _phi(m)
        out = [0] * d
        for i, x in enumerate(self.v):
            if x:
                for j, z in enumerate(zpows[k * i % m]):
                    out[j] += x * z
        return _normal(m, out, self.den)

    def __repr__(self):
        return "CycloNum(m=%d, %s)" % (self.m, list(self.c))


# ---------------------------------------------------------------------------
# dense polynomials in rho over CycloNum (ascending lists), and their fractions
# ---------------------------------------------------------------------------

def _ctrim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _cadd(m, a, b):
    n = max(len(a), len(b))
    z = CycloNum.const(m, 0)
    out = [z] * n
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return _ctrim(out)


def _cneg(a):
    return [-x for x in a]


def _cmul(m, a, b):
    if not a or not b:
        return []
    z = CycloNum.const(m, 0)
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return _ctrim(out)


def _cdivmod(m, a, b):
    a = list(a)
    z = CycloNum.const(m, 0)
    q = [z] * max(0, len(a) - len(b) + 1)
    inv = b[-1].inverse()
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = a[k + i] - c * y
        _ctrim(a)
    return _ctrim(q), a


def _cgcd(m, a, b):
    r0, r1 = list(a), list(b)
    while r1:
        _, r = _cdivmod(m, r0, r1)
        r0, r1 = r1, r
    if r0:
        inv = r0[-1].inverse()
        r0 = [x * inv for x in r0]
    return r0


class CycloFrac:
    """A rational function in rho over Q(zeta_m), reduced with monic
    denominator; truthy exactly when nonzero."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m, num, den, normalized=False):
        if normalized:
            self.m = m
            self.num = tuple(num)
            self.den = tuple(den)
            return
        num = _ctrim(list(num))
        den = _ctrim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator in rho-fraction")
        if not num:
            self.m = m
            self.num = ()
            self.den = (CycloNum.const(m, 1),)
            return
        g = _cgcd(m, num, den)
        if len(g) > 1 or (g and g[0] != CycloNum.const(m, 1)):
            num, _ = _cdivmod(m, num, g)
            den, _ = _cdivmod(m, den, g)
        inv = den[-1].inverse()
        num = [x * inv for x in num]
        den = [x * inv for x in den]
        self.m = m
        self.num = tuple(num)
        self.den = tuple(den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, CycloFrac) and self.m == other.m
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.m, self.num, self.den))

    def __add__(self, other):
        m = self.m
        n = _cadd(m, _cmul(m, list(self.num), list(other.den)),
                  _cmul(m, list(other.num), list(self.den)))
        d = _cmul(m, list(self.den), list(other.den))
        return CycloFrac(m, n, d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CycloFrac(self.m, _cneg(list(self.num)), list(self.den), normalized=True)

    def __mul__(self, other):
        m = self.m
        return CycloFrac(m, _cmul(m, list(self.num), list(other.num)),
                         _cmul(m, list(self.den), list(other.den)))

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero rho-fraction")
        return CycloFrac(self.m, list(self.den), list(self.num))

    def __repr__(self):
        return "CycloFrac(m=%d, num=%s, den=%s)" % (self.m, list(self.num), list(self.den))


# ---------------------------------------------------------------------------
# values of Q(q) and Q(q, rho): reduced fractions of integer polynomials
# ---------------------------------------------------------------------------

def _laurent_normal(e, n, c, i, j, r):
    """The normal form of q^e * n / (c * (q - 1)^i * (q + 1)^j * r), where
    n is an int list, c > 0, and r is a denominator rest in normal form
    (see ``LaurentFrac``).  Powers of q move into e and common factors
    q - 1 and q + 1 cancel by synthetic division; a polynomial gcd runs
    only where r is not 1."""
    while n and not n[-1]:
        n.pop()
    if not n:
        return _QZERO
    if not n[0]:
        k = 1
        while not n[k]:
            k += 1
        e += k
        n = n[k:]
    while i and not sum(n):
        n = _div_q_minus_one(n)
        i -= 1
    while j and not _at_minus_one(n):
        n = _div_q_plus_one(n)
        j -= 1
    if len(r) > 1 and len(n) > 1:
        g = _pgcd(n, r)
        if len(g) > 1:
            n = _pdivexact(n, g)
            r = tuple(_pdivexact(r, g))
    g = math.gcd(c, *n)
    if g != 1:
        c //= g
        n = [x // g for x in n]
    return _laurent_frac(e, tuple(n), c, i, j, r)


def _laurent_frac(e, n, c, i, j, r):
    x = object.__new__(LaurentFrac)
    x.e, x.n, x.c, x.i, x.j, x.r = e, n, c, i, j, r
    return x


def _split_denominator(den):
    """(s, i, j, r) with den = s * (q - 1)^i * (q + 1)^j * r, for an int
    list den with den(0) != 0: r is primitive with a positive leading
    coefficient and r(1), r(-1) nonzero, and s is an int."""
    i = j = 0
    while not sum(den):
        den = _div_q_minus_one(den)
        i += 1
    while not _at_minus_one(den):
        den = _div_q_plus_one(den)
        j += 1
    s = math.gcd(*den)
    if den[-1] < 0:
        s = -s
    return s, i, j, tuple(x // s for x in den)


def _quotient(e, num, den):
    """The ``LaurentFrac`` q^e * num / den of two int lists, den(0) != 0."""
    s, i, j, r = _split_denominator(den)
    if s < 0:
        num = [-x for x in num]
    return _laurent_normal(e, num, abs(s), i, j, r)


def _common_denominator(x, y):
    """(c, i, j, r, fx, fy) for two values of ``LaurentFrac`` or
    ``QRhoFrac``: c * (q - 1)^i * (q + 1)^j * r is the least common
    multiple of their denominators, and it is fx times the denominator of
    x and fy times that of y, fx and fy int lists."""
    g = math.gcd(x.c, y.c)
    c = x.c // g * y.c
    i, j, r = max(x.i, y.i), max(x.j, y.j), x.r
    if r == y.r:
        fx = fy = (1,)
    elif len(y.r) == 1:
        fx, fy = (1,), r
    elif len(r) == 1:
        fx, fy, r = y.r, (1,), y.r
    else:
        g2 = _pgcd(r, y.r)
        fx, fy = _pdivexact(y.r, g2), _pdivexact(r, g2)
        r = tuple(_pmul(r, fx))
    return (c, i, j, r,
            _pmul(_pmul(_q_minus_plus(i - x.i, j - x.j), fx), (y.c // g,)),
            _pmul(_pmul(_q_minus_plus(i - y.i, j - y.j), fy), (x.c // g,)))


def _product_rest(x, y):
    """The denominator rest r of a product of x and y, before cancelling."""
    if len(y.r) == 1:
        return x.r
    if len(x.r) == 1:
        return y.r
    return tuple(_pmul(x.r, y.r))


def _denominator(x):
    """c * (q - 1)^i * (q + 1)^j * r of a ``LaurentFrac`` or ``QRhoFrac``,
    as an int list."""
    return _pmul(_pmul(_q_minus_plus(x.i, x.j), x.r), (x.c,))


class LaurentFrac:
    """A value of Q(q), the field of ``qpow:a``, in the normal form

        q^e * n(q) / (c * (q - 1)^i * (q + 1)^j * r(q)),

    where n and r are tuples of int coefficients (ascending), c > 0 is an
    int and i, j >= 0.  n(0) != 0, or n is () for zero (with e = i = j = 0,
    c = 1 and r = (1,)); r is primitive with a positive leading coefficient
    and r(0), r(1), r(-1) nonzero, and r = (1,) unless some operation
    divided by a polynomial with another factor; gcd(content(n), c) = 1;
    n(1) != 0 if i > 0 and n(-1) != 0 if j > 0; and gcd(n, r) = 1.  Over
    Q[q] a reduced fraction is unique up to a rational unit, and q, q - 1,
    q + 1 and r share no factor, so the form is unique: ``==`` and
    ``hash`` compare the six fields, and the value is truthy exactly when
    nonzero.
    """

    __slots__ = ("e", "n", "c", "i", "j", "r")

    def __bool__(self):
        return bool(self.n)

    def _key(self):
        return (self.e, self.n, self.c, self.i, self.j, self.r)

    def __eq__(self, other):
        return isinstance(other, LaurentFrac) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __neg__(self):
        return _laurent_frac(self.e, tuple(-x for x in self.n), self.c,
                             self.i, self.j, self.r)

    def __add__(self, other):
        if not other.n:
            return self
        if not self.n:
            return other
        e = min(self.e, other.e)
        a = [0] * (self.e - e) + list(self.n)
        b = [0] * (other.e - e) + list(other.n)
        c, i, j, r = self.c, self.i, self.j, self.r
        if (c, i, j, r) != (other.c, other.i, other.j, other.r):
            c, i, j, r, fa, fb = _common_denominator(self, other)
            a, b = _pmul(a, fa), _pmul(b, fb)
        return _laurent_normal(e, _padd(a, b), c, i, j, r)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not self.n or not other.n:
            return _QZERO
        return _laurent_normal(self.e + other.e, _pmul(self.n, other.n),
                               self.c * other.c, self.i + other.i,
                               self.j + other.j, _product_rest(self, other))

    def __truediv__(self, other):
        if not other.n:
            raise ZeroDivisionError("division by zero q-fraction")
        return self * _quotient(-other.e, _denominator(other), list(other.n))

    def _terms(self):
        """The numerator and the denominator as lists of ((exponent,), int)
        terms, the power of q moved to the side where it is not negative:
        the reduced fraction with integer coefficients of content 1 and a
        positive leading denominator coefficient."""
        low = max(self.e, 0)
        return ([((low + k,), v) for k, v in enumerate(self.n) if v],
                [((low - self.e + k,), v)
                 for k, v in enumerate(_denominator(self)) if v])

    def __repr__(self):
        return "LaurentFrac(e=%d, n=%s, den=%s)" % (self.e, list(self.n),
                                                   _denominator(self))


_QZERO = _laurent_frac(0, (), 1, 0, 0, (1,))


def _qrho_normal(e, f, rows, c, i, j, r):
    """The normal form of q^e * rho^f * N / (c * (q - 1)^i * (q + 1)^j * r),
    where N = sum_k rho^k * rows[k] with int lists rows[k], c > 0 and r a
    denominator rest in normal form (see ``QRhoFrac``).  The lowest powers
    of rho and q move into f and e, and common factors q - 1, q + 1 and the
    content cancel as in ``_laurent_normal``; a polynomial gcd with every
    row runs only where r is not 1."""
    for row in rows:
        while row and not row[-1]:
            row.pop()
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        return _GZERO
    if not rows[0]:
        k = 1
        while not rows[k]:
            k += 1
        f += k
        rows = rows[k:]
    if not any(row[0] for row in rows if row):
        low = min(next(k for k, x in enumerate(row) if x)
                  for row in rows if row)
        e += low
        rows = [row[low:] for row in rows]
    while i and not any(map(sum, rows)):
        rows = [_div_q_minus_one(row) for row in rows]
        i -= 1
    while j and not any(map(_at_minus_one, rows)):
        rows = [_div_q_plus_one(row) for row in rows]
        j -= 1
    if len(r) > 1:
        g = r
        for row in rows:
            if row:
                g = _pgcd(row, g)
                if len(g) == 1:
                    break
        if len(g) > 1:
            rows = [_pdivexact(row, g) if row else row for row in rows]
            r = tuple(_pdivexact(r, g))
    g = math.gcd(c, *itertools.chain.from_iterable(rows))
    if g != 1:
        c //= g
        rows = [[x // g for x in row] for row in rows]
    return _qrho(e, f, tuple(map(tuple, rows)), c, i, j, r)


def _qrho(e, f, n, c, i, j, r, terms=None):
    x = object.__new__(QRhoFrac)
    x.e, x.f, x.n, x.c, x.i, x.j, x.r, x.t = e, f, n, c, i, j, r, terms
    return x


def _shifted(x, e, f):
    """The rows of x as lists, multiplied by q^(x.e - e) * rho^(x.f - f)."""
    pad = [0] * (x.e - e)
    return [[] for _ in range(x.f - f)] + [pad + list(row) if row else []
                                           for row in x.n]


class QRhoFrac:
    """A value of Q(q, rho), the generic field, in the normal form

        q^e * rho^f * N(q, rho) / (c * (q - 1)^i * (q + 1)^j * r(q)),

    N = sum_k rho^k * n[k](q).  n is a tuple of rows, each a tuple of int
    coefficients (ascending in q) without trailing zeros, () for a zero
    row; its first and last rows are not zero and some row has n[k](0) !=
    0, or n is () for zero (with e = f = i = j = 0, c = 1 and r = (1,)).
    The denominator is that of ``LaurentFrac``, with the same conditions
    on c, i, j and r, read over all rows: gcd(content(N), c) = 1, some
    n[k](1) != 0 if i > 0 and some n[k](-1) != 0 if j > 0, and r and the
    rows have no common factor.  The form is unique, so ``==`` and ``hash``
    compare its seven fields.  ``t`` holds the value's terms once read
    (``_terms``).
    """

    __slots__ = ("e", "f", "n", "c", "i", "j", "r", "t")

    def __bool__(self):
        return bool(self.n)

    def _key(self):
        return (self.e, self.f, self.n, self.c, self.i, self.j, self.r)

    def __eq__(self, other):
        return isinstance(other, QRhoFrac) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __neg__(self):
        return _qrho(self.e, self.f, tuple(tuple(-x for x in row)
                                           for row in self.n),
                     self.c, self.i, self.j, self.r)

    def __add__(self, other):
        if not other.n:
            return self
        if not self.n:
            return other
        e, f = min(self.e, other.e), min(self.f, other.f)
        a, b = _shifted(self, e, f), _shifted(other, e, f)
        c, i, j, r = self.c, self.i, self.j, self.r
        if (c, i, j, r) != (other.c, other.i, other.j, other.r):
            c, i, j, r, fa, fb = _common_denominator(self, other)
            a = [_pmul(row, fa) if row else row for row in a]
            b = [_pmul(row, fb) if row else row for row in b]
        if len(a) < len(b):
            a, b = b, a
        rows = [_padd(row, b[k]) if k < len(b) else row
                for k, row in enumerate(a)]
        return _qrho_normal(e, f, rows, c, i, j, r)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not self.n or not other.n:
            return _GZERO
        rows = [[] for _ in range(len(self.n) + len(other.n) - 1)]
        for k, x in enumerate(self.n):
            if x:
                for m, y in enumerate(other.n, k):
                    if y:
                        rows[m] = _padd(rows[m], _pmul(x, y))
        return _qrho_normal(self.e + other.e, self.f + other.f, rows,
                            self.c * other.c, self.i + other.i,
                            self.j + other.j, _product_rest(self, other))

    def __truediv__(self, other):
        """The quotient, where it lies in the form.  A numerator N with a
        single power of rho is a unit of the form.  Any other N is g * P,
        g(q) its content over Z[q] and P primitive with two or more powers
        of rho and no factor rho; P is prime to every polynomial in q, so
        the quotient lies in the form exactly when P divides the dividend's
        numerator in Z[q][rho], and then long division in rho, exact over
        Z[q] at each step, finds it."""
        if not other.n:
            raise ZeroDivisionError("division by zero generic value")
        rows = other.n
        g = rows[0]
        if len(rows) > 1:
            g = functools.reduce(_pgcd, filter(None, rows))
            content = math.gcd(*itertools.chain.from_iterable(rows))
            g = [content * x for x in g]
        inverse = _quotient(-other.e, _denominator(other), list(g))
        x = self * _qrho(inverse.e, -other.f, (inverse.n,), inverse.c,
                         inverse.i, inverse.j, inverse.r)
        if len(rows) == 1 or not x.n:
            return x
        quotient = _rho_divexact(x.n, [_pdivexact(row, g) if row else []
                                       for row in rows])
        if quotient is None:
            raise RhoDependentDivisor(
                "cannot divide by %s: the quotient has a denominator with "
                "more than one power of rho"
                % to_text(Scalar(_GENERIC, other)))
        return _qrho_normal(x.e, x.f, quotient, x.c, x.i, x.j, x.r)

    def _terms(self):
        """The numerator and the denominator as sorted tuples of
        ((qexp, rhoexp), int) terms, the powers of q and rho moved to the
        side where they are not negative: the canonical terms."""
        if self.t is None:
            lq, lr = max(self.e, 0), max(self.f, 0)
            num = sorted(((lq + k, lr + m), v) for m, row in enumerate(self.n)
                         for k, v in enumerate(row) if v)
            lq, lr = lq - self.e, lr - self.f
            self.t = (tuple(num), tuple(((lq + k, lr), v) for k, v
                                        in enumerate(_denominator(self)) if v))
        return self.t

    def __repr__(self):
        return "QRhoFrac(e=%d, f=%d, n=%s, den=%s)" % (
            self.e, self.f, [list(row) for row in self.n], _denominator(self))


_GZERO = _qrho(0, 0, (), 1, 0, 0, (1,))


def _rho_divexact(a, b):
    """The rows of A / B for polynomials A = sum_k rho^k * a[k] and B in
    rho over Z[q], the rows int lists or empty for zero and b[-1] nonzero,
    or None unless B divides A in Z[q][rho]; long division from the top."""
    a = [list(row) for row in a]
    nb, lead = len(b), b[-1]
    out = [[] for _ in range(max(0, len(a) - nb + 1))]
    for k in range(len(out) - 1, -1, -1):
        top = a[k + nb - 1]
        if not any(top):
            continue
        t = _pdivexact(top, lead)
        if t is None:
            return None
        out[k] = t
        for m, row in enumerate(b, k):
            if row:
                a[m] = _padd(a[m], [-x for x in _pmul(t, row)])
    return None if any(map(any, a[:nb - 1])) else out


def _qrho_quotient(nb, nc, db, dc):
    """The ``QRhoFrac`` (N / nc) / (D / dc), where N and D map exponent
    pairs (i, j) to nonzero ints and D is not empty.  Raises
    ``RhoDependentDivisor`` unless D has a single power of rho."""
    if not nb:
        return _GZERO
    rhos = {j for _, j in db}
    if len(rhos) > 1:
        raise RhoDependentDivisor(
            "a generic denominator has more than one power of rho")
    lowq = min(i for i, _ in nb)
    lowr = min(j for _, j in nb)
    width = max(i for i, _ in nb) - lowq + 1
    rows = [[0] * width for _ in range(max(j for _, j in nb) - lowr + 1)]
    for (i, j), n in nb.items():
        rows[j - lowr][i - lowq] = n * dc
    sign, di, dj, r = _split_denominator(
        _dense({i: n for (i, _), n in db.items()}, nc))
    if sign < 0:
        rows = [[-x for x in row] for row in rows]
    return _qrho_normal(lowq - min(i for i, _ in db), lowr - rhos.pop(),
                        rows, abs(sign), di, dj, r)


# ---------------------------------------------------------------------------
# field specifications
# ---------------------------------------------------------------------------

class FieldSpec(collections.namedtuple("FieldSpec", "kind m tie")):
    """Description of a coefficient field, a named tuple of three fields.

    ``kind`` is ``generic``, ``qpow`` or ``cyclo``; ``m`` is the order of
    q = zeta on ``cyclo:m`` and None on the other kinds; ``tie`` is the
    exponent b with rho = q^b, reduced mod m on ``cyclo``, or None where
    rho is free (``generic`` and ``cyclo:m,rho=free``).  Equality, hashing
    and order are the tuple's.
    """

    __slots__ = ()

    @staticmethod
    def generic():
        return FieldSpec("generic", None, None)

    @staticmethod
    def qpower(a):
        return FieldSpec("qpow", None, int(a))

    @staticmethod
    def cyclotomic(m, rho="free"):
        m = int(m)
        if m < 3:
            raise ValueError("cyclotomic index m must be at least 3 (q^2 = 1 is excluded)")
        return FieldSpec("cyclo", m, None if rho == "free" else int(rho) % m)

    @staticmethod
    def from_string(text):
        """Parse 'generic', 'qpow:<a>', or 'cyclo:<m>[,rho=zeta^<a>|rho=free]'."""
        text = text.strip()
        if text == "generic":
            return FieldSpec.generic()
        if text.startswith("qpow:"):
            return FieldSpec.qpower(int(text[5:]))
        if text.startswith("cyclo:"):
            m, *options = text[6:].split(",")
            m = int(m)
            if len(options) > 1:
                raise ValueError("at most one option may follow cyclo:m: %r"
                                 % text)
            option = options[0].strip() if options else "rho=free"
            if option == "rho=free":
                return FieldSpec.cyclotomic(m)
            if option.startswith("rho=zeta^"):
                return FieldSpec.cyclotomic(m, int(option[len("rho=zeta^"):]))
            raise ValueError("unrecognized field option: %r" % option)
        raise ValueError("unrecognized field: %r" % text)

    def to_string(self):
        if self.kind == "generic":
            return "generic"
        if self.kind == "qpow":
            return "qpow:%d" % self.tie
        if self.tie is None:
            return "cyclo:%d,rho=free" % self.m
        return "cyclo:%d,rho=zeta^%d" % (self.m, self.tie)

    def __repr__(self):
        return "FieldSpec(%s)" % self.to_string()


_GENERIC = FieldSpec.generic()


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """An exact element of the field described by ``spec``."""

    __slots__ = ("spec", "rep")

    def __init__(self, spec, rep):
        self.spec = spec
        self.rep = rep

    def _check(self, other):
        if self.spec != other.spec:
            raise ValueError("scalar field mismatch: %s vs %s"
                             % (self.spec.to_string(), other.spec.to_string()))

    def __add__(self, other):
        self._check(other)
        return Scalar(self.spec, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.spec, self.rep - other.rep)

    def __neg__(self):
        return Scalar(self.spec, -self.rep)

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.spec, self.rep * other.rep)

    def __truediv__(self, other):
        self._check(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.spec, self.rep / other.rep)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.spec == other.spec and self.rep == other.rep

    def __bool__(self):
        return bool(self.rep)

    def __hash__(self):
        return hash((self.spec, self.rep))

    def __repr__(self):
        return to_text(self)

    def to_laurent(self):
        """The value as ``(numerator, denominator)``, two ``Laurent``
        polynomials in q, on a ``qpow`` or ``rho = zeta^a`` field.  A
        monomial denominator is folded into the numerator and returned as
        None; only a ``qpow`` value can have any other.  ``from_laurent``
        maps a Laurent polynomial back."""
        spec = self.spec
        if spec.kind == "qpow":
            num, den = self.rep._terms()
            if len(den) == 1:
                [((low,), c)] = den
                return Laurent({e - low: _coefficient(Fraction(x, c))
                                for (e,), x in num}), None
            return (Laurent({e: _coefficient(x) for (e,), x in num}),
                    Laurent({e: _coefficient(x) for (e,), x in den}))
        if spec.tie is not None:
            x = self.rep
            return Laurent({k: _coefficient(Fraction(c, x.den))
                            for k, c in enumerate(x.v) if c}), None
        raise ValueError("no Laurent form on the field %s" % spec.to_string())

    @staticmethod
    def from_laurent(spec, x):
        """The value of the ``Laurent`` polynomial x on any field, where q
        is q or zeta."""
        return _substitute(spec, [((e, 0), c) for e, c in x.items()])

    def mod_p(self, field=None):
        """The image ``(value, p)`` of this value under the fixed ring map
        of its field to Z/p (``_modp_point``), or None when a denominator
        or a coefficient's denominator maps to zero.

        With ``field``, a generic value goes to the residue of its
        specialisation, ``specialize(self, field).mod_p()``, wherever both
        are defined: its terms are evaluated at the point of ``field``,
        where rho goes to the image of rho in that field.  No value of
        ``field`` is built; a stored value is read from its terms."""
        spec = self.spec
        if field is None:
            field = spec
        elif field != spec and spec.kind != "generic":
            raise ValueError("mod_p(field) expects a generic value")
        if spec.kind != "cyclo":
            sides = self.rep._terms()
        elif spec.tie is not None:
            rep = self.rep
            sides = [[((k,), c) for k, c in enumerate(rep.v)],
                     [((), rep.den)]]
        else:
            sides = [[((k, j), Fraction(c, x.den)) for j, x in enumerate(side)
                      for k, c in enumerate(x.v)]
                     for side in (self.rep.num, self.rep.den)]
        p, point = _modp_point(field)
        num, den = (_terms_mod(terms, point, p) for terms in sides)
        if num is None or not den:
            return None
        return num * pow(den, -1, p) % p, p

    def has_table_denominator(self):
        """Whether this generic value has the one denominator a table value
        may have, c*q^A*rho^B*(q^2-1)^K with c > 0, in its normal form."""
        return self.rep.r == (1,) and self.rep.i == self.rep.j


def _coefficient(c):
    """A Fraction as an int where it is integral."""
    return c.numerator if c.denominator == 1 else c


class Laurent(dict):
    """A Laurent polynomial in q with rational coefficients: a map from
    exponent to nonzero coefficient, an int where it is integral.

    No zero coefficient is stored, so the dict's own ``==`` is equality
    and its truthiness means "nonzero".  ``+ - *``, unary minus and the
    exact division ``/`` return new values, and calling the value at a
    rational t evaluates it exactly.  ``Scalar.to_laurent`` lifts ``qpow``
    and ``rho = zeta^a`` values into Q[q, q^-1] over a denominator, and
    ``Scalar.from_laurent`` lowers a Laurent polynomial onto any field; on
    ``cyclo:m`` lowering reduces the exponents mod m.
    """

    __slots__ = ()

    def __add__(self, other):
        out = Laurent(self)
        for e, c in other.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Laurent({e: -c for e, c in self.items()})

    def __truediv__(self, other):
        """The exact quotient by a nonzero ``other``, by long division from
        the top; ``IntegralityViolation`` when a remainder is left, that is
        when the quotient is no Laurent polynomial."""
        top, span = max(other), max(other) - min(other)
        rest, out = self, {}
        while rest and max(rest) - min(rest) >= span:
            e = max(rest)
            c = out[e - top] = _coefficient(Fraction(rest[e]) / other[top])
            rest = rest - other * Laurent({e - top: c})
        if rest:
            raise IntegralityViolation("%r does not divide %r" % (other, self))
        return Laurent(out)

    def __mul__(self, other):
        if len(self) < len(other):
            self, other = other, self
        if len(other) == 1:
            [(f, d)] = other.items()
            return Laurent({e + f: c * d for e, c in self.items()})
        out = {}
        for e, c in self.items():
            for f, d in other.items():
                out[e + f] = out.get(e + f, 0) + c * d
        return Laurent({e: c for e, c in out.items() if c})

    def __call__(self, t):
        """The exact value at a rational q = t != 0, as a Fraction.  With
        t = a/b it is a^low b^-high times the Horner sum of c_e a^(e-low)
        b^(high-e), an integer when the coefficients are, so one Fraction
        is built, at the end."""
        if not self:
            return Fraction(0)
        a, b = t.numerator, t.denominator
        low, high = min(self), max(self)
        total, bpow = 0, 1
        for e in range(high, low - 1, -1):
            total = total * a + self.get(e, 0) * bpow
            bpow *= b
        return Fraction(total * a ** max(low, 0) * b ** max(-high, 0),
                        a ** max(-low, 0) * b ** max(high, 0))

    def __repr__(self):
        return "Laurent(%s)" % dict.__repr__(self)


def _zeta_sum(m, buckets, common):
    """The sum of n * zeta_m^k / common over the items (k, n) of buckets,
    where 0 <= k < m and n is an int."""
    d, zpows = _phi(m)
    out = [0] * d
    for k, n in buckets.items():
        for i, z in enumerate(zpows[k]):
            if z:
                out[i] += n * z
    return _normal(m, out, common)


def _substitute(spec, num, den=None):
    """The value num / den in the field ``spec``: the one place where q
    and rho map into each field kind.

    num and den are lists of ((i, j), c) terms c * q^i * rho^j, c a
    Fraction or an int; den None means 1.  Each side's terms are summed by
    image exponent as integer numerators over one common denominator: (i, j)
    on ``generic``, i + a*j on ``qpow:a``, (i + b*j) mod m on
    ``cyclo:m,rho=zeta^b``, and the rho-row j, zeta-power i mod m on
    ``cyclo:m,rho=free``, where negative rho-exponents are shifted into the
    denominator.  Each side is built once and the quotient normalised once;
    with den None the cyclotomic kinds divide by nothing.

    Raises DenominatorVanishes if the denominator maps to zero.
    """
    kind, m, tie = spec
    if kind == "generic":
        key = lambda mono: mono
    elif kind == "qpow":
        key = lambda mono: mono[0] + tie * mono[1]
    elif tie is not None:
        key = lambda mono: (mono[0] + tie * mono[1]) % m
    else:
        key = lambda mono: (mono[1], mono[0] % m)

    def bucket(terms):
        common = math.lcm(*[c.denominator for _, c in terms])
        out = {}
        for mono, c in terms:
            k = key(mono)
            out[k] = out.get(k, 0) + c.numerator * (common // c.denominator)
        return {k: n for k, n in out.items() if n}, common

    nb, nc = bucket(num)
    db, dc = ({key((0, 0)): 1}, 1) if den is None else bucket(den)

    def vanishes():
        return DenominatorVanishes("denominator vanishes under %s" % spec.to_string())

    if not db:
        raise vanishes()
    if kind == "generic":
        return Scalar(spec, _qrho_quotient(nb, nc, db, dc))
    if kind == "qpow":
        if not nb:
            return Scalar(spec, _QZERO)
        # (N / nc) / (D / dc) with N and D dense from their lowest powers
        num, den = (_dense(b, scale) for b, scale in ((nb, dc), (db, nc)))
        return Scalar(spec, _quotient(min(nb) - min(db), num, den))
    if tie is not None:
        value = _zeta_sum(m, nb, nc)
        if den is not None:
            den_value = _zeta_sum(m, db, dc)
            if not den_value:
                raise vanishes()
            value = value / den_value
        return Scalar(spec, value)

    low = min(0, *(j for j, _ in nb), *(j for j, _ in db))

    def poly(buckets, common):
        rows = {}
        for (j, k), n in buckets.items():
            rows.setdefault(j - low, {})[k] = n
        return _ctrim([_zeta_sum(m, rows.get(j, {}), common)
                       for j in range(max(rows, default=-1) + 1)])

    num_poly, den_poly = poly(nb, nc), poly(db, dc)
    if not den_poly:
        raise vanishes()
    # over 1, the trimmed numerator is in normal form already
    return Scalar(spec, CycloFrac(m, num_poly, den_poly,
                                  normalized=den is None and low == 0))


def _dense(buckets, scale):
    """scale times the coefficients of {exponent: int}, as a list from
    the lowest exponent to the highest."""
    low = min(buckets)
    out = [0] * (max(buckets) - low + 1)
    for k, n in buckets.items():
        out[k - low] = n * scale
    return out


def zero(spec):
    return monomial(spec, 0)


def one(spec):
    return monomial(spec, 1)


def monomial(spec, c, qexp=0, rhoexp=0):
    """The scalar c * q^qexp * rho^rhoexp in the field ``spec``, c any
    rational: the image of one term under ``_substitute``."""
    return _substitute(spec, [((qexp, rhoexp), Fraction(c))])


def q_elem(spec):
    return monomial(spec, 1, 1, 0)


def rho_elem(spec):
    return monomial(spec, 1, 0, 1)


def quantum_integer(ell, spec):
    """[ell] = (q^ell - q^{-ell}) / (q - q^{-1}), as a Laurent polynomial."""
    ell = int(ell)
    if ell < 0:
        return -quantum_integer(-ell, spec)
    out = zero(spec)
    for k in range(ell):
        out = out + monomial(spec, 1, ell - 1 - 2 * k, 0)
    return out


def quantum_factorial(ell, spec):
    out = one(spec)
    for k in range(2, int(ell) + 1):
        out = out * quantum_integer(k, spec)
    return out


@functools.lru_cache(maxsize=None)
def delta(spec):
    """(rho - rho^{-1}) / (q - q^{-1})."""
    num = rho_elem(spec) - monomial(spec, 1, 0, -1)
    den = q_elem(spec) - monomial(spec, 1, -1, 0)
    return num / den


def quantum_characteristic(spec):
    """The multiplicative order of q^2, or INFINITY."""
    if spec.kind in ("generic", "qpow"):
        return INFINITY
    m = spec.m
    return m // math.gcd(m, 2)


def specialize(x, target):
    """Map a generic-mode scalar into the target field.

    The terms of both sides go through ``_substitute`` in one pass, and the
    quotient is normalised once.  Normal forms are canonical, so the result
    equals the sum of the term-by-term images divided in the target field.

    Raises DenominatorVanishes if the denominator evaluates to zero, and
    ValueError for a source that is not generic.
    """
    if x.spec.kind != "generic":
        raise ValueError("specialize expects a generic source scalar")
    if x.spec == target:
        return x
    return _substitute(target, *x.rep._terms())


def evaluate(x, t, rho_exp=0):
    """The value of a generic or qpow scalar at q = t, rho = t^rho_exp, as a
    Fraction; on qpow:a, rho is q^a already and rho_exp is not used.

    Raises DenominatorVanishes if the denominator is zero at that point.
    """
    if x.spec.kind == "cyclo":
        raise ValueError("evaluate expects a generic or qpow scalar")
    t = Fraction(t)

    num, den = (sum(c * t ** (mono[0] + rho_exp * sum(mono[1:]))
                    for mono, c in side)
                for side in x.rep._terms())
    if not den:
        raise DenominatorVanishes("denominator vanishes at q=%s, rho=q^%d" % (t, rho_exp))
    return num / den


@functools.lru_cache(maxsize=None)
def _modp_point(spec):
    """``(p, (image of q, image of rho))`` for the fixed ring map of the
    field ``spec`` to Z/p: p is the largest prime below 2^31 that is 1 mod
    m (2^31 - 1 off ``cyclo:m``), q -> 16807 and rho -> 48271 (primitive
    roots mod 2^31 - 1), except that on ``cyclo:m`` zeta goes to the first
    g^((p-1)/m), g = 2, 3, ..., of order m: a root of Phi_m mod p.  Where
    the field ties rho to q, rho = q^b with b = ``spec.tie``, rho goes to
    the image of q^b, so that a generic term q^i * rho^j maps as its image
    in the field does."""
    m = spec.m or 1
    p = 2 ** 31 - 1 - (2 ** 31 - 2) % m
    while not _is_prime(p):
        p -= m
    q = 16807
    if spec.kind == "cyclo":
        omegas = (pow(g, (p - 1) // m, p) for g in itertools.count(2))
        q = next(w for w in omegas
                 if all(pow(w, k, p) != 1 for k in range(1, m)))
    return p, (q, 48271 if spec.tie is None else pow(q, spec.tie, p))


def _is_prime(n):
    """Whether n is prime, by the Miller-Rabin test on the bases 2, 3, 5
    and 7, which has no strong pseudoprime below 3,215,031,751 (Pomerance,
    Selfridge and Wagstaff, *The pseudoprimes to 25 * 10^9*, Math. Comp. 35,
    1980); every candidate of ``_modp_point`` is below 2^31."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, k = n - 1, 0
    while not d % 2:
        d, k = d // 2, k + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _terms_mod(terms, point, p):
    """The value mod p at ``point`` of a sum of (exponents, coefficient)
    terms, each coefficient an int or a Fraction, or None if p divides the
    denominator of a coefficient."""
    total = 0
    for mono, c in terms:
        term = c.numerator
        for x, e in zip(point, mono):
            term = term * pow(x, e, p) % p
        if c.denominator != 1:
            if c.denominator % p == 0:
                return None
            term *= pow(c.denominator, -1, p)
        total += term
    return total % p


# ---------------------------------------------------------------------------
# canonical text serialization
# ---------------------------------------------------------------------------

def _format_rational_poly(terms, names):
    """terms: list of (exponent tuple, Fraction); integer coefficients expected."""
    terms = sorted(terms, key=lambda t: t[0], reverse=True)
    chunks = []
    for mono, c in terms:
        if c == 0:
            continue
        parts = []
        abs_c = abs(c)
        factors = [(names[i], e) for i, e in enumerate(mono) if e != 0]
        if abs_c != 1 or not factors:
            parts.append(str(abs_c))
        for name, e in factors:
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        body = "*".join(parts)
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append((" + " if c > 0 else " - ") + body)
    return "".join(chunks) if chunks else "0"


def _integerize(num_terms, den_terms):
    """Scale two Fraction-coefficient term lists to coprime integer contents,
    with the leading denominator coefficient positive."""
    coeffs = [c for _, c in num_terms + den_terms]
    L = math.lcm(*(c.denominator for c in coeffs))
    scale = Fraction(L, math.gcd(*(int(c * L) for c in coeffs)) or 1)
    if den_terms and max(den_terms, key=lambda t: t[0])[1] < 0:
        scale = -scale
    return ([(m, c * scale) for m, c in num_terms],
            [(m, c * scale) for m, c in den_terms])


def to_text(x):
    """Canonical text form: a polynomial, or a quotient of two in
    parentheses, in q and rho (z for zeta on ``cyclo`` fields), with ``^``
    for powers; on free rho the coefficient of each power of rho is a
    parenthesised polynomial in z."""
    spec = x.spec
    if spec.kind != "cyclo" or spec.tie is not None:
        if spec.kind == "cyclo":
            names = ("z",)
            num_terms = [((i,), c) for i, c in enumerate(x.rep.c) if c != 0]
            den_terms = [((0,), Fraction(1))]
        else:
            names = ("q", "rho") if spec.kind == "generic" else ("q",)
            num_terms, den_terms = x.rep._terms()
        num_s, den_s = (_format_rational_poly(terms, names)
                        for terms in _integerize(num_terms, den_terms))
        return num_s if den_s == "1" else "(%s)/(%s)" % (num_s, den_s)
    # cyclotomic with free rho: polynomials in rho with cyclotomic coefficients
    rep = x.rep
    all_fracs = [f for cn in rep.num + rep.den for f in cn.c]
    L = math.lcm(*(f.denominator for f in all_fracs))
    g = math.gcd(*(int(f * L) for f in all_fracs)) or 1

    def fmt_side(coeffs):
        chunks = []
        for i in reversed(range(len(coeffs))):
            cn = coeffs[i]
            if not cn:
                continue
            zterms = [((j,), c * L / g) for j, c in enumerate(cn.c) if c != 0]
            zs = _format_rational_poly(zterms, ("z",))
            if i == 0:
                chunks.append("(%s)" % zs)
            elif i == 1:
                chunks.append("(%s)*rho" % zs)
            else:
                chunks.append("(%s)*rho^%d" % (zs, i))
        return " + ".join(chunks) if chunks else "(0)"

    num_s, den_s = fmt_side(rep.num), fmt_side(rep.den)
    return num_s if den_s == "(1)" else "(%s)/(%s)" % (num_s, den_s)


def generic_terms(x):
    """Numerator and denominator of a generic scalar as sorted term lists.

    Each term is (qexp, rhoexp, coefficient); the two lists are a faithful,
    order-normalized encoding of the scalar, its canonical terms (module
    docstring), so every coefficient is an int.
    """
    if x.spec.kind != "generic":
        raise ValueError("generic_terms expects a generic-mode scalar")
    return tuple([(qe, re, c) for (qe, re), c in side]
                 for side in x.rep._terms())


def generic_from_terms(num_terms, den_terms):
    """Rebuild a generic scalar from ``generic_terms`` output, or from any
    equivalent term lists: (qexp, rhoexp, coefficient) triples, with
    negative exponents and repeated exponent pairs allowed; repeated terms
    add up.  Canonical terms (module docstring) with a table denominator
    are read into the value without normalising and kept with it; any
    others are normalised.  Raises ``RhoDependentDivisor`` for a
    denominator with more than one power of rho, and DenominatorVanishes
    for one whose terms add up to zero."""
    num, den = (tuple(((int(qe), int(re)), c) for qe, re, c in side)
                for side in (num_terms, den_terms))
    value = _stored(num, den)
    if value is None:
        return _substitute(_GENERIC, num, den)
    return Scalar(_GENERIC, value)


def _table_denominator(den):
    """Whether the sorted ((qexp, rhoexp), coefficient) terms ``den`` are
    c*q^A*rho^B*(q^2-1)^K with an int c > 0 and A, B >= 0, checked on the
    integers."""
    (low, rho), _ = den[0]
    k, lead = len(den) - 1, den[-1][1]
    if type(lead) is not int or lead <= 0 or low < 0 or rho < 0:
        return False
    return all(qe == low + 2 * i and re == rho and type(c) is int
               and c == (-1) ** (k - i) * math.comb(k, i) * lead
               for i, ((qe, re), c) in enumerate(den))


def _stored(num, den):
    """The ``QRhoFrac`` of the ((qexp, rhoexp), coefficient) terms num /
    den, which keeps them as its terms, if they are canonical terms with a
    table denominator c*q^A*rho^B*(q^2-1)^K; else None.  Checked on the
    integers: the numerator's terms are nonzero ints, sorted without
    repeats, with nonnegative exponents, and the rows read from them are
    in the normal form of ``QRhoFrac``."""
    if not num or not den or not _table_denominator(den):
        return None
    # sorted terms above (0, -1) have q-exponents >= 0
    previous, low_rho, high_rho = (0, -1), num[0][0][1], 0
    for mono, c in num:
        if type(c) is not int or not c or mono <= previous or mono[1] < 0:
            return None
        previous = mono
        low_rho, high_rho = min(low_rho, mono[1]), max(high_rho, mono[1])
    low_q = num[0][0][0]
    rows = [[0] * (previous[0] - low_q + 1)
            for _ in range(high_rho - low_rho + 1)]
    for (qe, re), c in num:
        rows[re - low_rho][qe - low_q] = c
    for row in rows:
        while row and not row[-1]:
            row.pop()
    (A, B), _ = den[0]
    k, lead = len(den) - 1, den[-1][1]
    if (A and low_q or B and low_rho
            or math.gcd(lead, *itertools.chain.from_iterable(rows)) != 1
            or k and not (any(map(sum, rows))
                          and any(map(_at_minus_one, rows)))):
        return None
    return _qrho(low_q - A, low_rho - B, tuple(map(tuple, rows)), lead, k, k,
                 (1,), (num, den))
