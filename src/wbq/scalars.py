"""Exact coefficient fields parameterized by (q, rho).

Three families of fields are supported:

* ``generic``      -- rational functions in two variables q, rho over Q.
* ``qpow:a``       -- rational functions in q over Q, with rho identified with q^a.
* ``cyclo:m``      -- the cyclotomic field Q(zeta_m) with q = zeta_m, and rho either
                      a fixed power zeta_m^a or a fresh transcendental.

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

A generic value is a gcd-normalised sympy fraction in Q(q, rho), with one
exception: ``generic_from_terms`` keeps terms that are already in canonical
form as they are, and builds their sympy form on the first read of ``rep``,
that is when generic-field arithmetic, ``==`` with a value that is not
stored, or ``hash`` first touches the value.  ``specialize``,
``generic_terms``, ``mod_p``, ``evaluate``, ``to_text`` and ``==`` between
two stored values read the terms and build nothing.  Canonical terms are the
normal form of a nonzero value, as ``generic_terms`` returns it and a
stored table holds it: integer coefficients of content 1, nonnegative
exponents, each side sorted without repeats; a denominator
c*q^A*rho^B*(q^2-1)^K with c > 0; and a numerator coprime to it, that is
with a term free of q if A > 0, a term free of rho if B > 0, and N(1, rho)
and N(-1, rho) both nonzero if K > 0.  Over Q[q, rho] a reduced fraction is
unique up to a rational unit, which content 1 and c > 0 fix, so canonical
terms are exactly what sympy's normalisation returns.

A ``qpow`` value is a ``LaurentFrac``, no sympy object: the reduced
fraction q^e * n(q) / (c * (q-1)^i * (q+1)^j * r(q)) with integer
polynomials n and r.  A table value N(q, rho) / (c*q^A*rho^B*(q^2-1)^K) maps
under rho = q^a to such a fraction with r = 1, and so do sums and products
of such images, so ``specialize`` to ``qpow:a`` is the substitution
rho -> q^a into the stored integer terms, and ``+ - * /`` cancel the
factors q, q - 1 and q + 1 by exponent shifts and synthetic division at
+-1, with no polynomial gcd.  Only a division by a value whose numerator
has another factor makes r != 1 (on the query path, a ``linalg.rref``
pivot); while r != 1, each operation takes one gcd of integer coefficient
lists (``_pgcd``: the heuristic gcd, checked by exact division, with the
primitive remainder sequence as fallback).  The form is unique, so ``==``
and ``hash`` compare it, and ``to_text`` prints it with its powers of q
moved to the side where they are not negative.  Generic arithmetic is the
only use of sympy: ``_phi`` divides x^m - 1 in the integers and
``_modp_point`` tests primes by Miller-Rabin.

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

from fractions import Fraction
import functools
import itertools
import math
import operator

from sympy import QQ as _QQ
from sympy.polys.fields import field as _frac_field

from .errors import DenominatorVanishes, IntegralityViolation

INFINITY = float("inf")

_GFIELD, _GQ, _GRHO = _frac_field("q,rho", _QQ)


def _qq(c):
    c = Fraction(c)
    return _QQ(c.numerator, c.denominator)


def _terms(poly):
    """The (exponent tuple, Fraction) pairs of a sympy polynomial."""
    return [(mono, Fraction(int(c.numerator), int(c.denominator)))
            for mono, c in poly.items()]


def _from_terms(num, den):
    """The generic scalar num / den, where num and den map exponent pairs
    to coefficients.  Exponents may be negative: both sides are shifted by
    the same monomial before the quotient is normalised."""
    if not den:
        raise ZeroDivisionError("empty denominator")
    low = tuple(min(col) for col in zip(*num, *den))

    def poly(terms):
        if any(low):
            terms = {tuple(map(operator.sub, mono, low)): c for mono, c in terms.items()}
        return _GFIELD.ring.from_dict({mono: _qq(c) for mono, c in terms.items()})

    return Scalar(_GENERIC, _GFIELD.new(poly(num), poly(den)))


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
# values of Q(q): reduced fractions of integer Laurent polynomials
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


def _quotient(e, num, den):
    """The ``LaurentFrac`` q^e * num / den of two int lists, den nonzero:
    den splits as s * q^k * (q - 1)^i * (q + 1)^j * r with r primitive and
    of positive leading coefficient, and r(0), r(1), r(-1) nonzero."""
    k = 0
    while not den[k]:
        k += 1
    den, i, j = den[k:], 0, 0
    while not sum(den):
        den = _div_q_minus_one(den)
        i += 1
    while not _at_minus_one(den):
        den = _div_q_plus_one(den)
        j += 1
    s = math.gcd(*den)
    if den[-1] < 0:
        s, num = -s, [-x for x in num]
    return _laurent_normal(e - k, num, abs(s), i, j,
                           tuple(x // s for x in den))


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
            # over the least common denominator
            g = math.gcd(c, other.c)
            c = c // g * other.c
            i, j = max(i, other.i), max(j, other.j)
            if r == other.r:
                fa = fb = (1,)
            elif len(other.r) == 1:
                fa, fb = (1,), r
            elif len(r) == 1:
                fa, fb, r = other.r, (1,), other.r
            else:
                g2 = _pgcd(r, other.r)
                fa, fb = _pdivexact(other.r, g2), _pdivexact(r, g2)
                r = tuple(_pmul(r, fa))
            a = _pmul(_pmul(a, _q_minus_plus(i - self.i, j - self.j)),
                      [other.c // g * y for y in fa])
            b = _pmul(_pmul(b, _q_minus_plus(i - other.i, j - other.j)),
                      [self.c // g * y for y in fb])
        if len(a) < len(b):
            a, b = b, a
        n = list(a)
        for k, y in enumerate(b):
            n[k] += y
        return _laurent_normal(e, n, c, i, j, r)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not self.n or not other.n:
            return _QZERO
        if len(other.r) == 1:
            r = self.r
        elif len(self.r) == 1:
            r = other.r
        else:
            r = tuple(_pmul(self.r, other.r))
        return _laurent_normal(self.e + other.e, _pmul(self.n, other.n),
                               self.c * other.c, self.i + other.i,
                               self.j + other.j, r)

    def __truediv__(self, other):
        if not other.n:
            raise ZeroDivisionError("division by zero q-fraction")
        return self * _quotient(-other.e, other._denominator(), list(other.n))

    def _denominator(self):
        """c * (q - 1)^i * (q + 1)^j * r, as an int list."""
        return _pmul(_pmul(_q_minus_plus(self.i, self.j), self.r), (self.c,))

    def _terms(self):
        """The numerator and the denominator as lists of ((exponent,), int)
        terms, the power of q moved to the side where it is not negative:
        the reduced fraction with integer coefficients of content 1 and a
        positive leading denominator coefficient."""
        low = max(self.e, 0)
        return ([((low + k,), v) for k, v in enumerate(self.n) if v],
                [((low - self.e + k,), v)
                 for k, v in enumerate(self._denominator()) if v])

    def __repr__(self):
        return "LaurentFrac(e=%d, n=%s, den=%s)" % (self.e, list(self.n),
                                                   self._denominator())


_QZERO = _laurent_frac(0, (), 1, 0, 0, (1,))


# ---------------------------------------------------------------------------
# field specifications
# ---------------------------------------------------------------------------

class FieldSpec:
    """Description of a coefficient field: generic, rho=q^a, or cyclotomic."""

    __slots__ = ("kind", "a", "m", "rho_kind", "rho_a")

    def __init__(self, kind, a=None, m=None, rho_kind=None, rho_a=None):
        self.kind = kind
        self.a = a
        self.m = m
        self.rho_kind = rho_kind
        self.rho_a = rho_a

    @staticmethod
    def generic():
        return FieldSpec("generic")

    @staticmethod
    def qpower(a):
        return FieldSpec("qpow", a=int(a))

    @staticmethod
    def cyclotomic(m, rho="free"):
        m = int(m)
        if m < 3:
            raise ValueError("cyclotomic index m must be at least 3 (q^2 = 1 is excluded)")
        if rho == "free":
            return FieldSpec("cyclo", m=m, rho_kind="free")
        return FieldSpec("cyclo", m=m, rho_kind="power", rho_a=int(rho) % m)

    @staticmethod
    def from_string(text):
        """Parse 'generic', 'qpow:<a>', or 'cyclo:<m>[,rho=zeta^<a>|rho=free]'."""
        text = text.strip()
        if text == "generic":
            return FieldSpec.generic()
        if text.startswith("qpow:"):
            return FieldSpec.qpower(int(text[5:]))
        if text.startswith("cyclo:"):
            body = text[6:]
            parts = body.split(",")
            m = int(parts[0])
            rho = "free"
            for extra in parts[1:]:
                extra = extra.strip()
                if extra == "rho=free":
                    rho = "free"
                elif extra.startswith("rho=zeta^"):
                    rho = int(extra[len("rho=zeta^"):])
                else:
                    raise ValueError("unrecognized field option: %r" % extra)
            return FieldSpec.cyclotomic(m, rho)
        raise ValueError("unrecognized field: %r" % text)

    def to_string(self):
        if self.kind == "generic":
            return "generic"
        if self.kind == "qpow":
            return "qpow:%d" % self.a
        if self.rho_kind == "free":
            return "cyclo:%d,rho=free" % self.m
        return "cyclo:%d,rho=zeta^%d" % (self.m, self.rho_a)

    def key(self):
        return (self.kind, self.a, self.m, self.rho_kind, self.rho_a)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

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
        return hash((self.spec.key(), self.rep))

    def __repr__(self):
        return to_text(self)

    def _fraction_terms(self):
        """The numerator and denominator of a generic or qpow value as
        sequences of (exponent tuple, coefficient) terms, with no negative
        exponent."""
        if self.spec.kind == "qpow":
            return self.rep._terms()
        return _terms(self.rep.numer), _terms(self.rep.denom)

    def to_laurent(self):
        """The value as ``(numerator, denominator)``, two ``Laurent``
        polynomials in q, on a ``qpow`` or ``rho = zeta^a`` field.  A
        monomial denominator is folded into the numerator and returned as
        None; only a ``qpow`` value can have any other.  ``from_laurent``
        maps a Laurent polynomial back."""
        spec = self.spec
        if spec.kind == "qpow":
            num, den = self._fraction_terms()
            if len(den) == 1:
                [((low,), c)] = den
                return Laurent({e - low: _coefficient(Fraction(x, c))
                                for (e,), x in num}), None
            return (Laurent({e: _coefficient(x) for (e,), x in num}),
                    Laurent({e: _coefficient(x) for (e,), x in den}))
        if spec.rho_kind == "power":
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
            sides = self._fraction_terms()
        elif spec.rho_kind == "power":
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
        return _table_denominator(tuple(
            ((qe, re), c) for qe, re, c in generic_terms(self)[1]))


def _coefficient(c):
    """A Fraction as an int where it is integral."""
    return c.numerator if c.denominator == 1 else c


class _Stored(Scalar):
    """A generic value kept as canonical terms (see the module docstring),
    two tuples of ((qexp, rhoexp), int) terms.  The ``rep`` slot stays
    unset until its first read, which builds the sympy form from the terms
    without a gcd; every other reader takes the terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.spec = _GENERIC
        self.num = num
        self.den = den

    def __getattr__(self, name):
        # reached only while the rep slot is unset
        if name != "rep":
            raise AttributeError(name)
        self.rep = _decode(self.num, self.den)
        return self.rep

    def __bool__(self):
        return True  # a canonical numerator is not empty

    def __eq__(self, other):
        # canonical terms are unique, so two stored values compare terms
        if type(other) is _Stored:
            return self.num == other.num and self.den == other.den
        return Scalar.__eq__(self, other)

    __hash__ = Scalar.__hash__

    def _fraction_terms(self):
        return self.num, self.den

    def has_table_denominator(self):
        # checked with the rest of the canonical form when it was made
        return True


def _decode(num, den):
    """The sympy form of canonical terms: already reduced, so no gcd."""
    ring = _GFIELD.ring
    return _GFIELD.raw_new(ring.from_dict(dict(num)), ring.from_dict(dict(den)))


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
    kind, m = spec.kind, spec.m
    if kind == "generic":
        key = lambda mono: mono
    elif kind == "qpow":
        a = spec.a
        key = lambda mono: mono[0] + a * mono[1]
    elif spec.rho_kind == "power":
        b = spec.rho_a
        key = lambda mono: (mono[0] + b * mono[1]) % m
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
        return _from_terms({k: Fraction(n, nc) for k, n in nb.items()},
                           {k: Fraction(n, dc) for k, n in db.items()})
    if kind == "qpow":
        if not nb:
            return Scalar(spec, _QZERO)
        # (N / nc) / (D / dc) with N and D dense from their lowest powers
        num, den = (_dense(b, scale) for b, scale in ((nb, dc), (db, nc)))
        return Scalar(spec, _quotient(min(nb) - min(db), num, den))
    if spec.rho_kind == "power":
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
    return _substitute(target, *x._fraction_terms())


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
                for side in x._fraction_terms())
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
    the field ties rho to q or zeta, rho goes to the image of q^a on
    ``qpow:a`` and of zeta^b on ``rho = zeta^b``, so that a generic term
    q^i * rho^j maps as its image in the field does."""
    m = spec.m or 1
    p = 2 ** 31 - 1 - (2 ** 31 - 2) % m
    while not _is_prime(p):
        p -= m
    q = 16807
    if spec.kind == "cyclo":
        omegas = (pow(g, (p - 1) // m, p) for g in itertools.count(2))
        q = next(w for w in omegas
                 if all(pow(w, k, p) != 1 for k in range(1, m)))
    tie = spec.a if spec.kind == "qpow" else spec.rho_a
    return p, (q, 48271 if tie is None else pow(q, tie, p))


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
    if spec.rho_kind != "free":
        if spec.kind == "cyclo":
            names = ("z",)
            num_terms = [((i,), c) for i, c in enumerate(x.rep.c) if c != 0]
            den_terms = [((0,), Fraction(1))]
        else:
            names = ("q", "rho") if spec.kind == "generic" else ("q",)
            num_terms, den_terms = x._fraction_terms()
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
    order-normalized encoding of the scalar, in the canonical form of the
    module docstring, so every coefficient is an int.
    """
    if x.spec.kind != "generic":
        raise ValueError("generic_terms expects a generic-mode scalar")
    return tuple(sorted((qe, re, _coefficient(c)) for (qe, re), c in side)
                 for side in x._fraction_terms())


def generic_from_terms(num_terms, den_terms):
    """Rebuild a generic scalar from ``generic_terms`` output, or from any
    equivalent term lists: (qexp, rhoexp, coefficient) triples, with
    negative exponents and repeated exponent pairs allowed; repeated terms
    add up.  Canonical terms (module docstring) are kept as they are, and
    their sympy form is built on its first read; any others are normalised
    now."""
    num, den = (tuple(((int(qe), int(re)), c) for qe, re, c in side)
                for side in (num_terms, den_terms))
    if _canonical(num, den):
        return _Stored(num, den)
    return _from_terms(_summed(num), _summed(den))


def _summed(terms):
    """((qexp, rhoexp), coefficient) terms as a dict with one nonzero
    coefficient per exponent pair, the sum of that pair's terms."""
    out = {}
    for mono, c in terms:
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


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


def _canonical(num, den):
    """Whether the ((qexp, rhoexp), coefficient) terms num / den are in the
    canonical form of the module docstring, checked on the integers."""
    if not num or not den or not _table_denominator(den):
        return False
    (low, rho), _ = den[0]
    k, lead = len(den) - 1, den[-1][1]
    # sorted terms above (0, -1) have q-exponents >= 0
    content, previous = lead, (0, -1)
    at_one, at_minus_one = {}, {}  # N(1, rho) and N(-1, rho) by rho-power
    for mono, c in num:
        if type(c) is not int or not c or mono <= previous or mono[1] < 0:
            return False
        previous = mono
        content = math.gcd(content, c)
        at_one[mono[1]] = at_one.get(mono[1], 0) + c
        at_minus_one[mono[1]] = (at_minus_one.get(mono[1], 0)
                                 + (-c if mono[0] % 2 else c))
    return (content == 1
            and (low == 0 or num[0][0][0] == 0)
            and (rho == 0 or any(re == 0 for (_, re), _ in num))
            and (k == 0 or any(at_one.values()) and any(at_minus_one.values())))
