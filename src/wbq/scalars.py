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
functions below: ``specialize``, ``evaluate`` (the rational value at a
point), ``flip``, ``to_text``/``parse_scalar``, ``generic_terms`` /
``generic_from_terms`` (an exponent-and-coefficient encoding of generic
values), and ``Scalar.to_laurent`` / ``Scalar.from_laurent``, the lift of
a ``qpow`` or ``rho = zeta^a`` value to a ``Laurent`` polynomial in q over
a denominator and the lowering back, on which the tensor action runs.
Changing the representation of a field therefore changes this module
only.

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
import math
import operator

from sympy import QQ as _QQ
from sympy import Symbol as _Symbol
from sympy import cyclotomic_poly as _cyclotomic_poly
from sympy.polys.fields import field as _frac_field

from .errors import DenominatorVanishes, IntegralityViolation

INFINITY = float("inf")

_GFIELD, _GQ, _GRHO = _frac_field("q,rho", _QQ)
_QFIELD, _QGEN = _frac_field("q", _QQ)


def _qq(c):
    c = Fraction(c)
    return _QQ(c.numerator, c.denominator)


def _terms(poly):
    """The (exponent tuple, Fraction) pairs of a sympy polynomial."""
    return [(mono, Fraction(int(c.numerator), int(c.denominator)))
            for mono, c in poly.items()]


def _from_terms(spec, num, den):
    """The generic or qpow scalar num / den, where num and den map exponent
    tuples to coefficients.  Exponents may be negative: both sides are
    shifted by the same monomial before the quotient is normalised."""
    if not den:
        raise ZeroDivisionError("empty denominator")
    field = _GFIELD if spec.kind == "generic" else _QFIELD
    low = tuple(min(col) for col in zip(*num, *den))

    def poly(terms):
        if any(low):
            terms = {tuple(map(operator.sub, mono, low)): c for mono, c in terms.items()}
        return field.ring.from_dict({mono: _qq(c) for mono, c in terms.items()})

    return Scalar(spec, field.new(poly(num), poly(den)))


_phi_cache = {}


def _phi(m):
    """The degree d of the m-th cyclotomic polynomial and the powers of zeta.

    Returns (d, zpows): for k = 0..m-1, zpows[k] is the integer coefficient
    vector (length d) of x^k reduced modulo Phi_m.  Since Phi_m divides
    x^m - 1, x^k reduces to zpows[k % m] for every k >= 0.
    """
    if m not in _phi_cache:
        x = _Symbol("x")
        coeffs = [int(c) for c in reversed(_cyclotomic_poly(m, x).as_poly(x).all_coeffs())]
        d = len(coeffs) - 1
        cur = [1] + [0] * (d - 1)
        zpows = []
        for _ in range(m):
            zpows.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [c - top * p for c, p in zip(cur, coeffs)]
        _phi_cache[m] = (d, zpows)
    return _phi_cache[m]


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

    @staticmethod
    def zeta_pow(m, k):
        return _cyclo(m, _phi(m)[1][k % m], 1)

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

    def scale(self, fr):
        fr = Fraction(fr)
        return _normal(self.m, [x * fr.numerator for x in self.v],
                       self.den * fr.denominator)

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

    @staticmethod
    def const(m, value):
        return CycloFrac(m, [CycloNum.const(m, value)], [CycloNum.const(m, 1)])

    @staticmethod
    def from_cyclo(m, x):
        return CycloFrac(m, [x], [CycloNum.const(m, 1)])

    @staticmethod
    def rho_power(m, k):
        one = CycloNum.const(m, 1)
        zero = CycloNum.const(m, 0)
        if k >= 0:
            return CycloFrac(m, [zero] * k + [one], [one])
        return CycloFrac(m, [one], [zero] * (-k) + [one])

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

    def flip(self):
        """Apply zeta -> zeta^{-1}, rho -> rho^{-1}: both sides are
        conjugated and reversed to their common rho-degree."""
        zero = CycloNum.const(self.m, 0)
        deg = max(len(self.num), len(self.den))

        def side(c):
            return [zero] * (deg - len(c)) + [x.galois(-1) for x in reversed(c)]

        return CycloFrac(self.m, side(self.num), side(self.den))

    def __repr__(self):
        return "CycloFrac(m=%d, num=%s, den=%s)" % (self.m, list(self.num), list(self.den))


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
        return hash((self.spec.key(), repr(self.rep)))

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
            num = _terms(self.rep.numer)
            den = _terms(self.rep.denom)
            if len(den) == 1:
                [((low,), c)] = den
                return Laurent({e - low: _coefficient(x / c)
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
        if spec.kind != "cyclo":
            rho = (0,) if spec.kind == "generic" else ()
            return _from_terms(spec, {(e,) + rho: c for e, c in x.items()},
                               {(0,) + rho: 1})
        value = _zeta_sum(spec.m, x)
        if spec.rho_kind == "free":
            value = CycloFrac.from_cyclo(spec.m, value)
        return Scalar(spec, value)


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


def zero(spec):
    return from_fraction(0, spec)


def one(spec):
    return from_fraction(1, spec)


def from_fraction(c, spec):
    c = Fraction(c)
    if spec.kind == "generic":
        return Scalar(spec, _GFIELD.ground_new(_qq(c)))
    if spec.kind == "qpow":
        return Scalar(spec, _QFIELD.ground_new(_qq(c)))
    if spec.rho_kind == "power":
        return Scalar(spec, CycloNum.const(spec.m, c))
    return Scalar(spec, CycloFrac.const(spec.m, c))


def monomial(spec, c, qexp=0, rhoexp=0):
    """The scalar c * q^qexp * rho^rhoexp in the given field."""
    c = Fraction(c)
    if c == 0:
        return zero(spec)
    if spec.kind == "generic":
        rep = _GFIELD.ground_new(_qq(c)) * _GQ ** qexp * _GRHO ** rhoexp
        return Scalar(spec, rep)
    if spec.kind == "qpow":
        rep = _QFIELD.ground_new(_qq(c)) * _QGEN ** (qexp + spec.a * rhoexp)
        return Scalar(spec, rep)
    if spec.rho_kind == "power":
        k = (qexp + spec.rho_a * rhoexp) % spec.m
        return Scalar(spec, CycloNum.zeta_pow(spec.m, k).scale(c))
    zpart = CycloNum.zeta_pow(spec.m, qexp % spec.m).scale(c)
    return Scalar(spec, CycloFrac.from_cyclo(spec.m, zpart) * CycloFrac.rho_power(spec.m, rhoexp))


def q_elem(spec):
    return monomial(spec, 1, 1, 0)


def rho_elem(spec):
    return monomial(spec, 1, 0, 1)


def flip(x):
    """The field automorphism q -> q^{-1}, rho -> rho^{-1}."""
    spec = x.spec
    if spec.kind in ("generic", "qpow"):
        def side(poly):
            return {tuple(-e for e in mono): c for mono, c in _terms(poly)}

        return _from_terms(spec, side(x.rep.numer), side(x.rep.denom))
    if spec.rho_kind == "power":
        return Scalar(spec, x.rep.galois(-1))
    return Scalar(spec, x.rep.flip())


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


def _bucket(poly, key):
    """Sum the coefficients of a sympy polynomial by key(monomial) as
    integer numerators over the lcm of all its denominators; returns the
    nonzero sums as Fractions, each normalised once."""
    terms = _terms(poly)
    common = math.lcm(*(c.denominator for _, c in terms))
    out = {}
    for mono, c in terms:
        k = key(mono)
        out[k] = out.get(k, 0) + c.numerator * (common // c.denominator)
    return {k: Fraction(c, common) for k, c in out.items() if c}


def _zeta_sum(m, buckets):
    """The sum of c * zeta_m^k over the items (k, c) of buckets; k is any
    integer, c an int or a Fraction."""
    d, zpows = _phi(m)
    den = math.lcm(*(c.denominator for c in buckets.values()))
    out = [0] * d
    for k, c in buckets.items():
        n = c.numerator * (den // c.denominator)
        for i, z in enumerate(zpows[k % m]):
            if z:
                out[i] += n * z
    return _normal(m, out, den)


def specialize(x, target):
    """Map a generic-mode (or qpow-mode) scalar into the target field.

    Each side of the source fraction is specialised in one pass over its
    Laurent terms: a term c*q^i*rho^j goes to the bucket of its image
    exponent (i + a*j for qpow:a; (i + a*j) mod m for rho = zeta^a; the
    rho-degree j and then i mod m for free rho), coefficients are summed as
    integers over one common denominator, and each side is built once from
    its buckets.  The quotient is normalised once.  Normal forms are canonical, so the result equals the
    sum of the term-by-term images divided in the target field.

    Raises DenominatorVanishes if the denominator evaluates to zero.
    """
    spec = x.spec
    if spec == target:
        return x
    if spec.kind == "qpow":
        if target.kind == "qpow":
            raise ValueError("cannot respecialize between distinct qpow fields")
        if target.kind == "cyclo":
            if target.rho_kind != "power" or (spec.a - target.rho_a) % target.m != 0:
                raise ValueError("specialization would not respect rho = q^%d" % spec.a)
        elif target.kind == "generic":
            raise ValueError("cannot lift a qpow scalar to the generic field")
        # rho is q^a already: the exponent of q is the whole image exponent
        rho_of = lambda mono: 0
    elif spec.kind == "generic":
        rho_of = lambda mono: mono[1]
    else:
        raise ValueError("specialize expects a generic or qpow source scalar")

    m = target.m
    if target.kind == "qpow":
        a = target.a
        key = lambda mono: (mono[0] + a * mono[1],)
    elif target.rho_kind == "power":
        a = target.rho_a
        key = lambda mono: (mono[0] + a * rho_of(mono)) % m
    else:
        key = lambda mono: (mono[1], mono[0] % m)
    num = _bucket(x.rep.numer, key)
    den = _bucket(x.rep.denom, key)

    def vanishes():
        return DenominatorVanishes("denominator vanishes under %s" % target.to_string())

    if target.kind == "qpow":
        if not den:
            raise vanishes()
        return _from_terms(target, num, den)
    if target.rho_kind == "power":
        den_val = _zeta_sum(m, den)
        if not den_val:
            raise vanishes()
        rep = _zeta_sum(m, num) / den_val
    else:
        sides = []
        for buckets in (num, den):
            rows = {}
            for (j, k), c in buckets.items():
                rows.setdefault(j, {})[k] = c
            sides.append(_ctrim([_zeta_sum(m, rows.get(j, {}))
                                 for j in range(max(rows, default=-1) + 1)]))
        if not sides[1]:
            raise vanishes()
        rep = CycloFrac(m, sides[0], sides[1])
    return Scalar(target, rep)


def evaluate(x, t, rho_exp=0):
    """The value of a generic or qpow scalar at q = t, rho = t^rho_exp, as a
    Fraction; on qpow:a, rho is q^a already and rho_exp is not used.

    Raises DenominatorVanishes if the denominator is zero at that point.
    """
    if x.spec.kind == "cyclo":
        raise ValueError("evaluate expects a generic or qpow scalar")
    t = Fraction(t)

    def side(poly):
        return sum(c * t ** (mono[0] + rho_exp * sum(mono[1:]))
                   for mono, c in _terms(poly))

    den = side(x.rep.denom)
    if not den:
        raise DenominatorVanishes("denominator vanishes at q=%s, rho=q^%d" % (t, rho_exp))
    return side(x.rep.numer) / den


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
    denoms = [c.denominator for _, c in num_terms] + [c.denominator for _, c in den_terms]
    L = 1
    for d in denoms:
        L = L * d // math.gcd(L, d)
    num_terms = [(m, c * L) for m, c in num_terms]
    den_terms = [(m, c * L) for m, c in den_terms]
    g = 0
    for _, c in num_terms:
        g = math.gcd(g, int(c))
    for _, c in den_terms:
        g = math.gcd(g, int(c))
    if g > 1:
        num_terms = [(m, c / g) for m, c in num_terms]
        den_terms = [(m, c / g) for m, c in den_terms]
    lead = max(den_terms, key=lambda t: t[0])[1] if den_terms else Fraction(1)
    if lead < 0:
        num_terms = [(m, -c) for m, c in num_terms]
        den_terms = [(m, -c) for m, c in den_terms]
    return num_terms, den_terms


def to_text(x):
    """Canonical text form; parse_scalar inverts it on the same field."""
    spec = x.spec
    if spec.kind in ("generic", "qpow"):
        names = ("q", "rho") if spec.kind == "generic" else ("q",)
        num_terms = _terms(x.rep.numer)
        den_terms = _terms(x.rep.denom)
        num_terms, den_terms = _integerize(num_terms, den_terms)
        num_s = _format_rational_poly(num_terms, names)
        den_s = _format_rational_poly(den_terms, names)
        if den_s == "1":
            return num_s
        return "(%s)/(%s)" % (num_s, den_s)
    if spec.rho_kind == "power":
        num_terms = [((i,), c) for i, c in enumerate(x.rep.c) if c != 0]
        den_terms = [((0,), Fraction(1))]
        num_terms, den_terms = _integerize(num_terms, den_terms)
        num_s = _format_rational_poly(num_terms, ("z",))
        den_s = _format_rational_poly(den_terms, ("z",))
        if den_s == "1":
            return num_s
        return "(%s)/(%s)" % (num_s, den_s)
    # cyclotomic with free rho: polynomials in rho with cyclotomic coefficients
    rep = x.rep
    all_fracs = []
    for cn in list(rep.num) + list(rep.den):
        all_fracs.extend(cn.c)
    L = 1
    for f in all_fracs:
        L = L * f.denominator // math.gcd(L, f.denominator)
    g = 0
    for f in all_fracs:
        g = math.gcd(g, int(f * L))
    if g == 0:
        g = 1

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

    num_s = fmt_side(list(rep.num))
    den_s = fmt_side(list(rep.den))
    if den_s == "(1)":
        return num_s
    return "(%s)/(%s)" % (num_s, den_s)


class _Tok:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        got = self.peek()
        if got != ch:
            raise ValueError("expected %r at %d in %r" % (ch, self.pos, self.text))
        self.pos += 1

    def integer(self):
        self.peek()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ValueError("expected integer at %d in %r" % (start, self.text))
        return int(self.text[start:self.pos])

    def name(self):
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]


def _parse_poly(tok, spec, stop_chars):
    total = zero(spec)
    sign = 1
    first = True
    while True:
        ch = tok.peek()
        if ch == "" or ch in stop_chars:
            if first:
                raise ValueError("empty polynomial in %r" % tok.text)
            return total
        if ch == "+":
            tok.take("+")
            sign = 1
        elif ch == "-":
            tok.take("-")
            sign = -1
        elif not first:
            raise ValueError("expected +/- at %d in %r" % (tok.pos, tok.text))
        term = _parse_term(tok, spec)
        total = total + (term if sign == 1 else -term)
        first = False
        sign = 1


def _parse_term(tok, spec):
    coeff = Fraction(1)
    acc = None
    expect_factor = True
    while expect_factor:
        ch = tok.peek()
        if ch == "(":
            # parenthesized cyclotomic coefficient (free-rho fields)
            tok.take("(")
            inner = _parse_poly(tok, FieldSpec.cyclotomic(spec.m, 0) if spec.kind == "cyclo" else spec, ")")
            tok.take(")")
            part = Scalar(spec, CycloFrac.from_cyclo(spec.m, inner.rep)) if spec.rho_kind == "free" else inner
            acc = part if acc is None else acc * part
        elif ch.isdigit():
            n = tok.integer()
            if tok.peek() == "/":
                save = tok.pos
                tok.take("/")
                if tok.peek().isdigit():
                    coeff *= Fraction(n, tok.integer())
                else:
                    tok.pos = save
                    coeff *= n
            else:
                coeff *= n
        elif ch.isalpha():
            nm = tok.name()
            e = 1
            if tok.peek() == "^":
                tok.take("^")
                e = tok.integer()
            if nm == "q":
                part = monomial(spec, 1, e, 0)
            elif nm == "rho":
                part = monomial(spec, 1, 0, e)
            elif nm == "z":
                if spec.kind != "cyclo":
                    raise ValueError("'z' only valid in cyclotomic fields")
                part = monomial(spec, 1, e, 0)
            else:
                raise ValueError("unknown symbol %r" % nm)
            acc = part if acc is None else acc * part
        else:
            raise ValueError("unexpected %r at %d in %r" % (ch, tok.pos, tok.text))
        expect_factor = tok.peek() == "*"
        if expect_factor:
            tok.take("*")
    out = from_fraction(coeff, spec)
    if acc is not None:
        out = out * acc
    return out


def parse_scalar(text, spec):
    """Parse the canonical text form back into a Scalar of the given field."""
    text = text.strip()
    if text.startswith("("):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    if i + 1 < len(text) and text[i + 1] == "/":
                        num = parse_scalar(text[1:i], spec)
                        den_text = text[i + 2:].strip()
                        if not (den_text.startswith("(") and den_text.endswith(")")):
                            raise ValueError("malformed fraction: %r" % text)
                        den = parse_scalar(den_text[1:-1], spec)
                        return num / den
                    break
    tok = _Tok(text)
    val = _parse_poly(tok, spec, "")
    if tok.peek() != "":
        raise ValueError("trailing input at %d in %r" % (tok.pos, text))
    return val


def generic_terms(x):
    """Numerator and denominator of a generic scalar as sorted term lists.

    Each term is (qexp, rhoexp, Fraction coefficient); the two lists are a
    faithful, order-normalized encoding of the scalar.
    """
    if x.spec.kind != "generic":
        raise ValueError("generic_terms expects a generic-mode scalar")

    def side(poly):
        return sorted((qe, re, c) for (qe, re), c in _terms(poly))

    return side(x.rep.numer), side(x.rep.denom)


def generic_from_terms(num_terms, den_terms):
    """Rebuild a generic scalar from ``generic_terms`` output (or any
    equivalent term lists; negative exponents are allowed and normalized)."""
    def side(terms):
        return {(int(qe), int(re)): c for qe, re, c in terms}

    return _from_terms(FieldSpec.generic(), side(num_terms), side(den_terms))
