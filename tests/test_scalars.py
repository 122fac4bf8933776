import functools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wbq import engine, scalars
from wbq.scalars import (
    FieldSpec, INFINITY, Scalar, delta, evaluate, monomial,
    one, q_elem, quantum_characteristic,
    quantum_factorial, quantum_integer, rho_elem, specialize, to_text, zero,
)
from wbq.errors import (
    DenominatorVanishes, IntegralityViolation, RhoDependentDivisor,
)

GEN = FieldSpec.generic()

SAMPLE_SPECS = [
    FieldSpec.generic(),
    FieldSpec.qpower(0),
    FieldSpec.qpower(3),
    FieldSpec.qpower(-2),
    FieldSpec.cyclotomic(4, 0),
    FieldSpec.cyclotomic(4, 1),
    FieldSpec.cyclotomic(3, 2),
    FieldSpec.cyclotomic(7, 1),
    FieldSpec.cyclotomic(12, 5),
    FieldSpec.cyclotomic(4, "free"),
    FieldSpec.cyclotomic(3, "free"),
]


def random_scalar(spec, rng, allow_frac=True):
    x = zero(spec)
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        x = x + monomial(spec, c, rng.randint(-3, 3), rng.randint(-2, 2))
    if allow_frac and rng.random() < 0.5:
        y = zero(spec)
        # a generic divisor has one power of rho
        rho = rng.randint(-1, 1)
        for _ in range(rng.randint(1, 2)):
            if spec.kind != "generic":
                rho = rng.randint(-1, 1)
            y = y + monomial(spec, rng.randint(-3, 3), rng.randint(-2, 2), rho)
        if y:
            x = x / y
    return x


def _divides(spec, y):
    """Whether every value of ``spec`` divides by y: any nonzero y, and on
    the generic field one whose numerator has a single power of rho, a
    unit of the generic form."""
    if spec.kind != "generic":
        return bool(y)
    return len({re for _, re, _ in scalars.generic_terms(y)[0]}) == 1


def test_quantum_integer_examples():
    # [1] = 1 and [2] = q + q^-1 in every field
    assert quantum_integer(1, GEN) == one(GEN)
    q = q_elem(GEN)
    qinv = monomial(GEN, 1, -1, 0)
    assert quantum_integer(2, GEN) == q + qinv
    assert to_text(quantum_integer(2, GEN)) == "(q^2 + 1)/(q)"
    assert quantum_integer(0, GEN) == zero(GEN)
    # [-l] = -[l]
    assert quantum_integer(-3, GEN) == -quantum_integer(3, GEN)


def test_quantum_integer_vanishes_at_quantum_characteristic():
    for spec in (FieldSpec.cyclotomic(4, 0), FieldSpec.cyclotomic(3, 0),
                 FieldSpec.cyclotomic(6, 0), FieldSpec.cyclotomic(5, 0),
                 FieldSpec.cyclotomic(7, 0), FieldSpec.cyclotomic(12, 0)):
        e = quantum_characteristic(spec)
        assert not quantum_integer(e, spec)
        for ell in range(1, e):
            assert quantum_integer(ell, spec)


def test_quantum_characteristic():
    assert quantum_characteristic(FieldSpec.generic()) == INFINITY
    assert quantum_characteristic(FieldSpec.qpower(5)) == INFINITY
    # e is the order of q^2: m odd -> m, m even -> m/2
    assert quantum_characteristic(FieldSpec.cyclotomic(6, 0)) == 3
    assert quantum_characteristic(FieldSpec.cyclotomic(5, 0)) == 5
    assert quantum_characteristic(FieldSpec.cyclotomic(4, 0)) == 2
    assert quantum_characteristic(FieldSpec.cyclotomic(3, 0)) == 3
    assert quantum_characteristic(FieldSpec.cyclotomic(7, 0)) == 7
    assert quantum_characteristic(FieldSpec.cyclotomic(11, 0)) == 11
    assert quantum_characteristic(FieldSpec.cyclotomic(12, 0)) == 6


def test_delta_examples():
    # delta = 0 whenever rho^2 = 1
    assert not delta(FieldSpec.cyclotomic(4, 0))
    assert not delta(FieldSpec.cyclotomic(4, 2))  # rho = -1
    assert not delta(FieldSpec.qpower(0))
    # delta at rho = q^a equals [a] (checked by exact expansion)
    for a in range(1, 7):
        spec = FieldSpec.qpower(a)
        assert delta(spec) == quantum_integer(a, spec)
        nspec = FieldSpec.qpower(-a)
        assert delta(nspec) == quantum_integer(-a, nspec)
    # generic delta is the symbolic fraction
    d = delta(GEN)
    num = rho_elem(GEN) - monomial(GEN, 1, 0, -1)
    den = q_elem(GEN) - monomial(GEN, 1, -1, 0)
    assert d * den == num


def test_field_axioms_random():
    rng = random.Random(20260815)
    for spec in SAMPLE_SPECS:
        for _ in range(8):
            a = random_scalar(spec, rng)
            b = random_scalar(spec, rng)
            c = random_scalar(spec, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == zero(spec)
            if _divides(spec, a):
                assert a / a == one(spec)
                assert a * (one(spec) / a) == one(spec)


def test_specialize_quantum_integers_compatible():
    targets = [FieldSpec.qpower(0), FieldSpec.qpower(3), FieldSpec.qpower(-1),
               FieldSpec.cyclotomic(4, 0), FieldSpec.cyclotomic(3, 1),
               FieldSpec.cyclotomic(7, 2), FieldSpec.cyclotomic(12, 0),
               FieldSpec.cyclotomic(4, "free"), FieldSpec.cyclotomic(3, "free")]
    for ell in range(0, 11):
        x = quantum_integer(ell, GEN)
        for t in targets:
            assert specialize(x, t) == quantum_integer(ell, t)


def test_specialize_delta_and_constants():
    t = FieldSpec.qpower(3)
    assert specialize(delta(GEN), t) == quantum_integer(3, t)
    for t in (FieldSpec.qpower(2), FieldSpec.cyclotomic(5, 1), FieldSpec.cyclotomic(4, "free")):
        assert specialize(one(GEN), t) == one(t)
        assert specialize(monomial(GEN, Fraction(-7, 2)), t) == monomial(t, Fraction(-7, 2))
        assert specialize(delta(GEN), t) == delta(t)


def test_specialize_denominator_vanishes():
    # a generic denominator is rho^B times a polynomial in q, so only a
    # field where q is a root of unity can send it to zero: q^2 + 1 at
    # zeta_4
    x = rho_elem(GEN) / (q_elem(GEN) * q_elem(GEN) + one(GEN))
    for target in (FieldSpec.cyclotomic(4, 1), FieldSpec.cyclotomic(4)):
        hit = False
        try:
            specialize(x, target)
        except DenominatorVanishes:
            hit = True
        assert hit, target
    # but the same element specializes fine where q^2 != -1
    for target in (FieldSpec.qpower(1), FieldSpec.cyclotomic(3, 1)):
        assert specialize(x, target)
    # and no generic value has a denominator with two powers of rho
    with pytest.raises(RhoDependentDivisor, match="-q \\+ rho"):
        one(GEN) / (rho_elem(GEN) - q_elem(GEN))


def test_quantum_factorial_nonzero_iff_small():
    specs = [FieldSpec.generic(), FieldSpec.qpower(1), FieldSpec.cyclotomic(4, 0),
             FieldSpec.cyclotomic(3, 0), FieldSpec.cyclotomic(6, 1),
             FieldSpec.cyclotomic(7, 0), FieldSpec.cyclotomic(12, 3)]
    for spec in specs:
        e = quantum_characteristic(spec)
        for ell in range(0, 11):
            nonzero = bool(quantum_factorial(ell, spec))
            assert nonzero == (ell < e or ell <= 1)


def test_truthiness_is_nonzero():
    for text in ("generic", "qpow:3", "cyclo:4,rho=zeta^1", "cyclo:3,rho=free"):
        spec = FieldSpec.from_string(text)
        x = q_elem(spec) + rho_elem(spec)
        values = [zero(spec), one(spec), x - x]
        values.extend(v if spec == GEN else specialize(v, spec)
                      for v in _bundled(1, 1)._iter_values())
        for value in values:
            assert bool(value) == (value != zero(spec)), (text, to_text(value))


def test_field_spec_strings():
    cases = ["generic", "qpow:3", "qpow:-2", "cyclo:4,rho=zeta^0",
             "cyclo:7,rho=zeta^2", "cyclo:3,rho=free"]
    for s in cases:
        spec = FieldSpec.from_string(s)
        assert spec.to_string() == s
        assert FieldSpec.from_string(spec.to_string()) == spec
    # the tie is reduced mod m, and the printed form is the reduced one
    spec = FieldSpec.from_string("cyclo:4,rho=zeta^5")
    assert spec.to_string() == "cyclo:4,rho=zeta^1"
    assert spec == FieldSpec.cyclotomic(4, 1)
    assert hash(spec) == hash(FieldSpec.cyclotomic(4, 1))
    assert (FieldSpec.from_string("cyclo:3,rho=zeta^-1").to_string()
            == "cyclo:3,rho=zeta^2")
    assert FieldSpec.from_string("qpow:-0").to_string() == "qpow:0"
    # tie is None exactly where rho is free
    ties = {s: FieldSpec.from_string(s).tie for s in cases}
    assert ties == {"generic": None, "qpow:3": 3, "qpow:-2": -2,
                    "cyclo:4,rho=zeta^0": 0, "cyclo:7,rho=zeta^2": 2,
                    "cyclo:3,rho=free": None}
    bad = False
    try:
        FieldSpec.cyclotomic(2, 0)
    except ValueError:
        bad = True
    assert bad


# ---------------------------------------------------------------------------
# specialize against the term-by-term reference
# ---------------------------------------------------------------------------

# The 16 non-generic fields of the verification grid.
GRID = ([FieldSpec.cyclotomic(4, "free"), FieldSpec.cyclotomic(3, "free")]
        + [FieldSpec.qpower(a) for a in range(-2, 5)]
        + [FieldSpec.cyclotomic(4, a) for a in range(4)]
        + [FieldSpec.cyclotomic(3, a) for a in range(3)])


@functools.lru_cache(maxsize=None)
def _value_class_field(spec):
    """(const, q, rho) of the field ``spec``, built from its value classes
    and not through ``monomial``: const(c) is the scalar c, and rho is
    q^a on ``qpow:a`` and zeta^b on ``rho = zeta^b``."""
    if spec.kind == "generic":
        # the normal forms c / 1, q / 1 and rho / 1, stored field by field
        def gfrac(e, f, num, den):
            return Scalar(spec, scalars._qrho(
                e, f, ((num,),) if num else (), den, 0, 0, (1,)))

        return (lambda c: gfrac(0, 0, c.numerator, c.denominator),
                gfrac(1, 0, 1, 1), gfrac(0, 1, 1, 1))
    if spec.kind == "qpow":
        # the normal forms c / 1 and q / 1, stored field by field
        def qfrac(e, num, den):
            return Scalar(spec, scalars._laurent_frac(
                e, (num,) if num else (), den, 0, 0, (1,)))

        return (lambda c: qfrac(0, c.numerator, c.denominator),
                qfrac(1, 1, 1), None)
    m = spec.m
    cyclo_one, zeta = scalars.CycloNum(m, [1]), scalars.CycloNum(m, [0, 1])
    if spec.tie is not None:
        return (lambda c: Scalar(spec, scalars.CycloNum(m, [c])),
                Scalar(spec, zeta), None)

    def frac(*num):
        return Scalar(spec, scalars.CycloFrac(m, num, [cyclo_one]))

    return (lambda c: frac(scalars.CycloNum(m, [c])), frac(zeta),
            frac(scalars.CycloNum(m, [0]), cyclo_one))


@functools.lru_cache(maxsize=None)
def _generator_power(spec, name, k):
    """q^k or rho^k in ``spec``, by field multiplication and division."""
    const, q, rho = _value_class_field(spec)
    if name == "rho" and rho is None:
        return _generator_power(spec, "q", spec.tie * k)
    if k < 0:
        return const(Fraction(1)) / _generator_power(spec, name, -k)
    if k == 0:
        return const(Fraction(1))
    return _generator_power(spec, name, k - 1) * (q if name == "q" else rho)


def _term(spec, c, i, j):
    """c * q^i * rho^j in ``spec`` from the value classes."""
    return (_value_class_field(spec)[0](Fraction(c))
            * _generator_power(spec, "q", i) * _generator_power(spec, "rho", j))


def _reference_specialize(x, target):
    """The term-by-term image: every numerator and denominator term is
    built by ``_term`` and summed by field addition, then one division."""
    def side(terms):
        out = _term(target, 0, 0, 0)
        for qe, re, c in terms:
            out = out + _term(target, c, qe, re)
        return out

    num, den = (side(terms) for terms in scalars.generic_terms(x))
    if not den:
        raise DenominatorVanishes("denominator vanishes under %s"
                                  % target.to_string())
    return num / den


def _image_or_vanishes(fn, x, target):
    try:
        return fn(x, target)
    except DenominatorVanishes as exc:
        return ("vanishes", str(exc))


def _assert_matches_reference(values, targets):
    for target in targets:
        for x in values:
            got = _image_or_vanishes(specialize, x, target)
            want = _image_or_vanishes(_reference_specialize, x, target)
            assert got == want, (target, to_text(x))


@functools.lru_cache(maxsize=None)
def _bundled(r, s):
    return engine.load_table(engine.bundled_path(r, s), r, s)


def test_specialize_matches_reference_on_small_bundled_tables():
    for shape in ((1, 1), (1, 2), (2, 1)):
        _assert_matches_reference(list(_bundled(*shape)._iter_values()), GRID)


def test_specialize_matches_reference_on_sampled_b22_entries():
    table = _bundled(2, 2)
    values = list(table.unit_expansion().values())
    for key in sorted(table._generators):
        values.extend(table.generator_expansion(key).values())
    products = [value for key in sorted(table._products)
                for _, value in sorted(table.product(*key).items())]
    values.extend(random.Random(1403).sample(products, 160))
    _assert_matches_reference(values, GRID)


def test_specialize_rejects_incompatible_fields():
    # only a generic value specializes, even into its own field
    x = specialize(delta(GEN), FieldSpec.qpower(2))
    for target in (FieldSpec.qpower(2), FieldSpec.qpower(3), FieldSpec.generic(),
                   FieldSpec.cyclotomic(4, 2), FieldSpec.cyclotomic(4, 1),
                   FieldSpec.cyclotomic(4, "free")):
        try:
            specialize(x, target)
        except ValueError:
            continue
        raise AssertionError(target)
    try:
        specialize(delta(FieldSpec.cyclotomic(4, 1)), FieldSpec.qpower(1))
    except ValueError:
        pass
    else:
        raise AssertionError("cyclotomic source accepted")


@st.composite
def _table_shaped_values(draw):
    """Generic values N(q, rho) / (c q^A (q^2-1)^K), the shape of every
    table entry, whose denominators never vanish on the grid."""
    num = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3),
                                  st.integers(-5, 5)), max_size=4))
    c = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
    A = draw(st.integers(-3, 3))
    K = draw(st.integers(0, 2))
    den = [(A + 2 * i, 0, c * math.comb(K, i) * (-1) ** (K - i))
           for i in range(K + 1)]
    return scalars.generic_from_terms(num, den)


@settings(max_examples=60, deadline=None)
@given(_table_shaped_values(), _table_shaped_values(), st.sampled_from(GRID))
def test_specialize_is_a_ring_homomorphism(x, y, target):
    fx, fy = specialize(x, target), specialize(y, target)
    assert specialize(x + y, target) == fx + fy
    assert specialize(x * y, target) == fx * fy


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([GEN] + GRID),
       st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                        Fraction(-7, 2)]),
       st.integers(-4, 4), st.integers(-4, 4))
def test_monomial_and_from_laurent_match_the_value_classes(spec, c, i, j):
    assert monomial(spec, c, i, j) == _term(spec, c, i, j)
    # c q^i + q^j, an int coefficient where it is integral, as the lift
    # stores it
    laurent = (scalars.Laurent({i: c.numerator if c.denominator == 1 else c}
                               if c else {})
               + scalars.Laurent({j: 1}))
    assert (Scalar.from_laurent(spec, laurent)
            == _term(spec, c, i, 0) + _term(spec, 1, j, 0))


@settings(max_examples=200, deadline=None)
@given(_table_shaped_values(), _table_shaped_values(),
       st.sampled_from([GEN] + GRID), st.integers(-6, 6), st.integers(-3, 3))
def test_mod_p_is_a_ring_map(x, y, target, i, j):
    fx, fy = specialize(x, target), specialize(y, target)
    (vx, p), (vy, _) = fx.mod_p(), fy.mod_p()
    assert (fx + fy).mod_p() == ((vx + vy) % p, p)
    assert (fx * fy).mod_p() == (vx * vy % p, p)
    if vy and _divides(target, fy):
        assert (fx / fy).mod_p() == (vx * pow(vy, -1, p) % p, p)
    assert one(target).mod_p() == (1, p)
    t, u = q_elem(target).mod_p()[0], rho_elem(target).mod_p()[0]
    if target.tie is not None:
        assert u == pow(t, target.tie, p)
    # q^i reduced mod Phi_m maps to t^i: the image of zeta is a root of Phi_m
    assert monomial(target, 3, i, j).mod_p() == (
        3 * pow(t, i, p) * pow(u, j, p) % p, p)


_POINTS = [Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-5, 3)]


@settings(max_examples=60, deadline=None)
@given(_table_shaped_values(), _table_shaped_values(), st.sampled_from(_POINTS),
       st.integers(-2, 4))
def test_evaluate_is_the_value_at_the_point(x, y, t, a):
    assert evaluate(x + y, t, a) == evaluate(x, t, a) + evaluate(y, t, a)
    assert evaluate(x * y, t, a) == evaluate(x, t, a) * evaluate(y, t, a)
    assert evaluate(specialize(x, FieldSpec.qpower(a)), t) == evaluate(x, t, a)


def test_evaluate_raises_where_the_denominator_vanishes():
    x = one(GEN) / (q_elem(GEN) - monomial(GEN, 2))
    assert evaluate(x, 3) == 1
    with pytest.raises(DenominatorVanishes, match="q=2, rho=q\\^0"):
        evaluate(x, 2)


# ---------------------------------------------------------------------------
# CycloNum against the Fraction reference
# ---------------------------------------------------------------------------

def _rtrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _rsub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _rtrim(out)


def _rmul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _rtrim(out)


def _rdivmod(a, b):
    a = _rtrim(list(a))
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _rtrim(a)
    return _rtrim(q), a


@functools.lru_cache(maxsize=None)
def _ref_phi(m):
    x = sympy.Symbol("x")
    poly = sympy.cyclotomic_poly(m, x).as_poly(x)
    return [Fraction(int(c)) for c in reversed(poly.all_coeffs())]


def test_cyclotomic_polynomials_match_sympy():
    for m in range(1, 121):
        assert list(scalars._cyclotomic(m)) == [int(c) for c in _ref_phi(m)], m
        d, zpows = scalars._phi(m)
        assert d == len(_ref_phi(m)) - 1 and len(zpows) == m


def test_primality_matches_sympy():
    below = list(range(-2, 20000))
    near_two_to_31 = list(range(2 ** 31 - 5000, 2 ** 31))
    # strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5; and
    # Carmichael numbers
    hard = [2047, 1373653, 25326001, 561, 1105, 1729, 2465, 2821, 6601,
            8911, 41041, 825265, 321197185, 2 ** 31 - 1, 2147483629]
    for n in below + near_two_to_31 + hard:
        assert scalars._is_prime(n) == sympy.isprime(n), n
    for spec in SAMPLE_SPECS + [FieldSpec.cyclotomic(m) for m in (5, 7, 11)]:
        assert sympy.isprime(scalars._modp_point(spec)[0])


class _RefCycloNum:
    """The Fraction form of Q(zeta_m) that scalars.CycloNum replaced:
    residues modulo Phi_m with Fraction coefficients, every reduction by
    polynomial division, inverses by extended Euclid.  It shares no code
    with the package."""

    def __init__(self, m, coeffs):
        phi = _ref_phi(m)
        _, c = _rdivmod([Fraction(x) for x in coeffs], phi)
        self.m = m
        self.c = tuple(c + [Fraction(0)] * (len(phi) - 1 - len(c)))

    def __eq__(self, other):
        return self.m == other.m and self.c == other.c

    def __add__(self, other):
        return _RefCycloNum(self.m, [x + y for x, y in zip(self.c, other.c)])

    def __sub__(self, other):
        return _RefCycloNum(self.m, [x - y for x, y in zip(self.c, other.c)])

    def __neg__(self):
        return _RefCycloNum(self.m, [-x for x in self.c])

    def __mul__(self, other):
        return _RefCycloNum(self.m, _rmul(list(self.c), list(other.c)))

    def inverse(self):
        r0, r1 = _ref_phi(self.m), _rtrim(list(self.c))
        u0, u1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _rdivmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, _rsub(u0, _rmul(q, u1))
        return _RefCycloNum(self.m, [x / r1[0] for x in u1])

    def galois(self, k):
        out = [Fraction(0)] * self.m
        for i, x in enumerate(self.c):
            out[k * i % self.m] += x
        return _RefCycloNum(self.m, out)


MODULI = (3, 4, 5, 7, 8, 11, 12)
_COEFFS = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                   max_size=14)


@st.composite
def _cyclo_pairs(draw):
    """(m, a, b) as coefficient lists of any length; b is sometimes a plus
    a multiple of Phi_m, so that equal elements with different inputs
    occur."""
    m = draw(st.sampled_from(MODULI))
    a = draw(_COEFFS)
    if draw(st.booleans()):
        b = draw(_COEFFS)
    else:
        shift = [Fraction(0)] * draw(st.integers(0, 3)) + [draw(st.fractions(-3, 3, max_denominator=3))]
        b = _rsub(a, _rmul(shift, _ref_phi(m)))
    return m, a, b


def _agrees(new, ref):
    return new.m == ref.m and new.c == ref.c


@settings(max_examples=200, deadline=None)
@given(_cyclo_pairs(), st.integers(0, 99), st.integers(0, 99))
def test_cyclonum_matches_the_fraction_reference(case, pick_j, pick_k):
    m, ca, cb = case
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    j, k = units[pick_j % len(units)], units[pick_k % len(units)]
    a, b = scalars.CycloNum(m, ca), scalars.CycloNum(m, cb)
    ra, rb = _RefCycloNum(m, ca), _RefCycloNum(m, cb)
    assert _agrees(a, ra) and _agrees(b, rb)
    assert _agrees(a + b, ra + rb)
    assert _agrees(a - b, ra - rb)
    assert _agrees(a * b, ra * rb)
    assert _agrees(-a, -ra)
    assert _agrees(a.galois(-1), ra.galois(-1))
    assert _agrees(a.galois(j), ra.galois(j))
    assert a.galois(j).galois(k) == a.galois(j * k)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    assert bool(a) == any(ra.c)
    if a:
        assert _agrees(a.inverse(), ra.inverse())
        assert a * a.inverse() == scalars.CycloNum.const(m, 1)
    spec = FieldSpec.cyclotomic(m, 0)
    assert to_text(scalars.Scalar(spec, a)) == to_text(scalars.Scalar(spec, ra))


def test_inverting_zero_raises_on_every_call():
    for m in MODULI:
        zero_num = scalars.CycloNum.const(m, 0)
        for _ in range(3):
            with pytest.raises(ZeroDivisionError):
                zero_num.inverse()
            with pytest.raises(ZeroDivisionError):
                scalars._inverse(m, zero_num.v, zero_num.den)
        spec = FieldSpec.cyclotomic(m, 1)
        for _ in range(3):
            with pytest.raises(ZeroDivisionError):
                one(spec) / zero(spec)


def test_cached_inverses_are_equal_and_unaliased():
    x = scalars.CycloNum(7, [Fraction(-1, 3), 0, Fraction(1, 3)])
    first = x.inverse()
    hits = scalars._inverse.cache_info().hits
    second = x.inverse()
    assert scalars._inverse.cache_info().hits == hits + 1
    assert first == second and first is not second
    assert first * x == scalars.CycloNum.const(7, 1)
    assert _agrees(second, _RefCycloNum(7, [Fraction(-1, 3), 0, Fraction(1, 3)]).inverse())


# ---------------------------------------------------------------------------
# Laurent values: the tensor action's lift of qpow and rho = zeta^a values
# ---------------------------------------------------------------------------

LAURENT_SPECS = [FieldSpec.qpower(3), FieldSpec.qpower(4),
                 FieldSpec.cyclotomic(3, 0), FieldSpec.cyclotomic(4, 0)]
# lowering needs no Laurent form: q goes to q or zeta on every field
LOWERING_SPECS = LAURENT_SPECS + [GEN, FieldSpec.cyclotomic(3),
                                  FieldSpec.cyclotomic(4)]


@st.composite
def _laurents(draw, low=-6, high=6):
    coefficient = st.builds(Fraction, st.integers(-5, 5),
                            st.sampled_from([1, 1, 2, 3]))
    terms = draw(st.dictionaries(st.integers(low, high), coefficient,
                                 max_size=4))
    # an int where the coefficient is integral, as the lift stores it
    return scalars.Laurent({e: c.numerator if c.denominator == 1 else c
                            for e, c in terms.items() if c})


@settings(max_examples=120, deadline=None)
@given(_laurents(), _laurents(), st.sampled_from(LOWERING_SPECS))
def test_lowering_laurent_values_is_a_ring_homomorphism(x, y, spec):
    def lower(z):
        return Scalar.from_laurent(spec, z)

    lx, ly = lower(x), lower(y)
    assert lower(x + y) == lx + ly
    assert lower(x - y) == lx - ly
    assert lower(x * y) == lx * ly
    assert lower(-x) == -lx
    assert lower(x + y) == lower(y + x) and lower(x * y) == lower(y * x)
    # no zero coefficient is ever stored
    for value in (x + y, x - y, x * y, -x, x - x):
        assert all(value.values())
    assert not (x - x) and (x - x) == scalars.Laurent()
    assert (lx == ly) == (not lower(x - y))
    if spec.kind != "cyclo":
        # Q[q, 1/q] embeds in Q(q) and Q(q, rho): equality and truthiness
        # carry over
        assert (x == y) == (lx == ly)
        assert bool(x) == bool(lx)
    else:
        # Z[q, 1/q] -> Q(zeta_m) has a kernel: only one direction holds
        assert x != y or lx == ly
        assert bool(x) or not lx


_EVALUATION_POINTS = st.builds(Fraction, st.integers(-9, 9),
                               st.integers(1, 5)).filter(
    lambda t: t not in (0, 1, -1))


@settings(max_examples=120, deadline=None)
@given(_laurents(), _laurents(), _EVALUATION_POINTS, st.integers(-3, 4))
def test_evaluating_laurent_values_is_a_ring_homomorphism(x, y, t, n):
    vx, vy = x(t), y(t)
    for value in (vx, vy, (x + y)(t), (x * y)(t)):
        assert type(value) is Fraction
    assert (x + y)(t) == vx + vy
    assert (x - y)(t) == vx - vy
    assert (x * y)(t) == vx * vy
    assert (-x)(t) == -vx
    assert scalars.Laurent()(t) == 0
    # the same value as lowering to qpow:n and evaluating there
    spec = FieldSpec.qpower(n)
    assert evaluate(Scalar.from_laurent(spec, x), t) == vx


@settings(max_examples=80, deadline=None)
@given(_laurents(), _laurents(0, 1), st.sampled_from(LAURENT_SPECS))
def test_lift_after_lower_is_the_identity(x, reduced, spec):
    value = Scalar.from_laurent(spec, x)
    num, den = value.to_laurent()
    assert den is None
    assert Scalar.from_laurent(spec, num) == value
    if spec.kind == "qpow":
        assert num == x
    else:
        # exponents below phi(m) = 2 are the coordinates of Q(zeta_3), Q(zeta_4)
        assert Scalar.from_laurent(spec, reduced).to_laurent() == (reduced, None)


def test_to_laurent_splits_off_denominators_that_are_not_monomials():
    rng = random.Random(7)
    spec = FieldSpec.qpower(3)
    seen = set()
    for _ in range(60):
        x = random_scalar(spec, rng)
        num, den = x.to_laurent()
        seen.add(den is None)
        back = Scalar.from_laurent(spec, num)
        if den is not None:
            assert len(den) > 1
            back = back / Scalar.from_laurent(spec, den)
        assert back == x
    assert seen == {True, False}
    half = monomial(spec, Fraction(1, 2), -2)
    assert half.to_laurent() == (scalars.Laurent({-2: Fraction(1, 2)}), None)
    for bad in (GEN, FieldSpec.cyclotomic(4, "free")):
        with pytest.raises(ValueError):
            one(bad).to_laurent()
        assert Scalar.from_laurent(bad, scalars.Laurent({0: 1, 1: -2})) == (
            one(bad) - monomial(bad, 2, 1))


_Q, _RHO, _Z = sympy.symbols("q rho z")


def _sympy_form(value):
    """``value`` as a numerator and a denominator, sympy expressions in q
    and rho, with z for zeta on ``cyclo`` fields, read from its stored
    form."""
    spec, rep = value.spec, value.rep
    if spec.kind == "generic":
        return tuple(sum(c * _Q ** qe * _RHO ** re for qe, re, c in side)
                     for side in scalars.generic_terms(value))
    if spec.kind == "qpow":
        return tuple(1 if side is None else
                     sum(c * _Q ** e for e, c in side.items())
                     for side in value.to_laurent())

    def cyclo(x):
        return sum(c * _Z ** k for k, c in enumerate(x.c))

    if spec.tie is not None:
        return cyclo(rep), 1
    return tuple(sum(cyclo(x) * _RHO ** j for j, x in enumerate(side))
                 for side in (rep.num, rep.den))


def _text_means(text, value):
    """Whether sympy's reading of ``text``, with ``^`` as ``**``, is
    ``value``: the cross product of the two fractions vanishes exactly on
    generic and qpow fields, and on ``cyclo:m`` modulo the cyclotomic
    polynomial Phi_m(z)."""
    parsed = sympy.sympify(text.replace("^", "**"),
                           locals={"q": _Q, "rho": _RHO, "z": _Z})
    num, den = sympy.fraction(sympy.together(parsed))
    a, b = _sympy_form(value)
    cross = sympy.expand(num * b - a * den)
    if value.spec.kind == "cyclo":
        cross = sympy.rem(cross, sympy.cyclotomic_poly(value.spec.m, _Z), _Z)
    return cross == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GRID + SAMPLE_SPECS), _table_shaped_values(),
       _table_shaped_values(), _laurents())
def test_serialization_round_trip(spec, x, y, laurent):
    x, y = specialize(x, spec), specialize(y, spec)
    lowered = Scalar.from_laurent(spec, laurent)
    # dividing by a lowered value gives denominators of any shape
    for value in (x, lowered, x * y, x / lowered if lowered else y):
        text = to_text(value)
        assert _text_means(text, value), text
    # the oracle refuses a wrong text
    assert not _text_means(to_text(x + one(spec)), x)
    # equal values reached along different routes print and hash alike
    for other in ((x + y) - y, (x * y) / y if y else x):
        assert other == x
        assert to_text(other) == to_text(x) and hash(other) == hash(x)


@settings(max_examples=120, deadline=None)
@given(_laurents(), st.integers(0, 5), st.integers(-8, 8),
       st.integers(1, 5))
def test_laurent_division_by_quantum_factorials_is_exact(x, ell, e, c):
    qfact, den = quantum_factorial(ell, FieldSpec.qpower(1)).to_laurent()
    assert den is None
    quotient = (x * qfact) / qfact
    assert quotient == x and all(quotient.values())
    if ell >= 2:
        # [ell]! is no unit, so it divides no monomial
        with pytest.raises(IntegralityViolation):
            (x * qfact + scalars.Laurent({e: c})) / qfact


# -- qpow values against a sympy Q(q) reference -------------------------------

_QREF, _QREF_GEN = sympy.polys.fields.field("q", sympy.QQ)


def _sympy_terms(poly):
    """The (exponent tuple, Fraction) pairs of a sympy polynomial."""
    return [(mono, Fraction(int(c.numerator), int(c.denominator)))
            for mono, c in poly.items()]


def _ref_laurent(terms):
    """The sympy Q(q) value of {exponent: rational coefficient}."""
    out = _QREF(0)
    for e, c in terms.items():
        c = Fraction(c)
        out += _QREF(sympy.QQ(c.numerator, c.denominator)) * _QREF_GEN ** e
    return out


def _ref_text(value):
    """``to_text`` of a sympy Q(q) value, printed as while qpow values were
    gcd-normalised sympy fractions."""
    num, den = (_sympy_terms(side) for side in (value.numer, value.denom))
    num_s, den_s = (scalars._format_rational_poly(terms, ("q",))
                    for terms in scalars._integerize(num, den))
    return num_s if den_s == "1" else "(%s)/(%s)" % (num_s, den_s)


def _ref_mod_p(value, spec):
    """The residue of a sympy Q(q) value at the point of ``spec``, or None
    where its denominator, or a coefficient's, maps to zero."""
    p, (t, _) = scalars._modp_point(spec)
    sides = []
    for side in (value.numer, value.denom):
        total = 0
        for (e,), c in _sympy_terms(side):
            if c.denominator % p == 0:
                return None
            total += c.numerator * pow(c.denominator, -1, p) * pow(t, e, p)
        sides.append(total % p)
    if not sides[1]:
        return None
    return sides[0] * pow(sides[1], -1, p) % p, p


@st.composite
def _q_fractions(draw):
    """(terms, i, j, i2, j2, divisor): the value terms * (q - 1)^i *
    (q + 1)^j / ((q - 1)^i2 * (q + 1)^j2 * divisor), where terms and the
    divisor are Laurent polynomials; the divisor, when present, brings
    factors other than q and q +- 1 into the denominator."""
    coefficient = st.builds(Fraction, st.integers(-3, 3),
                            st.sampled_from([1, 1, 1, 2, 3]))
    terms = st.dictionaries(st.integers(-3, 4), coefficient, max_size=4)
    powers = [draw(st.integers(0, 3)) for _ in range(4)]
    divisor = draw(st.one_of(st.just({}), terms))
    return (draw(terms), *powers, divisor)


def _q_fraction(spec, terms, i, j, i2, j2, divisor):
    """The value of ``_q_fractions`` on ``spec`` and its sympy reference,
    built by multiplying by each factor q -+ 1 and then dividing, so that
    the divisions cancel the factors multiplied in."""
    def lower(t):
        return Scalar.from_laurent(spec, scalars.Laurent(
            {e: c.numerator if c.denominator == 1 else c
             for e, c in t.items() if c}))

    value, ref = lower(terms), _ref_laurent(terms)
    for factor, up, down in (({0: -1, 1: 1}, i, i2), ({0: 1, 1: 1}, j, j2)):
        for _ in range(up):
            value, ref = value * lower(factor), ref * _ref_laurent(factor)
        for _ in range(down):
            value, ref = value / lower(factor), ref / _ref_laurent(factor)
    if _ref_laurent(divisor):
        value, ref = value / lower(divisor), ref / _ref_laurent(divisor)
    return value, ref


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([FieldSpec.qpower(a) for a in (-2, 0, 3)]),
       _q_fractions(), _q_fractions())
def test_q_fractions_match_the_sympy_reference(spec, xa, ya):
    (x, rx), (y, ry) = _q_fraction(spec, *xa), _q_fraction(spec, *ya)
    cases = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry),
             (x * y, rx * ry), (-x, -rx)]
    if ry:
        cases.append((x / y, rx / ry))
    for value, ref in cases:
        assert bool(value) == bool(ref)
        assert to_text(value) == _ref_text(ref), (to_text(value), ref)
        assert value.mod_p() == _ref_mod_p(ref, spec)
        num, den = value.to_laurent()
        assert _ref_laurent(num) == ref * (1 if den is None
                                           else _ref_laurent(den))
        assert den is None or len(den) > 1
    # one normal form: equality, and hashes of equal values
    assert (x == y) == (rx == ry)
    routes = [(x + y) - y, x * one(spec)]
    if ry:
        routes.append((x * y) / y)
    for other in routes:
        assert other == x and hash(other) == hash(x)
        assert to_text(other) == to_text(x)


# -- generic values against a sympy Q(q, rho) reference ------------------------

BUNDLED_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
DIFFERENTIAL_FIELDS = [FieldSpec.qpower(2), FieldSpec.qpower(-2),
                       FieldSpec.cyclotomic(4, 1),
                       FieldSpec.cyclotomic(3, "free")]

_GREF = sympy.polys.fields.field("q,rho", sympy.QQ)[0]


def _eager(num, den):
    """The gcd-normalised sympy Q(q, rho) value of (qexp, rhoexp,
    coefficient) terms, the form every generic value had while the package
    computed in sympy."""
    low = [min(0, *(t[k] for side in (num, den) for t in side))
           for k in (0, 1)]

    def poly(side):
        out = {}
        for qe, re, c in side:
            key = (qe - low[0], re - low[1])
            out[key] = out.get(key, 0) + Fraction(c)
        return _GREF.ring.from_dict({key: sympy.QQ(c.numerator, c.denominator)
                                     for key, c in out.items() if c})

    return _GREF.new(poly(num), poly(den))


def _ref_terms(ref):
    """``generic_terms`` read from a sympy Q(q, rho) value: an int where a
    coefficient is integral."""
    return tuple(sorted((qe, re, c.numerator if c.denominator == 1 else c)
                        for (qe, re), c in _sympy_terms(side))
                 for side in (ref.numer, ref.denom))


def _ref_generic_text(ref):
    """``to_text`` of a sympy Q(q, rho) value, printed as while generic
    values were sympy fractions."""
    num, den = (_sympy_terms(side) for side in (ref.numer, ref.denom))
    num_s, den_s = (scalars._format_rational_poly(terms, ("q", "rho"))
                    for terms in scalars._integerize(num, den))
    return num_s if den_s == "1" else "(%s)/(%s)" % (num_s, den_s)


def _ref_generic_mod_p(ref, spec):
    """The residue of a sympy Q(q, rho) value at the point of ``spec``, or
    None where its denominator, or a coefficient's, maps to zero."""
    p, (t, u) = scalars._modp_point(spec)
    sides = []
    for side in (ref.numer, ref.denom):
        total = 0
        for (qe, re), c in _sympy_terms(side):
            if c.denominator % p == 0:
                return None
            total += (c.numerator * pow(c.denominator, -1, p)
                      * pow(t, qe, p) * pow(u, re, p))
        sides.append(total % p)
    if not sides[1]:
        return None
    return sides[0] * pow(sides[1], -1, p) % p, p


def _stored_pairs(r, s):
    """(stored JSON value, loaded value) for every value of a bundled
    table."""
    path = engine.bundled_path(r, s)
    with open(path) as handle:
        data = json.load(handle)
    table = engine.load_table(path, r, s)
    vectors = [(vec, table.product(*map(int, key.split(","))))
               for key, vec in data["products"].items()]
    vectors += [(vec, table.generator_expansion(key))
                for key, vec in data["generators"].items()]
    vectors.append((data["one"], table.unit_expansion()))
    return [(obj, loaded[int(c)]) for stored, loaded in vectors
            for c, obj in stored.items()]


def test_every_bundled_value_is_kept_and_decodes_to_the_eager_value():
    count = 0
    for shape in BUNDLED_SHAPES:
        for obj, kept in _stored_pairs(*shape):
            count += 1
            num, den = ([(qe, re, int(c)) for qe, re, c in side]
                        for side in obj)
            # the value holds the terms it was read from
            assert kept.rep.t == tuple(tuple(((qe, re), c) for qe, re, c in side)
                                       for side in (num, den)), (shape, obj)
            assert scalars.generic_terms(kept) == _ref_terms(_eager(num, den))
            # a zero term sends the same terms down the normalising path
            normalised = scalars.generic_from_terms(num + [(0, 0, 0)], den)
            assert normalised == kept and hash(normalised) == hash(kept)
    assert count == 2939


RESIDUE_FIELDS = [FieldSpec.from_string(text) for text in (
    "qpow:2", "qpow:-2", "qpow:4", "cyclo:4,rho=zeta^1",
    "cyclo:7,rho=zeta^3", "cyclo:3,rho=free", "generic")]


def _residue_of_image(x, target):
    """``specialize(x, target).mod_p()``, None where the image or its
    residue does not exist."""
    try:
        return specialize(x, target).mod_p()
    except DenominatorVanishes:
        return None


def test_residues_of_bundled_values_are_the_residues_of_their_images():
    compared = 0
    for shape in BUNDLED_SHAPES:
        for _, kept in _stored_pairs(*shape):
            for target in RESIDUE_FIELDS:
                got = kept.mod_p(target)
                want = _residue_of_image(kept, target)
                if got is not None and want is not None:
                    assert got == want, (shape, target, to_text(kept))
                    compared += 1
    # the fixed points miss no denominator of a bundled value
    assert compared == 2939 * len(RESIDUE_FIELDS)


@st.composite
def _int_polys(draw, max_len=6):
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=max_len))
    return coeffs if coeffs[-1] else coeffs + [1]


@settings(max_examples=200, deadline=None)
@given(_int_polys(), _int_polys(), _int_polys(4))
def test_polynomial_gcds_match_sympy(a, b, common):
    # a common factor planted, so that most gcds are not 1
    a, b = scalars._pmul(a, common), scalars._pmul(b, common)
    q = sympy.Symbol("q")

    def poly(coeffs):
        return sympy.Poly(list(reversed(coeffs)), q)

    want = poly(a).gcd(poly(b))
    want = want.primitive()[1] * (1 if want.LC() > 0 else -1)
    want = [int(c) for c in reversed(want.all_coeffs())]
    primitive = (scalars._primitive(a), scalars._primitive(b))
    assert scalars._pgcd(a, b) == want
    assert scalars._prs_gcd(*primitive) == want
    assert scalars._pdivexact(a, want) == [
        int(c) for c in reversed(poly(a).exquo(poly(want)).all_coeffs())]


def _ref_specialize_q(obj, a):
    """The sympy Q(q) value of stored generic terms under rho = q^a."""
    low = min(qe + a * re for side in obj for qe, re, _ in side)
    polys = []
    for side in obj:
        coeffs = {}
        for qe, re, c in side:
            key = (qe + a * re - low,)
            coeffs[key] = coeffs.get(key, 0) + int(c)
        polys.append(_QREF.ring.from_dict(
            {key: sympy.QQ(c) for key, c in coeffs.items() if c}))
    return _QREF.new(*polys)


def test_bundled_values_specialise_to_the_sympy_reference_on_qpow():
    fields = [FieldSpec.qpower(a) for a in range(-2, 5)]
    compared = 0
    for shape in BUNDLED_SHAPES:
        for obj, kept in _stored_pairs(*shape):
            for spec in fields:
                value = specialize(kept, spec)
                ref = _ref_specialize_q(obj, spec.tie)
                assert to_text(value) == _ref_text(ref), (shape, obj, spec)
                assert value.mod_p() == _ref_mod_p(ref, spec)
                compared += 1
    assert compared == 2939 * len(fields)


@st.composite
def _term_lists(draw):
    """Terms of N(q, rho) / (c q^A rho^B (q^2-1)^K), sometimes canonical and
    sometimes not: a content, a sign, a common factor or the order of the
    numerator can each be off."""
    mono = st.tuples(st.integers(0, 3), st.integers(0, 2))
    num = draw(st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                               min_size=1, max_size=4))
    c = draw(st.sampled_from([1, 1, 2, -1]))
    A, B, K = (draw(st.integers(0, 2)) for _ in range(3))
    num = sorted((qe, re, x) for (qe, re), x in num.items())
    if draw(st.booleans()):
        num.reverse()
    den = [(A + 2 * i, B, (-1) ** (K - i) * math.comb(K, i) * c)
           for i in range(K + 1)]
    return num, den


@settings(max_examples=150, deadline=None)
@given(_term_lists(), _term_lists(), st.sampled_from(DIFFERENTIAL_FIELDS))
def test_kept_terms_agree_with_eager_values(a, b, target):
    x, y = (scalars.generic_from_terms(*terms) for terms in (a, b))
    ex, ey = (_eager(*terms) for terms in (a, b))
    for value, ref in ((x, ex), (y, ey), (x + y, ex + ey), (x - y, ex - ey),
                       (x * y, ex * ey)):
        assert scalars.generic_terms(value) == _ref_terms(ref)
    assert (x == y) == (ex == ey)
    assert (_image_or_vanishes(specialize, x, target)
            == _image_or_vanishes(_reference_specialize, x, target))
    if y:
        _check_quotient(x, y, ex / ey)


def _in_generic_form(ref):
    """Whether a sympy Q(q, rho) value has a denominator with a single
    power of rho, as every generic value does."""
    return len({re for (_, re), _ in _sympy_terms(ref.denom)}) == 1


def _check_quotient(x, y, ref):
    """x / y is the reference quotient where that lies in the generic
    form, and raises ``RhoDependentDivisor`` where it does not."""
    if _in_generic_form(ref):
        assert scalars.generic_terms(x / y) == _ref_terms(ref)
    else:
        with pytest.raises(RhoDependentDivisor):
            x / y


@st.composite
def _generic_fractions(draw):
    """(terms, i, j, i2, j2, divisor, k): the value terms * (q - 1)^i *
    (q + 1)^j / ((q - 1)^i2 * (q + 1)^j2 * divisor * rho^k), where terms
    has exponent pairs and the divisor is a Laurent polynomial in q that,
    when present, brings factors other than q and q +- 1 into the
    denominator."""
    coefficient = st.builds(Fraction, st.integers(-3, 3),
                            st.sampled_from([1, 1, 1, 2, 3]))
    terms = draw(st.dictionaries(st.tuples(st.integers(-3, 4),
                                           st.integers(-2, 2)),
                                 coefficient, max_size=4))
    powers = [draw(st.integers(0, 2)) for _ in range(4)]
    divisor = draw(st.one_of(st.just({}), st.dictionaries(
        st.integers(-2, 3), coefficient, max_size=3)))
    return terms, *powers, divisor, draw(st.integers(-2, 2))


def _generic_fraction(terms, i, j, i2, j2, divisor, k):
    """The generic value of ``_generic_fractions`` and its sympy reference,
    each built by field operations: the divisions cancel factors that the
    products brought in."""
    def value(t, rho=0):
        return sum((monomial(GEN, c, e, rho) for e, c in t.items()), zero(GEN))

    def ref(t, rho=0):
        return _eager([(e, rho, c) for e, c in t.items()] or [(0, 0, 0)],
                      [(0, 0, 1)])

    x = sum((monomial(GEN, c, qe, re) for (qe, re), c in terms.items()),
            zero(GEN))
    rx = _eager([(qe, re, c) for (qe, re), c in terms.items()] or [(0, 0, 0)],
                [(0, 0, 1)])
    for factor, up, down in (({0: -1, 1: 1}, i, i2), ({0: 1, 1: 1}, j, j2)):
        for _ in range(up):
            x, rx = x * value(factor), rx * ref(factor)
        for _ in range(down):
            x, rx = x / value(factor), rx / ref(factor)
    if any(divisor.values()):
        x, rx = x / value(divisor, k), rx / ref(divisor, k)
    return x, rx


GENERIC_TARGETS = [FieldSpec.qpower(-2), FieldSpec.qpower(3),
                   FieldSpec.cyclotomic(4, 1), FieldSpec.cyclotomic(7, 3),
                   FieldSpec.cyclotomic(3, "free"), GEN]


@settings(max_examples=120, deadline=None)
@given(_generic_fractions(), _generic_fractions(),
       st.sampled_from(GENERIC_TARGETS))
def test_generic_values_match_the_sympy_reference(xa, ya, target):
    (x, rx), (y, ry) = _generic_fraction(*xa), _generic_fraction(*ya)
    cases = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry),
             (x * y, rx * ry), (-x, -rx)]
    if y:
        _check_quotient(x, y, rx / ry)
        if _in_generic_form(rx / ry):
            cases.append((x / y, rx / ry))
    for value, ref in cases:
        terms = scalars.generic_terms(value)
        assert terms == _ref_terms(ref)
        assert bool(value) == bool(ref)
        assert to_text(value) == _ref_generic_text(ref)
        assert scalars.generic_from_terms(*terms) == value
        assert value.mod_p(target) == _ref_generic_mod_p(ref, target)
        if target.kind == "qpow":
            image = specialize(value, target)
            want = _ref_specialize_q(terms, target.tie)
            assert to_text(image) == _ref_text(want)
            assert image.mod_p() == _ref_mod_p(want, target)
        else:
            assert (_image_or_vanishes(specialize, value, target)
                    == _image_or_vanishes(_reference_specialize, value,
                                          target))
    # one normal form: equality, and hashes of equal values
    assert (x == y) == (rx == ry)
    routes = [(x + y) - y, x * one(GEN)]
    if y:
        routes.append((x * y) / y)
    for other in routes:
        assert other == x and hash(other) == hash(x)
        assert to_text(other) == to_text(x)


def test_a_quotient_outside_the_generic_form_raises():
    q, rho = q_elem(GEN), rho_elem(GEN)
    x = q + one(GEN)
    for divisor in (rho + one(GEN), delta(GEN), rho * rho - q):
        with pytest.raises(RhoDependentDivisor,
                           match="more than one power of rho"):
            x / divisor
        # and so does reading terms with such a denominator
        num, den = scalars.generic_terms(divisor)
        with pytest.raises(RhoDependentDivisor):
            scalars.generic_from_terms(den, num)
        # a multiple of the divisor divides, also with a factor in q
        for value in (x, x * x / (q * q + one(GEN))):
            assert (value * divisor) / divisor == value
            assert divisor / (value * divisor) == one(GEN) / value
        assert (divisor * divisor) / divisor == divisor
    assert (rho * rho - q * q) / (rho - q) == rho + q
    assert (rho - q) / ((q + monomial(GEN, 2)) * (rho - q)) \
        == one(GEN) / (q + monomial(GEN, 2))
    # the content of the divisor's numerator, its power of q and its
    # integer content included, goes into the denominator
    content = q * q + q * monomial(GEN, 2)
    assert ((q - one(GEN)) * (rho + q)) / (content * (rho + q)) \
        == (q - one(GEN)) / content
    assert ((rho + monomial(GEN, 2, 1))
            / (monomial(GEN, 2, 0, 1) + monomial(GEN, 4, 1))
            == monomial(GEN, Fraction(1, 2)))
    # a single power of rho over any polynomial in q divides
    for divisor in (rho, q * q + one(GEN),
                    monomial(GEN, 3, 2, -1) - monomial(GEN, 1, 0, -1)):
        assert (x / divisor) * divisor == x


@settings(max_examples=150, deadline=None)
@given(_term_lists(), _table_shaped_values(),
       st.sampled_from(RESIDUE_FIELDS))
def test_mod_p_to_a_field_is_a_ring_map(terms, y, target):
    # x is stored or, off canonical form, a normalised sympy value; y and
    # the sums and products are sympy values, some with coefficients that
    # are not integers
    x = scalars.generic_from_terms(*terms)
    for v in (x, y, x + y, x * y, x - y):
        got, want = v.mod_p(target), _residue_of_image(v, target)
        if got is not None and want is not None:
            assert got == want, (target, to_text(v))
    images = [v.mod_p(target) for v in (x, y, x + y, x * y)]
    if None not in images:
        (vx, p), (vy, _), add, mul = images
        assert add == ((vx + vy) % p, p)
        assert mul == (vx * vy % p, p)
    assert x.mod_p(GEN) == x.mod_p()
    assert one(GEN).mod_p(target) == (1, scalars._modp_point(target)[0])
    assert (q_elem(GEN).mod_p(target), rho_elem(GEN).mod_p(target)) == (
        q_elem(target).mod_p(), rho_elem(target).mod_p())
    if target != GEN:
        with pytest.raises(ValueError):
            one(target).mod_p(GEN)


def test_only_canonical_terms_are_kept(monkeypatch):
    normalising = []
    substitute = scalars._substitute
    monkeypatch.setattr(scalars, "_substitute",
                        lambda *args: normalising.append(args)
                        or substitute(*args))
    # q (rho^2 - 1) / (rho (q^2 - 1)), a value of the (1, 1) table
    kept = scalars.generic_from_terms([(1, 0, -1), (1, 2, 1)],
                                      [(0, 1, -1), (2, 1, 1)])
    assert not normalising
    assert kept.rep.t == ((((1, 0), -1), ((1, 2), 1)),
                          (((0, 1), -1), ((2, 1), 1)))
    normalised = [
        ([(0, 0, 2)], [(0, 0, 4)]),                      # content 2
        ([(0, 0, 1)], [(0, 0, -1)]),                     # negative c
        ([(1, 0, 1), (1, 1, 1)], [(1, 0, 1)]),           # common q
        ([(0, 1, 1)], [(0, 1, 1)]),                      # common rho
        ([(0, 0, -1), (1, 0, 1)], [(0, 0, -1), (2, 0, 1)]),  # common q - 1
        ([(0, 0, 1), (1, 0, 1)], [(0, 0, -1), (2, 0, 1)]),   # common q + 1
        ([(1, 0, 1), (0, 0, 1)], [(0, 0, 1)]),           # unsorted
        ([(0, 0, Fraction(1, 2))], [(0, 0, 1)]),         # not an integer
        ([(-1, 0, 1)], [(0, 0, 1)]),                     # negative exponent
        ([(0, 0, 1)], [(0, 0, 1), (1, 0, 1)]),           # q + 1 below
        ([], [(0, 0, 1)]),                               # zero
    ]
    for num, den in normalised:
        del normalising[:]
        value = scalars.generic_from_terms(num, den)
        assert len(normalising) == 1, (num, den)
        assert scalars.generic_terms(value) == _ref_terms(_eager(num, den))
    # repeated terms are normalised and add up: 1 + 1 is 2, q + q + 3 is
    # 2q + 3, and rho / (2 + 2) is rho / 4
    repeated = [
        (([(0, 0, 1), (0, 0, 1)], [(0, 0, 1)]), monomial(GEN, 2)),
        (([(1, 0, 1), (1, 0, 1), (0, 0, 3)], [(0, 0, 1)]),
         monomial(GEN, 2, 1) + monomial(GEN, 3)),
        (([(0, 0, 1), (0, 0, -1)], [(0, 0, 1)]), zero(GEN)),
        (([(0, 1, 1)], [(0, 0, 2), (0, 0, 2)]),
         monomial(GEN, Fraction(1, 4), 0, 1)),
    ]
    for (num, den), want in repeated:
        del normalising[:]
        value = scalars.generic_from_terms(num, den)
        assert len(normalising) == 1, (num, den)
        assert value == want, (num, den)
        terms = scalars.generic_terms(value)
        assert scalars.generic_from_terms(*terms) == want
