import functools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wbq import engine, scalars
from wbq.scalars import (
    FieldSpec, INFINITY, Scalar, delta, evaluate, flip, from_fraction,
    monomial, one, parse_scalar, q_elem, quantum_characteristic,
    quantum_factorial, quantum_integer, rho_elem, specialize, to_text, zero,
)
from wbq.errors import DenominatorVanishes, IntegralityViolation

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
        for _ in range(rng.randint(1, 2)):
            y = y + monomial(spec, rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-1, 1))
        if y:
            x = x / y
    return x


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
            if a:
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
        assert specialize(from_fraction(Fraction(-7, 2), GEN), t) == from_fraction(Fraction(-7, 2), t)
        assert specialize(delta(GEN), t) == delta(t)


def test_specialize_denominator_vanishes():
    x = one(GEN) / (rho_elem(GEN) - q_elem(GEN))
    for target in (FieldSpec.qpower(1), FieldSpec.cyclotomic(4, 1)):
        hit = False
        try:
            specialize(x, target)
        except DenominatorVanishes:
            hit = True
        assert hit, target
    # but the same element specializes fine when rho != q
    assert specialize(x, FieldSpec.qpower(2))


def test_quantum_factorial_nonzero_iff_small():
    specs = [FieldSpec.generic(), FieldSpec.qpower(1), FieldSpec.cyclotomic(4, 0),
             FieldSpec.cyclotomic(3, 0), FieldSpec.cyclotomic(6, 1),
             FieldSpec.cyclotomic(7, 0), FieldSpec.cyclotomic(12, 3)]
    for spec in specs:
        e = quantum_characteristic(spec)
        for ell in range(0, 11):
            nonzero = bool(quantum_factorial(ell, spec))
            assert nonzero == (ell < e or ell <= 1)


def test_flip_is_field_automorphism():
    rng = random.Random(5)
    for spec in SAMPLE_SPECS:
        for _ in range(5):
            a = random_scalar(spec, rng)
            b = random_scalar(spec, rng)
            assert flip(a + b) == flip(a) + flip(b)
            assert flip(a * b) == flip(a) * flip(b)
            assert flip(flip(a)) == a
        assert flip(q_elem(spec)) == monomial(spec, 1, -1, 0)
        assert flip(rho_elem(spec)) == monomial(spec, 1, 0, -1)


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


def _reference_specialize(x, target):
    """The term-by-term image: every numerator and denominator term goes
    through ``monomial`` and a field addition, then one division."""
    def side(poly):
        out = zero(target)
        for mono, coeff in poly.terms():
            c = Fraction(int(coeff.numerator), int(coeff.denominator))
            rhoexp = mono[1] if x.spec.kind == "generic" else 0
            out = out + monomial(target, c, mono[0], rhoexp)
        return out

    den = side(x.rep.denom)
    if not den:
        raise DenominatorVanishes("denominator vanishes under %s"
                                  % target.to_string())
    return side(x.rep.numer) / den


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


def test_specialize_from_qpow_to_roots_of_unity():
    values = list(_bundled(2, 1)._iter_values())
    for a in range(-2, 5):
        source = FieldSpec.qpower(a)
        images = [specialize(x, source) for x in values]
        for m in (3, 4):
            target = FieldSpec.cyclotomic(m, a % m)
            _assert_matches_reference(images, [target])
            for x, y in zip(values, images):
                assert specialize(y, target) == specialize(x, target)


def test_specialize_rejects_incompatible_fields():
    x = specialize(delta(GEN), FieldSpec.qpower(2))
    for target in (FieldSpec.qpower(3), FieldSpec.generic(),
                   FieldSpec.cyclotomic(4, 1), FieldSpec.cyclotomic(4, "free")):
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
    den = [(A + 2 * i, 0, c * engine._binomial(K, i) * (-1) ** (K - i))
           for i in range(K + 1)]
    return scalars.generic_from_terms(num, den)


@settings(max_examples=60, deadline=None)
@given(_table_shaped_values(), _table_shaped_values(), st.sampled_from(GRID))
def test_specialize_is_a_ring_homomorphism(x, y, target):
    fx, fy = specialize(x, target), specialize(y, target)
    assert specialize(x + y, target) == fx + fy
    assert specialize(x * y, target) == fx * fy


def _reference_flip(x):
    """The term-by-term flip that ``flip`` replaced: every term of each side
    goes to its flipped monomial (over Q(zeta)(rho), a conjugated
    coefficient times a power of rho) through one field addition, then
    one division."""
    spec = x.spec
    if spec.rho_kind == "power":
        return Scalar(spec, x.rep.galois(-1))
    if spec.kind == "cyclo":
        def side(coeffs):
            out = zero(spec)
            for i, c in enumerate(coeffs):
                if c:
                    conj = Scalar(spec, scalars.CycloFrac.from_cyclo(spec.m, c.galois(-1)))
                    out = out + conj * monomial(spec, 1, 0, -i)
            return out

        return side(x.rep.num) / side(x.rep.den)

    def side(poly):
        out = zero(spec)
        for mono, coeff in poly.terms():
            c = Fraction(int(coeff.numerator), int(coeff.denominator))
            out = out + monomial(spec, c, -mono[0], -sum(mono[1:]))
        return out

    return side(x.rep.numer) / side(x.rep.denom)


def test_flip_matches_the_term_by_term_reference_on_bundled_tables():
    for shape in ((1, 1), (2, 1)):
        values = list(_bundled(*shape)._iter_values())
        for target in [GEN] + GRID:
            for x in values:
                y = x if target == GEN else specialize(x, target)
                assert flip(y) == _reference_flip(y), (target, to_text(y))


_POINTS = [Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-5, 3)]


@settings(max_examples=60, deadline=None)
@given(_table_shaped_values(), _table_shaped_values(), st.sampled_from(_POINTS),
       st.integers(-2, 4))
def test_evaluate_is_the_value_at_the_point(x, y, t, a):
    assert evaluate(x + y, t, a) == evaluate(x, t, a) + evaluate(y, t, a)
    assert evaluate(x * y, t, a) == evaluate(x, t, a) * evaluate(y, t, a)
    assert evaluate(specialize(x, FieldSpec.qpower(a)), t) == evaluate(x, t, a)
    assert evaluate(flip(x), t, a) == evaluate(x, 1 / t, a)


def test_evaluate_raises_where_the_denominator_vanishes():
    x = one(GEN) / (q_elem(GEN) - from_fraction(2, GEN))
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

    def scale(self, fr):
        return _RefCycloNum(self.m, [x * Fraction(fr) for x in self.c])

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
@given(_cyclo_pairs(), st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.integers(0, 99), st.integers(0, 99))
def test_cyclonum_matches_the_fraction_reference(case, fr, pick_j, pick_k):
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
    assert _agrees(a.scale(fr), ra.scale(fr))
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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GRID + SAMPLE_SPECS), _table_shaped_values(),
       _table_shaped_values(), _laurents())
def test_serialization_round_trip(spec, x, y, laurent):
    x, y = specialize(x, spec), specialize(y, spec)
    lowered = Scalar.from_laurent(spec, laurent)
    # dividing by a lowered value gives denominators of any shape
    for value in (x, lowered, x * y, x / lowered if lowered else y):
        text = to_text(value)
        back = parse_scalar(text, spec)
        assert back == value, (text, to_text(back))
        assert to_text(back) == text
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
