"""Tests for the exact linear algebra layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbq.errors import DenominatorVanishes
from wbq.linalg import (
    _MODP_PRIMES,
    FieldContext,
    RationalPointContext,
    SpanTracker,
    certified_kernel,
    invert_square,
    kernel_basis,
    lagrange_poly,
    mat_mul,
    modp_rank,
    modp_rank_robust,
    poly_eval,
    rank,
    rref,
)
from wbq.scalars import FieldSpec, Laurent


def _fc():
    return FieldContext(FieldSpec.generic())


def _rows(ctx, data):
    return [[ctx.from_monomial(Fraction(x)) for x in row] for row in data]


def test_rref_and_rank():
    ctx = _fc()
    rows = _rows(ctx, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    pivots, reduced = rref(ctx, rows)
    assert pivots == [0, 1]
    assert rank(ctx, rows) == 2
    # pivot columns reduced to identity pattern
    for k, (row, col) in enumerate(zip(reduced, pivots)):
        assert row[col] == ctx.one()
        for other in range(len(reduced)):
            if other != k:
                assert not reduced[other][col]
    # a q-dependent matrix: [[q, 1], [q^2, q]] has rank 1
    q = ctx.from_monomial(1, 1)
    rows2 = [[q, ctx.one()], [q * q, q]]
    assert rank(ctx, rows2) == 1


def test_kernel_basis_is_canonical():
    ctx = _fc()
    rows = _rows(ctx, [[1, 1, 0, 2], [0, 0, 1, 3]])
    basis = kernel_basis(ctx, rows, 4)
    assert len(basis) == 2
    # free columns are 1 and 3; each basis vector has a one there and a
    # zero at the other free column
    v1, v3 = basis
    assert v1[1] == ctx.one() and not v1[3]
    assert v3[3] == ctx.one() and not v3[1]
    for vec in basis:
        for row in rows:
            acc = ctx.zero()
            for a, b in zip(row, vec):
                acc += a * b
            assert not acc


def test_invert_square():
    ctx = _fc()
    q = ctx.from_monomial(1, 1)
    mat = [[q, ctx.one()], [ctx.zero(), q]]
    inv = invert_square(ctx, mat)
    prod = mat_mul(ctx, mat, inv)
    assert prod[0][0] == ctx.one() and prod[1][1] == ctx.one()
    assert not prod[0][1] and not prod[1][0]
    singular = _rows(ctx, [[1, 2], [2, 4]])
    assert invert_square(ctx, singular) is None


def test_span_tracker_expressions():
    ctx = _fc()
    tracker = SpanTracker(ctx, 3)
    a = _rows(ctx, [[1, 2, 0]])[0]
    b = _rows(ctx, [[0, 1, 1]])[0]
    c = _rows(ctx, [[1, 3, 1]])[0]  # a + b
    assert tracker.insert(a) is True
    assert tracker.insert(b) is True
    assert tracker.insert(c) is False
    combo = tracker.express(_rows(ctx, [[2, 5, 1]])[0])  # 2a + b
    assert combo is not None
    assert combo[0] == ctx.from_monomial(2)
    assert combo[1] == ctx.one()
    assert 2 not in combo
    outside = tracker.express(_rows(ctx, [[0, 0, 1]])[0])
    assert outside is None
    assert tracker.rank == 2


def test_rational_point_context():
    ctx = RationalPointContext(3, 2)  # q = 3, rho = 9
    assert ctx.from_monomial(1, 1, 0) == ctx.from_monomial(3)
    assert ctx.from_monomial(1, 0, 1) == ctx.from_monomial(9)
    assert ctx.from_monomial(2, -1, 1) == ctx.from_monomial(6)
    # evaluating a Laurent polynomial: [2] = q + q^{-1} -> 10/3 at q = 3
    assert ctx.from_laurent(Laurent({1: 1, -1: 1})) == ctx.from_monomial(
        Fraction(10, 3))
    bad = 0
    for t in (0, 1, -1):
        try:
            RationalPointContext(t, 2)
        except ValueError:
            bad += 1
    assert bad == 3


def test_rational_point_context_mod_p_reduces_the_exact_values():
    exact = RationalPointContext(3, 2)
    for p in _MODP_PRIMES:
        ctx = RationalPointContext(3, 2, p)
        for c, qe, re in ((1, 1, 0), (Fraction(-5, 7), -3, 1), (4, 2, -2)):
            value = exact.from_monomial(c, qe, re)
            assert int(ctx.from_monomial(c, qe, re)) == _mod(value, p)
        two = Laurent({1: 1, -1: 1})
        assert int(ctx.from_laurent(two)) == _mod(Fraction(10, 3), p)
        x, y = ctx.from_monomial(Fraction(2, 5), 1), ctx.from_monomial(7, -2)
        for got, want in ((x + y, Fraction(6, 5) + Fraction(7, 9)),
                          (x - y, Fraction(6, 5) - Fraction(7, 9)),
                          (x * y, Fraction(6, 5) * Fraction(7, 9)),
                          (x / y, Fraction(6, 5) / Fraction(7, 9)),
                          (-x, -Fraction(6, 5))):
            assert int(got) == _mod(want, p)
        assert not ctx.zero() and ctx.one() == ctx.from_monomial(1)
        with pytest.raises(ZeroDivisionError):
            ctx.one() / ctx.zero()
    # t is admissible over Q but t, 1/t, t - 1 or t + 1 vanishes mod p
    for t in (P, Fraction(3, P), P + 1, P - 1, 2 * P + 1):
        with pytest.raises(DenominatorVanishes):
            RationalPointContext(t, 2, P)


def test_contexts_share_their_zero_and_one():
    for ctx in (_fc(), FieldContext(FieldSpec.from_string("cyclo:5")),
                RationalPointContext(3, 2), RationalPointContext(3, 2, P)):
        assert ctx.zero() is ctx.zero() and not ctx.zero()
        assert ctx.one() is ctx.one() and ctx.one() == ctx.from_monomial(1)


def test_modp_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert modp_rank(rows) == (2, [0, 1])
    rows_frac = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
    assert modp_rank_robust(rows_frac) == (2, [0, 1])
    rank_one = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert modp_rank_robust(rank_one) == (1, [0])
    assert modp_rank([[0, 0], [0, 0]]) == (0, [])
    assert modp_rank([]) == (0, [])
    # a leading zero column is skipped, a later dependent one too
    assert modp_rank([[0, 1, 2, 5], [0, 2, 4, 1]]) == (2, [1, 3])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
    min_size=1, max_size=6)))
def test_modp_rank_matches_exact_rref(rows):
    # Hadamard: every minor of at most 6 rows with |a| <= 9 is below
    # 9^6 * 6^3 < 2^31 - 1, so no minor vanishes mod p unless it is zero
    pivots, _ = rref(RationalPointContext(2, 0), rows)
    assert modp_rank(rows) == (len(pivots), pivots)


_NUMERATORS = st.one_of(st.just(0), st.integers(-9, 9))
_DENOMINATORS = st.sampled_from((1, 2, 3, 6))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda ncols: st.tuples(
    st.lists(st.lists(st.tuples(_NUMERATORS, _DENOMINATORS),
                      min_size=ncols, max_size=ncols),
             min_size=1, max_size=4),
    st.one_of(st.none(), _DENOMINATORS))))
def test_modp_rank_matches_exact_rref_on_fractions(case):
    # entries a/b with |a| <= 9 and b | 6, over one shared denominator or
    # a denominator per entry.  Scaling each row by 6, a unit mod p, keeps
    # the rank and the pivots and makes the entries integers of size at
    # most 54; by Hadamard every minor of at most 4 rows is then below
    # (54 * 2)^4 < 2^31 - 1, so no nonzero minor vanishes mod p
    entries, shared = case
    rows = [[Fraction(a, shared or b) for a, b in row] for row in entries]
    pivots, _ = rref(RationalPointContext(2, 0), rows)
    assert modp_rank(rows) == (len(pivots), pivots)
    assert modp_rank_robust(rows) == (len(pivots), pivots)


def test_modp_rank_moves_past_a_prime_that_divides_a_denominator():
    p0, p1 = _MODP_PRIMES[:2]
    # the bad denominator comes after a zero and after entries whose
    # denominators have inverses already
    rows = [[Fraction(1, 2), 0, Fraction(3, 2), Fraction(5, 2 * p0)],
            [0, Fraction(1, 3), Fraction(1, 2), 1],
            [1, 0, 3, Fraction(5, p0) + 1]]
    for _ in range(2):
        with pytest.raises(ValueError):
            modp_rank(rows, p0)
        with pytest.raises(ValueError):
            modp_rank(rows)
    pivots, _ = rref(RationalPointContext(2, 0), rows)
    assert pivots == [0, 1, 3]
    assert modp_rank(rows, p1) == (3, pivots)
    assert modp_rank_robust(rows) == (3, pivots)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
    min_size=1, max_size=5)))
def test_certified_kernel_matches_the_kernel_of_every_column(rows):
    ctx = RationalPointContext(2, 0)
    columns = [list(col) for col in zip(*rows) if any(col)]
    want = kernel_basis(ctx, columns, len(rows))
    assert certified_kernel(ctx, rows, modp_rank(rows)[1]) == want


def _reference_lagrange_poly(xs, ys):
    """The O(n^3) routine the cached integer basis replaced: every basis
    polynomial rebuilt in Fraction arithmetic on every call."""
    npts = len(xs)
    if len(ys) != npts:
        raise ValueError("point/value length mismatch")
    coeffs = [Fraction(0)] * npts
    for i in range(npts):
        basis = [Fraction(1)]
        denom = 1
        for j in range(npts):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xs[j] * basis[k + 1]
            denom = denom * (xs[i] - xs[j])
        scale = ys[i] / denom
        if scale:
            for k in range(len(basis)):
                if basis[k]:
                    coeffs[k] += scale * basis[k]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


P = _MODP_PRIMES[0]


def _mod(x, p=P):
    """The residue of a rational mod p."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _reduced(coeffs, p=P):
    """Rational coefficients reduced mod p, trailing zeros trimmed."""
    out = [_mod(c, p) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def test_lagrange_poly_matches_the_reference_routine():
    rng = random.Random(20140330)
    cases = []
    for _ in range(300):
        npts = rng.randint(0, 12)
        pool = set()
        while len(pool) < npts:
            pool.add(Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 7))))
        xs = rng.sample(sorted(pool), npts)
        ys = [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
              if rng.random() < 0.7 else Fraction(0) for _ in xs]
        cases.append((xs, ys))
    # the table build's node sets: powers t^n of one q-point, and the
    # q-points 2, 3, ... themselves, with values scaled by x^depth
    for t in (2, 3, 7):
        xs = [Fraction(t) ** n for n in range(3, 12)]
        ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) * x ** 4
              for x in xs]
        cases.append((xs, ys))
    cases.append(([Fraction(t) for t in range(2, 32)],
                  [Fraction(rng.randint(-99, 99), 3 ** rng.randint(0, 6))
                   for _ in range(30)]))
    for xs, ys in cases:
        want = _reference_lagrange_poly(xs, ys)
        for p in _MODP_PRIMES:
            residues = [_mod(y, p) for y in ys]
            assert lagrange_poly([_mod(x, p) for x in xs], residues, p) \
                == _reduced(want, p)
        # integer nodes are read mod p
        if all(x.denominator == 1 for x in xs):
            assert lagrange_poly([int(x) for x in xs],
                                 [_mod(y) for y in ys], P) == _reduced(want)


_NODES = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
_VALUES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_NODES, max_size=10, unique_by=Fraction).flatmap(
    lambda xs: st.tuples(st.just(xs),
                         st.lists(_VALUES, min_size=len(xs),
                                  max_size=len(xs)),
                         st.sampled_from(_MODP_PRIMES))))
def test_lagrange_poly_interpolates(case):
    # the modular routine is the reference routine reduced mod p: the
    # nodes differ by less than p, so they stay distinct mod p
    xs, ys, p = case
    nodes = [_mod(x, p) for x in xs]
    values = [_mod(y, p) for y in ys]
    coeffs = lagrange_poly(nodes, values, p)
    assert all(isinstance(c, int) and 0 <= c < p for c in coeffs)
    assert len(coeffs) <= len(xs)
    if not any(values):
        assert coeffs == []
    else:
        assert coeffs[-1] != 0
    for x, y in zip(nodes, values):
        assert poly_eval(coeffs, x, p) == y
    assert coeffs == _reduced(
        _reference_lagrange_poly([Fraction(x) for x in xs], ys), p)
    with pytest.raises(ValueError):
        lagrange_poly(nodes, values + [1], p)
    if xs:
        with pytest.raises(ValueError):
            lagrange_poly(nodes, values[:-1], p)


def test_lagrange_poly_trims_trailing_zeros():
    # y = 2x - 1 sampled at four nodes has degree 1, not 3
    xs = [_mod(x) for x in (-3, 0, Fraction(1, 2), 5)]
    assert lagrange_poly(xs, [(2 * x - 1) % P for x in xs], P) == [P - 1, 2]
    assert lagrange_poly(xs, [0] * 4, P) == []
    assert lagrange_poly([], [], P) == []
    # nodes that agree mod p, as integers or not
    for nodes in ([1, 2, 1], [1, 2, 1 + P]):
        with pytest.raises(DenominatorVanishes):
            lagrange_poly(nodes, [1, 2, 3], P)


def test_lagrange_poly_results_do_not_alias_the_cached_basis():
    xs = [pow(2, n, P) for n in range(3, 8)]
    ys = [1, P - 2, 0, _mod(Fraction(5, 3)), 7]
    expected = _reduced(_reference_lagrange_poly(
        [Fraction(2) ** n for n in range(3, 8)],
        [Fraction(1), Fraction(-2), Fraction(0), Fraction(5, 3),
         Fraction(7)]))
    first = lagrange_poly(xs, ys, P)
    assert first == expected
    first[0] += 1000
    first.append(3)
    second = lagrange_poly(xs, ys, P)
    assert second == expected
    second.clear()
    assert lagrange_poly(tuple(xs), tuple(ys), P) == expected
