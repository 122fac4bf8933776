"""Tests for the exact linear algebra layer."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wbq import linalg
from wbq.cli import grid_fields
from wbq.errors import DenominatorVanishes, RhoDependentDivisor
from wbq.linalg import (
    _MODP_PRIMES,
    FieldContext,
    RationalPointContext,
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
    span_coordinates,
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
    assert invert_square(ctx, []) == []
    # a zero first column needs a row swap; a zero last pivot is singular
    swap = _rows(ctx, [[0, 1], [1, 0]])
    assert invert_square(ctx, swap) == swap
    assert invert_square(ctx, _rows(ctx, [[1, 2], [0, 0]])) is None
    for ragged in (_rows(ctx, [[1, 2]]), _rows(ctx, [[1, 2], [3]])):
        with pytest.raises(ValueError, match="matrix is not square"):
            invert_square(ctx, ragged)


def _reference_invert_square(ctx, matrix):
    """Gauss-Jordan on [M | I] with the pivot searched below the diagonal,
    returning None at the first column with no pivot."""
    n = len(matrix)
    work = []
    for i, row in enumerate(matrix):
        aug = list(row) + [ctx.zero()] * n
        aug[n + i] = ctx.one()
        work.append(aug)
    for col in range(n):
        pivot = next((idx for idx in range(col, n) if work[idx][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = ctx.one() / work[col][col]
        work[col] = [inv * a for a in work[col]]
        for idx in range(n):
            c = work[idx][col]
            if idx != col and c:
                work[idx] = [a - c * b for a, b in zip(work[idx], work[col])]
    return [row[n:] for row in work]


def _reference_rref_mod_p(rows, p):
    """The reduced form mod ``p`` by Gauss-Jordan on ``Fraction``s: each
    entry and each step's exact result is replaced by its residue (as a
    ``Fraction``), and a pivot row is divided by its pivot as a
    ``Fraction`` before it is reduced.  Returns ``(pivot_cols, rows)``
    with int entries."""
    work = [[Fraction(_mod(x, p)) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        pivot = next((i for i in range(top, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[top], work[pivot] = work[pivot], work[top]
        lead = work[top][col]
        work[top] = [Fraction(_mod(a / lead, p)) for a in work[top]]
        for i, row in enumerate(work):
            c = row[col]
            if i != top and c:
                work[i] = [Fraction(_mod(a - c * b, p))
                           for a, b in zip(row, work[top])]
        pivots.append(col)
    return pivots, [[int(a) for a in row] for row in work[:len(pivots)]]


def _reference_inverse_mod_p(matrix, p):
    """The right half of ``_reference_rref_mod_p`` of ``[M | I]`` when its
    pivots are the left half's columns, else None."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    pivots, reduced = _reference_rref_mod_p(aug, p)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-4, 4),
                             st.sampled_from((1, 2, 3)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_SMALL_FRACTIONS, min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.one_of(st.none(), st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0)))),
    st.sampled_from((None, 7, 13, P)))))
def test_invert_square_matches_the_reference_elimination(case):
    entries, repeat, prime = case
    if repeat is not None and len(entries) > 1 and repeat[0] != repeat[1]:
        entries[repeat[1]] = list(entries[repeat[0]])
        singular = True
    else:
        singular = False
    ctx = RationalPointContext(2, 0, prime)
    matrix = [[ctx.from_monomial(x) for x in row] for row in entries]
    got = invert_square(ctx, matrix)
    if prime is None:
        assert got == _reference_invert_square(ctx, matrix)
    else:
        assert got == _reference_inverse_mod_p(entries, prime)
    if singular:
        assert got is None
    if got is not None:
        identity = [[ctx.one() if i == j else ctx.zero()
                     for j in range(len(matrix))] for i in range(len(matrix))]
        assert mat_mul(ctx, matrix, got) == identity


class _FractionField:
    """The rationals as a context of their own: ``rref`` eliminates over
    its ``Fraction``s the way a rational point did before the integer
    elimination, which only a ``RationalPointContext`` takes."""

    prime = None

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)


_ENTRIES = st.one_of(
    st.just(0), st.integers(-9, 9),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 5, 12))))


@st.composite
def _rational_matrices(draw, square=False):
    """Rows of ints and ``Fraction``s, wide, tall or square, with zero
    rows and combinations of earlier rows inserted anywhere."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    extra = draw(st.integers(0, min(3, nrows)))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows - extra, max_size=nrows - extra))
    for _ in range(extra):
        if rows and draw(st.booleans()):
            a, b = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            ca, cb = draw(_ENTRIES), draw(_ENTRIES)
            new = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
        else:
            new = [0] * ncols
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@settings(max_examples=300, deadline=None)
@given(_rational_matrices())
def test_integer_rref_matches_the_fraction_elimination(rows):
    point, field = RationalPointContext(2, 0), _FractionField()
    got = rref(point, rows)
    assert got == rref(field, rows)
    assert all(type(x) is Fraction for row in got[1] for x in row)
    dim = len(rows[0]) if rows else 0
    assert kernel_basis(point, rows, dim) == kernel_basis(field, rows, dim)


@settings(max_examples=200, deadline=None)
@given(_rational_matrices(square=True))
def test_integer_invert_square_matches_the_fraction_elimination(matrix):
    point, field = RationalPointContext(2, 0), _FractionField()
    got = invert_square(point, matrix)
    assert got == invert_square(field, matrix)
    if got is None:
        assert rank(field, matrix) < len(matrix)
    else:
        identity = [[int(i == j) for j in range(len(matrix))]
                    for i in range(len(matrix))]
        assert mat_mul(field, matrix, got) == identity


def test_only_a_rational_point_without_a_prime_eliminates_on_integers(
        monkeypatch):
    calls = []
    integer_rref = linalg._integer_rref

    def spy(rows):
        calls.append(rows)
        return integer_rref(rows)

    monkeypatch.setattr(linalg, "_integer_rref", spy)
    rows = [[Fraction(1, 2), 1, 0], [1, 2, Fraction(-3, 4)], [0, 0, 0]]
    want = ([0, 2], [[1, 2, 0], [0, 0, 1]])
    assert rref(RationalPointContext(3, 2), rows) == want
    assert len(calls) == 1
    assert rref(_FractionField(), rows) == want
    for ctx in (RationalPointContext(2, 0, P), _fc()):
        matrix = [[ctx.from_monomial(x) for x in row] for row in rows]
        assert rref(ctx, matrix)[0] == want[0]
    # a singular square has no inverse on either path
    singular = [[Fraction(2, 3), 4], [1, 6]]
    assert invert_square(RationalPointContext(2, 0), singular) is None
    assert invert_square(_FractionField(), singular) is None
    assert len(calls) == 2


@st.composite
def _generic_values(draw):
    """Sums of up to three monomials c * q^a * rho^b, some over q + 1:
    most have several powers of rho, so most have no inverse in the
    generic form."""
    ctx = _fc()
    value = ctx.zero()
    for _ in range(draw(st.integers(0, 3))):
        value += ctx.from_monomial(draw(st.integers(-3, 3)),
                                   draw(st.integers(-2, 2)),
                                   draw(st.integers(-1, 2)))
    if draw(st.booleans()):
        value /= ctx.from_monomial(1, 1) + ctx.one()
    return value


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda ncols: st.tuples(
    st.lists(st.integers(0, ncols - 1), min_size=1, max_size=min(ncols, 3),
             unique=True).map(sorted),
    st.lists(_generic_values(), min_size=ncols * 3, max_size=ncols * 3),
    st.integers(0, 2),
    st.lists(_generic_values(), min_size=15, max_size=15))))
def test_generic_rref_recovers_the_reduced_form_of_mixed_rows(case):
    # rows A * R, for a reduced form R and A of full column rank, reduce
    # to R: generic entries mostly have no inverse, so this runs the
    # fraction-free elimination, whose final divisions are exact
    pivots, free, extra, mixing = case
    ctx = _fc()
    k, ncols = len(pivots), len(free) // 3
    reduced = [[ctx.one() if j == pivots[i] else ctx.zero()
                if j in pivots or j < pivots[i] else free[i * ncols + j]
                for j in range(ncols)] for i in range(k)]
    a = [mixing[i * k:(i + 1) * k] for i in range(k + extra)]
    assume(modp_rank_robust(a)[0] == k)
    rows = mat_mul(ctx, a, reduced)
    assert rref(ctx, rows) == (pivots, reduced)
    assert rank(ctx, rows) == k
    assert span_coordinates(ctx, reduced, rows) == a


def test_generic_rref_raises_where_the_reduced_form_leaves_the_form():
    ctx = _fc()
    q, rho = ctx.from_monomial(1, 1), ctx.from_monomial(1, 0, 1)
    assert rref(ctx, [[rho - q, rho - q]]) == ([0], [[ctx.one()] * 2])
    assert rref(ctx, [[rho - q, q * q], [rho + q, ctx.zero()]]) == (
        [0, 1], [[ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]])
    # the reduced row [1, 1 / (rho - q)] is not a generic value
    with pytest.raises(RhoDependentDivisor):
        rref(ctx, [[rho - q, ctx.one()]])


def test_generic_rank_reads_the_pivots_where_rref_raises():
    ctx = _fc()
    q, rho = ctx.from_monomial(1, 1), ctx.from_monomial(1, 0, 1)
    one = ctx.one()
    # the reduced row [1, 1 / (rho - q)] is not a generic value, but the
    # rank needs no reduced row
    rows = [[rho - q, one]]
    assert rank(ctx, rows) == 1
    with pytest.raises(RhoDependentDivisor):
        rref(ctx, rows)
    with pytest.raises(RhoDependentDivisor):
        kernel_basis(ctx, rows, 2)
    # a second row (rho + q) times the first leaves the rank at one
    assert rank(ctx, rows + [[(rho + q) * (rho - q), rho + q]]) == 1
    assert rank(ctx, rows + [[rho + q, q]]) == 2


def test_span_coordinates_expressions():
    ctx = _fc()
    a, b, c, d, e = _rows(ctx, [[1, 2, 0], [0, 1, 1],
                                [1, 3, 1],   # a + b
                                [2, 5, 1],   # 2a + b
                                [0, 0, 1]])  # outside the span of a, b
    # a and b are independent: each is its own coordinate vector
    assert span_coordinates(ctx, [a, b], [a, b]) == [
        [ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]]
    # a basis that contains a + b is dependent
    assert span_coordinates(ctx, [a, b, c], []) is None
    assert span_coordinates(ctx, [a, b, c], [d]) is None
    assert span_coordinates(ctx, [a, b], [d]) == [
        [ctx.from_monomial(2), ctx.one()]]
    assert span_coordinates(ctx, [a, b], [e]) is None
    assert span_coordinates(ctx, [a, b], [d, e]) is None
    assert span_coordinates(ctx, [a, b], []) == []
    # the empty basis spans the zero vector only
    assert span_coordinates(ctx, [], [[ctx.zero()] * 3]) == [[]]
    assert span_coordinates(ctx, [], [a]) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.integers(k, 5).flatmap(
    lambda dim: st.tuples(
        st.lists(st.lists(_SMALL_FRACTIONS, min_size=dim, max_size=dim),
                 min_size=k, max_size=k),
        st.lists(_SMALL_FRACTIONS.filter(bool), min_size=k, max_size=k),
        st.lists(st.lists(_SMALL_FRACTIONS, min_size=k, max_size=k),
                 min_size=1, max_size=3),
        st.permutations(range(dim)),
        st.integers(k, dim),
        st.sampled_from((None, 7, P))))))
def test_span_coordinates_recovers_coefficients(case):
    raw, diagonal, coefficients, order, outside, prime = case
    k, dim = len(raw), len(raw[0])
    ctx = RationalPointContext(2, 0, prime)
    # independent by construction: on the first k coordinates the basis is
    # diagonal with a nonzero diagonal; the coordinates are then permuted
    basis = []
    for i, row in enumerate(raw):
        vec = [diagonal[i] if j == i else 0 if j < k else row[j]
               for j in range(dim)]
        basis.append([ctx.from_monomial(vec[order[j]]) for j in range(dim)])
    targets = []
    for coeffs in coefficients:
        target = [ctx.zero()] * dim
        for c, vec in zip(coeffs, basis):
            target = [x + ctx.from_monomial(c) * y
                      for x, y in zip(target, vec)]
        targets.append(target)
    want = [[ctx.from_monomial(c) for c in coeffs] for coeffs in coefficients]
    assert span_coordinates(ctx, basis, targets) == want
    # a combination of the basis added to it makes it dependent
    assert span_coordinates(ctx, basis + targets[:1], targets) is None
    if outside < dim:
        # a unit vector off the first k coordinates is outside the span
        stray = list(targets[-1])
        stray[order.index(outside)] += ctx.one()
        assert span_coordinates(ctx, basis, targets + [stray]) is None
        assert span_coordinates(ctx, basis, [stray]) is None


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
            assert ctx.from_monomial(c, qe, re) == _mod(value, p)
        two = Laurent({1: 1, -1: 1})
        assert ctx.from_laurent(two) == _mod(Fraction(10, 3), p)
        # residues are ints in range(p), and int arithmetic reduced mod p
        # is the ring map of the exact arithmetic
        x, y = ctx.from_monomial(Fraction(2, 5), 1), ctx.from_monomial(7, -2)
        assert all(type(v) is int and 0 <= v < p for v in (x, y))
        for got, want in ((x + y, Fraction(6, 5) + Fraction(7, 9)),
                          (x - y, Fraction(6, 5) - Fraction(7, 9)),
                          (x * y, Fraction(6, 5) * Fraction(7, 9)),
                          (x * pow(y, -1, p), Fraction(6, 5) / Fraction(7, 9)),
                          (-x, -Fraction(6, 5))):
            assert got % p == _mod(want, p)
        assert ctx.zero() == 0 and ctx.one() == 1 == ctx.from_monomial(1)
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


_MODP_FIELDS = tuple(FieldSpec.from_string(text) for text in (
    "generic", "qpow:3", "cyclo:4,rho=zeta^1", "cyclo:3,rho=free"))


def _residue_pivots(rows, p):
    """The pivots of the reduced form mod ``p`` of the rational rows, from
    the test-local reference elimination ``_reference_rref_mod_p``."""
    return _reference_rref_mod_p(rows, p)[0]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_MODP_FIELDS), st.integers(1, 5).flatmap(
    lambda ncols: st.lists(st.lists(
        st.one_of(st.integers(-3, 3), st.builds(
            Fraction, st.integers(-3, 3), st.sampled_from((2, 3)))),
        min_size=ncols, max_size=ncols), min_size=1, max_size=5)))
def test_modp_rank_robust_agrees_with_the_residue_rref(spec, rows):
    # the same rational matrix as constants of a field, whose ring map
    # picks the prime, and as residues mod that prime, read by modp_rank
    # with the prime named; the expected pivots come from the reference
    # elimination mod p, not from modp_rank
    field = FieldContext(spec)
    p = field.one().mod_p()[1]
    pivots = _residue_pivots(rows, p)
    matrix = [[field.from_monomial(x) for x in row] for row in rows]
    assert modp_rank_robust(matrix) == (len(pivots), pivots)
    residues = RationalPointContext(2, 0, p)
    matrix = [[residues.from_monomial(x) for x in row] for row in rows]
    assert modp_rank(matrix, p) == (len(pivots), pivots)


@st.composite
def _grid_field_rows(draw):
    """A grid field and rows over it: small combinations of up to three
    rows of sums of monomials, so that many are dependent."""
    ctx = FieldContext(draw(st.sampled_from(grid_fields())))
    ncols, nbase, nrows = (draw(st.integers(1, 4)) for _ in range(3))

    def value():
        terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2),
                                        st.integers(-2, 2)), max_size=2))
        return sum((ctx.from_monomial(*term) for term in terms), ctx.zero())

    base = [[value() for _ in range(ncols)] for _ in range(min(nbase, 3))]
    rows = []
    for _ in range(nrows):
        mix = [ctx.from_monomial(draw(st.integers(-2, 2))) for _ in base]
        rows.append([sum((c * row[j] for c, row in zip(mix, base)), ctx.zero())
                     for j in range(ncols)])
    return ctx, rows, draw(st.integers(0, nrows * ncols - 1))


def _determinant(ctx, matrix):
    """The determinant over the field, by the permutation expansion."""
    total = ctx.zero()
    for perm in itertools.permutations(range(len(matrix))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        term = ctx.from_monomial(sign)
        for row, col in zip(matrix, perm):
            term = term * row[col]
        total = total + term
    return total


@settings(max_examples=120, deadline=None)
@given(_grid_field_rows())
def test_modp_rank_robust_on_field_rows_is_a_certificate(case):
    # over the field's own ring map to Z/p: the rank is a lower bound on
    # the exact one, and some rows on the pivot columns have a minor whose
    # image is nonzero; an entry with no image certifies nothing
    ctx, rows, spot = case
    found, pivots = modp_rank_robust(rows)
    assert found == len(pivots) <= rank(ctx, rows)
    if found:
        images = [_determinant(ctx, [[rows[i][j] for j in pivots]
                                     for i in chosen]).mod_p()
                  for chosen in itertools.combinations(range(len(rows)),
                                                       found)]
        assert any(image is not None and image[0] for image in images)
    q = ctx.from_monomial(1, 1)
    no_image = ctx.one() / (q - ctx.from_monomial(q.mod_p()[0]))
    assert no_image.mod_p() is None
    bad = [list(row) for row in rows]
    bad[spot // len(rows[0])][spot % len(rows[0])] = no_image
    assert modp_rank_robust(bad) == (0, [])


# small primes, where a matrix is often singular mod p only, and the
# package's primes
_TEST_PRIMES = (7, 13) + _MODP_PRIMES


@st.composite
def _residue_cases(draw, square=False):
    """A prime and rational rows to read mod it: negative and huge ints,
    multiples of the prime, ``Fraction``s over units mod the prime, zero
    rows, and a row that is a combination of two others plus multiples of
    the prime, so singular mod p though often not over Q."""
    p = draw(st.sampled_from(_TEST_PRIMES))
    entries = st.one_of(
        st.just(0), st.integers(-20, 20), st.integers(-2 ** 70, 2 ** 70),
        st.builds(lambda k, e: k * p + e, st.integers(-3, 3),
                  st.integers(-1, 1)),
        st.builds(Fraction, st.integers(-40, 40),
                  st.sampled_from((2, 3, 5, 12))),
        st.builds(lambda k, d: Fraction(k * p, d), st.integers(-3, 3),
                  st.sampled_from((2, 3))))
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows >= 3 and draw(st.booleans()):
        i, a, b = draw(st.permutations(range(nrows)))[:3]
        ca, cb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [ca * x + cb * y + p * draw(st.integers(-1, 1))
                   for x, y in zip(rows[a], rows[b])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    return p, rows


def _elements(ctx, rows):
    return [[ctx.from_monomial(x) if isinstance(x, Fraction) else x
             for x in row] for row in rows]


def _is_residue(x, p):
    return type(x) is int and 0 <= x < p


@settings(max_examples=300, deadline=None)
@given(_residue_cases())
def test_residue_rref_matches_the_fraction_elimination_mod_p(case):
    p, rows = case
    ctx = RationalPointContext(2, 0, p)
    want = _reference_rref_mod_p(rows, p)
    # ints as they are, which rref reads mod p, and Fractions as residues
    elements = _elements(ctx, rows)
    got = rref(ctx, elements)
    assert got == want
    assert all(_is_residue(x, p) for row in got[1] for x in row)
    assert rref(ctx, [[_mod(x, p) for x in row] for row in rows]) == want
    assert rank(ctx, elements) == len(want[0])
    ncols = len(rows[0]) if rows else 0
    for vec in kernel_basis(ctx, elements, ncols):
        assert all(_is_residue(x, p) for x in vec)
        assert not any(sum(a * x for a, x in zip(row, vec)) % p
                       for row in elements)


@settings(max_examples=300, deadline=None)
@given(_residue_cases(square=True))
def test_residue_invert_square_matches_the_fraction_elimination_mod_p(case):
    p, matrix = case
    ctx = RationalPointContext(2, 0, p)
    got = invert_square(ctx, _elements(ctx, matrix))
    assert got == _reference_inverse_mod_p(matrix, p)
    if got is not None:
        n = len(matrix)
        residues = [[_mod(x, p) for x in row] for row in matrix]
        assert all(_is_residue(x, p) for row in got for x in row)
        assert mat_mul(ctx, residues, got) == [
            [int(i == j) for j in range(n)] for i in range(n)]


def _dense_mat_mul(ctx, a, b):
    """The product by the textbook triple loop over every entry, each
    entry reduced at the end at a residue context."""
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = []
        for j in range(ncols):
            acc = ctx.zero()
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            orow.append(acc % ctx.prime if ctx.prime else acc)
        out.append(orow)
    return out


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.integers(0, 4), st.integers(0, 4),
       st.integers(1, 4), st.data())
def test_row_sparse_mat_mul_matches_the_dense_product(generic, m, k, n, data):
    if generic:
        ctx = _fc()
        entries = st.one_of(st.just(ctx.zero()), _generic_values())
    else:
        p = data.draw(st.sampled_from(_TEST_PRIMES))
        ctx = RationalPointContext(2, 0, p)
        entries = st.one_of(st.just(0), st.integers(1, p - 1))
    a = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                           min_size=m, max_size=m))
    b = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=k, max_size=k))
    # a zero row of a and a zero column of b
    if m:
        a[data.draw(st.integers(0, m - 1))] = [ctx.zero()] * k
    col = data.draw(st.integers(0, n - 1))
    for row in b:
        row[col] = ctx.zero()
    got = mat_mul(ctx, a, b)
    assert got == _dense_mat_mul(ctx, a, b)
    if not generic:
        assert all(_is_residue(x, ctx.prime) for row in got for x in row)


class _Counted:
    """An int that counts its truth tests and refuses to be multiplied
    when either factor is zero."""

    def __init__(self, value):
        self.value = value
        self.tests = 0

    def __bool__(self):
        self.tests += 1
        return self.value != 0

    def __mul__(self, other):
        assert self.value and other.value, "a product with a zero factor"
        return self.value * other.value


def test_mat_mul_tests_each_entry_once_and_skips_zero_factors():
    values_a = [[0, 2, 0], [0, 0, 0], [1, 0, 3]]
    values_b = [[5, 0], [0, 0], [7, 1]]
    a = [[_Counted(v) for v in row] for row in values_a]
    b = [[_Counted(v) for v in row] for row in values_b]
    got = mat_mul(RationalPointContext(2, 0), a, b)
    assert got == _dense_mat_mul(_FractionField(), values_a, values_b)
    assert all(x.tests == 1 for m in (a, b) for row in m for x in row)


def _unit_denominators(den):
    return all(den % p for p in _MODP_PRIMES)


# ints up to 2^70 in size, multiples of each prime and Fractions whose
# denominators are units mod every prime
_MODULAR_ENTRIES = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70),
    st.builds(lambda p, k: p * k, st.sampled_from(_MODP_PRIMES),
              st.integers(-3, 3)),
    st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40),
              st.integers(1, 2 ** 40).filter(_unit_denominators)))


@st.composite
def _modular_matrices(draw):
    """Tall, wide and square matrices, with zero rows and rows that are
    integer combinations of others, in a drawn order."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_MODULAR_ENTRIES, min_size=ncols,
                                  max_size=ncols), min_size=1, max_size=6))
    base = list(rows)
    for coeffs in draw(st.lists(st.lists(
            st.integers(-2, 2), min_size=len(base), max_size=len(base)),
            max_size=3)):
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base))
                     for j in range(ncols)])
    return [rows[k] for k in draw(st.permutations(range(len(rows))))]


@settings(max_examples=300, deadline=None)
@given(_modular_matrices())
def test_modp_rank_matches_the_residue_rref_at_every_prime(rows):
    # an exact reference mod p: no Hadamard bound is needed
    for p in _MODP_PRIMES:
        pivots = _residue_pivots(rows, p)
        assert modp_rank(rows, p) == (len(pivots), pivots), p


@settings(max_examples=150, deadline=None)
@given(_modular_matrices(), st.data())
def test_modp_rank_raises_on_a_read_denominator_that_p_divides(rows, data):
    # a column is read while the columns before it have rank below the
    # row count; a read entry with p in its denominator raises, and an
    # unread one leaves the answer that of the rows without it
    p = data.draw(st.sampled_from(_MODP_PRIMES))
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    numerator = data.draw(st.integers(1, 1000)) * data.draw(
        st.sampled_from((1, -1)))
    bad = [list(row) for row in rows]
    bad[i][j] = Fraction(numerator, p * data.draw(st.integers(1, 3)))
    if len(_residue_pivots([row[:j] for row in rows], p)) < len(rows):
        with pytest.raises(ValueError):
            modp_rank(bad, p)
    else:
        pivots = _residue_pivots(rows, p)
        assert modp_rank(bad, p) == (len(pivots), pivots)


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
