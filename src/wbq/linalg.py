"""Exact linear algebra over pluggable coefficient domains.

A *context* constructs the elements of one coefficient domain: its zero,
its one, the monomials c * q^a * rho^b and the values of ``Laurent``
polynomials in q; its ``prime`` is None unless its elements are residues.
Three domains are used throughout the package: elements of a
``FieldSpec`` field (``FieldContext``, whose elements are ``Scalar``),
plain rational numbers obtained by evaluating ``q`` and ``rho`` at a
rational point (``RationalPointContext``, whose elements are
``Fraction``), and the residues of those rational values modulo a large
prime (``RationalPointContext`` with a ``prime``).  A ``Scalar`` or a
``Fraction`` carries its own arithmetic (``+ - * /``, unary minus, ``==``,
and truthiness for "nonzero"), and neither context reads how it is
stored.  A residue is a plain Python int in ``range(prime)``: code that
combines residues adds and multiplies them as ints and reduces once per
result entry, not once per operation.  That happens where a result is
written: ``mat_mul``, ``mat_vec``, ``rref`` and ``kernel_basis`` here,
``CoordinateSystem._solve`` and ``WordAction`` (``letter`` and
``element``) in their modules, and the tensor kernel's lowering step
(``tensor._lower``); ``modp_rank`` reduces what it reads.  ``rref`` is
the one exact elimination, with deterministic pivot choices, so all
outputs are reproducible: a rational point without a prime eliminates on
Python ints, fraction-free (``_integer_rref``), and returns
``Fraction``s; a residue context runs Gauss-Jordan on ints mod its prime
(``_modp_rref``); a field eliminates over its own elements.  ``rank``
(from the pivots alone), ``kernel_basis``, ``invert_square`` (of
``[M | I]``), ``span_coordinates`` (of ``[basis | targets]``) and
``certified_kernel`` read it.  Every routine is exact over its context.
Some results are modular and hold over Q, or the field, only behind a
check: ``modp_rank`` (an elimination on Python ints mod a large prime)
and ``independent_mod_p`` (``modp_rank`` of residues mod the prime its
caller names, or of a field matrix through the ring map
``Scalar.mod_p``) certify a lower bound on a rank, and ``lagrange_poly``
interpolates residues, whose rational lift the caller must verify.

Vectors are dense Python lists of context elements; matrices are lists of
such rows.
"""

import functools
import math
import operator
from fractions import Fraction

from . import scalars
from .errors import (
    DenominatorVanishes, RankCertificationFailed, RhoDependentDivisor,
)


def _as_ratio(value):
    """Return (numerator, denominator) ints for a rational-like value."""
    if isinstance(value, int):
        return value, 1
    return int(value.numerator), int(value.denominator)


class FieldContext:
    """Constructs ``Scalar`` elements of a fixed ``FieldSpec``; the
    elements carry their own arithmetic.  Values are immutable, so the
    zero and the one are built once per context and shared.  Its
    ``prime`` is None: its elements are not residues."""

    __slots__ = ("spec", "_zero", "_one")
    prime = None

    def __init__(self, spec):
        self.spec = spec
        self._zero = scalars.zero(spec)
        self._one = scalars.one(spec)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_monomial(self, c, qexp=0, rhoexp=0):
        return scalars.monomial(self.spec, c, qexp, rhoexp)

    def from_laurent(self, x):
        """The value in this field of a ``Laurent`` polynomial in q."""
        return scalars.Scalar.from_laurent(self.spec, x)


class RationalPointContext:
    """Constructs the values at ``q = t`` and ``rho = t**rho_exp``: exact
    ``Fraction``s, or with ``prime`` their residues mod that prime, as
    Python ints in ``range(prime)``.  A ``Fraction`` carries its own
    arithmetic; residues are combined as plain ints, and the routine that
    writes a result reduces it (see the module docstring).

    ``t`` must be a nonzero rational with ``t**2 != 1`` so that every
    admissible denominator stays invertible; with a prime, the numerator
    and denominator of ``t`` and ``t**2 - 1`` must also be units mod the
    prime, otherwise ``DenominatorVanishes`` is raised.
    """

    __slots__ = ("qval", "rhoexp", "prime", "_zero", "_one", "_qpowers")

    def __init__(self, t, rho_exp, prime=None):
        num, den = _as_ratio(Fraction(t) if not isinstance(t, int) else t)
        self.qval = Fraction(num, den)
        if self.qval == 0 or self.qval * self.qval == 1:
            raise ValueError("evaluation point must satisfy t != 0, t^2 != 1")
        if prime is not None and \
                num * den * (num * num - den * den) % prime == 0:
            raise DenominatorVanishes(
                "t or t^2 - 1 is not invertible mod %d at t = %s"
                % (prime, self.qval))
        self.rhoexp = int(rho_exp)
        self.prime = prime
        self._zero = self._element(0)
        self._one = self._element(1)
        self._qpowers = {}

    def _element(self, value):
        """An int or Fraction as an element: itself, or its residue."""
        p = self.prime
        if p is None:
            return Fraction(value)
        num, den = _as_ratio(value)
        return num * pow(den, -1, p) % p

    def _qpow(self, k):
        val = self._qpowers.get(k)
        if val is None:
            val = self._qpowers[k] = self._element(self.qval ** k)
        return val

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_monomial(self, c, qexp=0, rhoexp=0):
        value = self._element(c) * self._qpow(qexp + self.rhoexp * rhoexp)
        return value if self.prime is None else value % self.prime

    def from_laurent(self, x):
        """The value at this point of a ``Laurent`` polynomial in q."""
        return self._element(x(self.qval))


def rref(ctx, rows):
    """Reduced row echelon form.

    Returns ``(pivot_cols, reduced_rows)`` where the reduced rows are
    nonzero, have leading entry one, and pivot columns are cleared in all
    other rows.  The input rows are not modified.  At a rational point
    without a prime the rows may hold ints and ``Fraction``s, which are
    eliminated on integers (``_integer_rref``); the reduced rows are
    ``Fraction``s.  A residue context runs Gauss-Jordan on ints mod its
    prime (``_modp_rref``).  A field eliminates over its own elements.

    A pivot with an inverse scales its row to one, and the other rows
    subtract multiples of it.  A generic value has an inverse only when its
    numerator has one power of rho (``scalars.QRhoFrac``).  Any other pivot
    ``pv`` turns every other row ``y`` into ``(pv * y - y[col] * pivot_row)
    / prev``, ``prev`` the pivot before it (Bareiss, *Sylvester's identity
    and multistep integer-preserving Gaussian elimination*, Math. Comp. 22,
    1968).  Each row is then a unit times a minor of the input, so every
    such division is exact and stays in the generic form.  Each row whose
    pivot is not one is divided by it at the end; where an entry of the
    reduced form has a denominator with two powers of rho, that division
    raises ``RhoDependentDivisor``.  On a field every pivot has an inverse,
    and the elimination is plain Gauss-Jordan.
    """
    one = ctx.one()
    pivot_cols, reduced = _eliminate(ctx, rows)
    return pivot_cols, [row if row[col] == one else
                        [a / row[col] if a else a for a in row]
                        for row, col in zip(reduced, pivot_cols)]


def _eliminate(ctx, rows):
    """The pivot columns and rows of ``rref``, before each row whose pivot
    is not one is divided by it."""
    if isinstance(ctx, RationalPointContext):
        if ctx.prime is None:
            return _integer_rref(rows)
        return _modp_rref(rows, ctx.prime)
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    one = ctx.one()
    prev = None  # the last pivot, None where it was scaled to one
    pivot_cols = []
    reduced = []
    for col in range(ncols):
        pivot = None
        for idx, row in enumerate(work):
            if row[col]:
                pivot = idx
                break
        if pivot is None:
            continue
        row = work.pop(pivot)
        pv = row[col]
        try:
            inv = one / pv
        except RhoDependentDivisor:
            pass
        else:
            row = [inv * a for a in row]
            pv = None
        for others in (work, reduced):
            for idx, other in enumerate(others):
                c = other[col]
                if pv is None and prev is None:
                    if c:
                        for j in range(col, ncols):
                            other[j] -= c * row[j]
                    continue
                if pv is not None:
                    other = [pv * a if a else a for a in other]
                if c:
                    other = [a - c * b for a, b in zip(other, row)]
                if prev is not None:
                    other = [a / prev if a else a for a in other]
                others[idx] = other
        reduced.append(row)
        pivot_cols.append(col)
        prev = pv
        work = [r for r in work if any(r)]
    return pivot_cols, reduced


def _modp_rref(rows, p):
    """``rref`` mod the prime ``p`` by Gauss-Jordan on Python ints, read
    mod p: each pivot row is scaled by its pivot's inverse, and every other
    row subtracts a multiple of it, reduced once per entry.  A pivot row is
    zero before its pivot column, so only the entries from that column on
    change."""
    work = [[x % p for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivot_cols, reduced = [], []
    for col in range(ncols):
        pivot = next((idx for idx, row in enumerate(work) if row[col]), None)
        if pivot is None:
            continue
        row = work.pop(pivot)
        inv = pow(row[col], -1, p)
        tail = [a * inv % p for a in row[col:]]
        row[col:] = tail
        for others in (work, reduced):
            for other in others:
                c = other[col]
                if c:
                    other[col:] = [(a - c * b) % p
                                   for a, b in zip(other[col:], tail)]
        reduced.append(row)
        pivot_cols.append(col)
        work = [r for r in work if any(r)]
    return pivot_cols, reduced


def _primitive(row):
    """The integer row divided by the gcd of its entries (a zero row as
    it is)."""
    g = math.gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def _integer_rref(rows):
    """``rref`` of rational rows by fraction-free Gauss-Jordan.

    Each row is scaled by the lcm of its denominators, which leaves the
    row space unchanged.  A pivot row with pivot ``pv`` clears its column
    from every other row ``y`` as ``pv * y - y[col] * pivot_row``, and each
    new row is divided by its content, so all arithmetic is on primitive
    integer rows.  Each pivot row is divided by its pivot into
    ``Fraction``s only at the end.  The reduced form of a row space is
    unique, so pivots and rows are those of the elimination over
    ``Fraction``s, entry for entry.
    """
    work = []
    for row in rows:
        scale = math.lcm(*{x.denominator for x in row})
        work.append([x.numerator * (scale // x.denominator) for x in row])
    ncols = len(work[0]) if work else 0
    work = [_primitive(row) for row in work if any(row)]
    pivot_cols = []
    reduced = []
    for col in range(ncols):
        pivot = next((idx for idx, row in enumerate(work) if row[col]), None)
        if pivot is None:
            continue
        prow = work.pop(pivot)
        pv = prow[col]
        for others in (work, reduced):
            for idx, other in enumerate(others):
                c = other[col]
                if c:
                    others[idx] = _primitive(
                        [pv * a - c * b for a, b in zip(other, prow)])
        reduced.append(prow)
        pivot_cols.append(col)
        work = [row for row in work if any(row)]
    zero = Fraction(0)
    return pivot_cols, [[Fraction(a, row[col]) if a else zero for a in row]
                        for row, col in zip(reduced, pivot_cols)]


def rank(ctx, rows):
    """The number of pivots of ``rref``, counted before its last division
    by each pivot: a generic matrix has a rank even where its reduced form
    leaves the generic form."""
    return len(_eliminate(ctx, rows)[0])


def kernel_basis(ctx, rows, dim):
    """Reduced-echelon basis of ``{v : M v = 0}`` for the rows of ``M``.

    Basis vectors are indexed by the free columns in increasing order; the
    vector for free column ``f`` has entry one at ``f`` and zeros at every
    other free column, which makes the output canonical.
    """
    return echelon_kernel(ctx, *rref(ctx, rows), dim)


def echelon_kernel(ctx, pivot_cols, reduced, dim):
    """``kernel_basis`` of the rows whose ``rref`` is ``(pivot_cols,
    reduced)``, by back-substitution; ``reduced`` is read only when some
    column is free."""
    pivot_set = set(pivot_cols)
    prime = ctx.prime
    basis = []
    for free in range(dim):
        if free in pivot_set:
            continue
        vec = [ctx.zero()] * dim
        vec[free] = ctx.one()
        for prow, pcol in zip(reduced, pivot_cols):
            if prow[free]:
                vec[pcol] = prime - prow[free] if prime else -prow[free]
        basis.append(vec)
    return basis


def invert_square(ctx, matrix):
    """Inverse of a square matrix, or None when the matrix is singular: the
    right half of the ``rref`` of ``[matrix | I]`` when its pivots are the
    left half's columns."""
    n = len(matrix)
    zero = ctx.zero()
    aug = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        aug.append(list(row) + [zero] * n)
        aug[i][n + i] = ctx.one()
    pivots, reduced = rref(ctx, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def span_coordinates(ctx, basis, targets):
    """The coordinates of each target over the vectors ``basis``, from one
    ``rref`` of the columns ``[basis | targets]``: one list per target,
    with one entry per basis vector.  None when the basis is dependent or
    some target lies outside its span."""
    nbasis = len(basis)
    pivots, reduced = rref(ctx, list(zip(*basis, *targets)))
    if pivots != list(range(nbasis)):
        return None
    return [[row[nbasis + k] for row in reduced] for k in range(len(targets))]


def mat_mul(ctx, a, b):
    """The product ``a b``, row-sparse: each entry of ``a`` and ``b`` is
    tested for zero once.  Each row of the product sums, over the nonzero
    entries of a row of ``a``, their multiples of the matching rows of
    ``b``, read as lists of their nonzero entries; at a residue context
    each entry of the product is reduced once."""
    ncols = len(b[0]) if b else 0
    sparse = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    zero = ctx.zero()
    prime = ctx.prime
    out = []
    for row in a:
        acc = [zero] * ncols
        for x, entries in zip(row, sparse):
            if x:
                for j, y in entries:
                    acc[j] += x * y
        out.append([v % prime for v in acc] if prime else acc)
    return out


def mat_vec(ctx, mat, vec):
    """``mat`` times the column ``vec``, summing over the nonzero entries
    of ``vec`` only; at a residue context each entry is reduced once."""
    support = [(k, x) for k, x in enumerate(vec) if x]
    prime = ctx.prime
    out = []
    for row in mat:
        acc = ctx.zero()
        for k, x in support:
            if row[k]:
                acc += row[k] * x
        out.append(acc % prime if prime else acc)
    return out


_MODP_PRIMES = (2147483647, 2147483629, 2147483587)


def modp_rank(rows, prime=None):
    """Rank and pivot columns of a rational matrix modulo a large prime.

    Returns ``(rank, pivot_columns)``; the pivots are the greedy first
    independent columns mod p, in increasing order.  This is a one-sided
    certificate: the modular rank never exceeds the true rank, and some
    ``rank`` rows on the pivot columns form a minor that is nonzero mod p,
    hence over Q.  Entries may be ints or Fractions; only the nonzero ones
    are reduced, with one modular inverse per distinct denominator.  A
    denominator divisible by the prime raises ValueError so the caller can
    retry with the next prime in ``_MODP_PRIMES``.  The elimination runs on
    Python ints, column by column, and stops reading columns once the rank
    equals the row count.
    """
    p = _MODP_PRIMES[0] if prime is None else int(prime)
    inverses = {}

    def residue(x):
        if type(x) is int:
            return x % p
        inv = inverses.get(x.denominator)
        if inv is None:  # ValueError when p divides the denominator
            inv = inverses[x.denominator] = pow(x.denominator, -1, p)
        return x.numerator * inv % p

    # basis column k is one on row leads[k] and zero on the other leading
    # rows; rest[i] holds the entries of every basis column on row i
    leads, pivots = [], []
    rest = {i: [] for i in range(len(rows))}
    for col, column in enumerate(zip(*rows)):
        if not rest:
            break
        if not any(column):
            continue
        vec = [residue(x) if x else 0 for x in column]
        coords = [vec[i] for i in leads]
        left = {}
        for i, entries in rest.items():
            x = (vec[i] - sum(map(operator.mul, entries, coords))) % p
            if x:
                left[i] = x
        if not left:
            continue
        lead = min(left)
        inv = pow(left.pop(lead), -1, p)
        lead_entries = rest.pop(lead)
        for i, entries in rest.items():
            w = left.get(i, 0) * inv % p
            if w:
                entries[:] = [(a - w * b) % p
                              for a, b in zip(entries, lead_entries)]
            entries.append(w)
        leads.append(lead)
        pivots.append(col)
    return len(pivots), pivots


def independent_mod_p(rows, prime=None):
    """True when the columns of ``rows`` are independent mod p: the
    ``modp_rank`` of residues mod ``prime`` as they are, or without a
    prime of ``Scalar``s of one field through the ring map
    ``Scalar.mod_p``, over that map's prime.  A one-sided certificate, like
    ``modp_rank``'s: a ring map takes the maximal minors to those of the
    images, so one nonzero mod p proves full column rank over the field.
    False, also where an entry has no image, proves nothing."""
    if not rows or not rows[0]:
        return True
    if prime is None:
        images = [[x.mod_p() for x in row] for row in rows]
        if any(None in row for row in images):
            return False
        prime = images[0][0][1]
        rows = [[v for v, _ in row] for row in images]
    return modp_rank(rows, prime)[0] == len(rows[0])


def modp_rank_robust(rows):
    """modp_rank's ``(rank, pivot_columns)``, retrying across the prime
    list on bad denominators."""
    last = None
    for p in _MODP_PRIMES:
        try:
            return modp_rank(rows, p)
        except ValueError as exc:
            last = exc
    raise last


def certified_kernel(ctx, rows, pivots):
    """``kernel_basis`` of the equations ``sum_a v[a] * rows[a][j] = 0``,
    solved on the columns ``pivots`` of ``modp_rank(rows)`` only.

    ``ctx`` is a rational point without a prime, and the rows hold its
    values, ints (as ``repthy._rows_at`` gives them) or ``Fraction``s.
    Those equations are independent mod p, hence over Q, so their kernel
    contains the full one.  Every basis vector, times the lcm of its
    denominators, is checked exactly against every column, over the
    nonzero entries, in ints when the rows are ints; a miss raises
    ``RankCertificationFailed``.  The two kernels are then one subspace,
    so the canonical basis (of ``Fraction``s) is that of all the columns,
    entry for entry.
    """
    equations = [[row[j] for row in rows] for j in pivots]
    kernel = kernel_basis(ctx, equations, len(rows))
    for vec in kernel:
        scale = math.lcm(*{x.denominator for x in vec})
        total = {}
        for coeff, row in zip(vec, rows):
            if coeff:
                coeff = coeff.numerator * (scale // coeff.denominator)
                for j, x in enumerate(row):
                    if x:
                        total[j] = total.get(j, 0) + coeff * x
        if any(total.values()):
            raise RankCertificationFailed(
                "a kernel vector of the pivot equations misses an equation")
    return kernel


# ---------------------------------------------------------------------------
# interpolation mod p
#
# Polynomials are dense lists of residues in 0..p-1 (ints), ascending in
# degree, with trailing zeros trimmed.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _lagrange_basis(xs, p):
    """The Lagrange basis on the nodes ``xs`` (residues mod ``p``).

    Returns one tuple per node: the ascending coefficients of
    prod_{j != i} (x - x_j) / (x_i - x_j) mod p.  Raises
    ``DenominatorVanishes`` when two nodes agree mod p.
    """
    if len(set(xs)) != len(xs):
        raise DenominatorVanishes("interpolation nodes agree mod %d" % p)
    full = [1]
    for x in xs:
        # full *= (x - node)
        full = [(a - x * b) % p for a, b in zip([0] + full, full + [0])]
    rows = []
    for x in xs:
        # synthetic division of full by (x - node), from the top
        quot = [0] * (len(full) - 1)
        carry = 0
        for k in range(len(full) - 1, 0, -1):
            carry = (full[k] + x * carry) % p
            quot[k - 1] = carry
        scale = pow(math.prod(x - other for other in xs if other != x), -1, p)
        rows.append(tuple(c * scale % p for c in quot))
    return tuple(rows)


def lagrange_poly(xs, ys, p):
    """Coefficients mod the prime ``p`` (ascending degree, trailing zeros
    trimmed) of the unique polynomial of degree < len(xs) through the
    points (xs[i], ys[i]); nodes and values are ints, read mod p.

    The basis of ``_lagrange_basis`` is cached per node tuple and prime,
    so calls that share their nodes build it once; each coefficient is
    then one integer dot product with the values, reduced once.
    """
    if len(ys) != len(xs):
        raise ValueError("point/value length mismatch")
    rows = _lagrange_basis(tuple(x % p for x in xs), p)
    coeffs = [sum(map(operator.mul, ys, column)) % p for column in zip(*rows)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs, x, p):
    """The value mod ``p`` of the polynomial ``coeffs`` at ``x``."""
    total = 0
    for c in reversed(coeffs):
        total = (total * x + c) % p
    return total
