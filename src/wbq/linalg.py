"""Exact linear algebra over pluggable coefficient domains.

A *context* constructs the elements of one coefficient domain: its zero,
its one, the monomials c * q^a * rho^b and the values of ``Laurent``
polynomials in q.  The elements carry their own arithmetic (``+ - * /``,
unary minus, ``==``, and truthiness for "nonzero").  Three domains are
used throughout the package: elements of a ``FieldSpec`` field
(``FieldContext``, whose elements are ``Scalar``), plain rational numbers
obtained by evaluating ``q`` and ``rho`` at a rational point
(``RationalPointContext``, whose elements are ``Fraction``), and the
residues of those rational values modulo a large prime
(``RationalPointContext`` with a ``prime``).  Neither reads how a scalar
is stored.  The routines are Gaussian elimination with deterministic pivot
choices, so all outputs are reproducible.  Every one is exact over its
context.  Two kinds of result are modular and hold over Q only behind a
check: ``modp_rank`` eliminates a rational matrix modulo a large prime and
so certifies a lower bound on its rank, and ``lagrange_poly`` interpolates
residues, whose rational lift the caller must verify.

Vectors are dense Python lists of context elements; matrices are lists of
such rows.
"""

import functools
import math
import operator
from fractions import Fraction

from . import scalars
from .errors import DenominatorVanishes, RankCertificationFailed


def _as_ratio(value):
    """Return (numerator, denominator) ints for a rational-like value."""
    if isinstance(value, int):
        return value, 1
    return int(value.numerator), int(value.denominator)


class FieldContext:
    """Constructs ``Scalar`` elements of a fixed ``FieldSpec``; the
    elements carry their own arithmetic.  Values are immutable, so the
    zero and the one are built once per context and shared."""

    __slots__ = ("spec", "_zero", "_one")

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


_new = object.__new__


class _Residue:
    """An element of Z/p: a value in 0..p-1 and its prime p."""

    __slots__ = ("v", "p")

    def __add__(self, other):
        out = _new(_Residue)
        out.p = p = self.p
        out.v = (self.v + other.v) % p
        return out

    def __sub__(self, other):
        out = _new(_Residue)
        out.p = p = self.p
        out.v = (self.v - other.v) % p
        return out

    def __mul__(self, other):
        out = _new(_Residue)
        out.p = p = self.p
        out.v = self.v * other.v % p
        return out

    def __truediv__(self, other):
        if not other.v:
            raise ZeroDivisionError("division by a residue that is zero")
        out = _new(_Residue)
        out.p = p = self.p
        out.v = self.v * pow(other.v, -1, p) % p
        return out

    def __neg__(self):
        out = _new(_Residue)
        out.p = p = self.p
        out.v = -self.v % p
        return out

    def __eq__(self, other):
        if not isinstance(other, _Residue):
            return NotImplemented
        return self.v == other.v and self.p == other.p

    def __bool__(self):
        return self.v != 0

    def __int__(self):
        return self.v


class RationalPointContext:
    """Constructs the values at ``q = t`` and ``rho = t**rho_exp``: exact
    ``Fraction``s, or with ``prime`` their residues mod that prime.  The
    elements carry their own arithmetic.

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
        if self.prime is None:
            return Fraction(value)
        num, den = _as_ratio(value)
        out = _new(_Residue)
        out.p = p = self.prime
        out.v = num * pow(den, -1, p) % p
        return out

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
        return self._element(c) * self._qpow(qexp + self.rhoexp * rhoexp)

    def from_laurent(self, x):
        """The value at this point of a ``Laurent`` polynomial in q."""
        return self._element(x(self.qval))


def rref(ctx, rows):
    """Reduced row echelon form.

    Returns ``(pivot_cols, reduced_rows)`` where the reduced rows are
    nonzero, have leading entry one, and pivot columns are cleared in all
    other rows.  The input rows are not modified.
    """
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
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
        inv = ctx.one() / row[col]
        row = [inv * a for a in row]
        for other in work:
            c = other[col]
            if c:
                for j in range(col, ncols):
                    other[j] -= c * row[j]
        for other in reduced:
            c = other[col]
            if c:
                for j in range(col, ncols):
                    other[j] -= c * row[j]
        reduced.append(row)
        pivot_cols.append(col)
        work = [r for r in work if any(r)]
    return pivot_cols, reduced


def rank(ctx, rows):
    return len(rref(ctx, rows)[0])


def kernel_basis(ctx, rows, dim):
    """Reduced-echelon basis of ``{v : M v = 0}`` for the rows of ``M``.

    Basis vectors are indexed by the free columns in increasing order; the
    vector for free column ``f`` has entry one at ``f`` and zeros at every
    other free column, which makes the output canonical.
    """
    pivot_cols, reduced = rref(ctx, rows)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(dim):
        if free in pivot_set:
            continue
        vec = [ctx.zero()] * dim
        vec[free] = ctx.one()
        for prow, pcol in zip(reduced, pivot_cols):
            if prow[free]:
                vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def invert_square(ctx, matrix):
    """Inverse of a square matrix, or None when the matrix is singular."""
    n = len(matrix)
    zero = ctx.zero()
    one = ctx.one()
    work = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        aug = list(row) + [zero] * n
        aug[n + i] = one
        work.append(aug)
    for col in range(n):
        pivot = None
        for idx in range(col, n):
            if work[idx][col]:
                pivot = idx
                break
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = one / work[col][col]
        work[col] = [inv * a for a in work[col]]
        for idx in range(n):
            if idx == col:
                continue
            c = work[idx][col]
            if c:
                work[idx] = [a - c * b for a, b in zip(work[idx], work[col])]
    return [row[n:] for row in work]


def mat_mul(ctx, a, b):
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = ctx.zero()
            for x, y in zip(row, col):
                if x and y:
                    acc += x * y
            orow.append(acc)
        out.append(orow)
    return out


def mat_vec(ctx, mat, vec):
    """``mat`` times the column ``vec``, summing over the nonzero entries
    of ``vec`` only."""
    support = [(k, x) for k, x in enumerate(vec) if x]
    out = []
    for row in mat:
        acc = ctx.zero()
        for k, x in support:
            if row[k]:
                acc += row[k] * x
        out.append(acc)
    return out


class SpanTracker:
    """Incremental reduced echelon with expressions over inserted vectors.

    Each accepted vector is remembered, and any later vector inside the
    span can be written exactly as a combination of the accepted ones.
    """

    __slots__ = ("ctx", "dim", "rows", "pivots", "exprs", "count")

    def __init__(self, ctx, dim):
        self.ctx = ctx
        self.dim = dim
        self.rows = []
        self.pivots = []
        self.exprs = []
        self.count = 0

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        ctx = self.ctx
        vec = list(vec)
        combo = {}
        for row, pivot, expr in zip(self.rows, self.pivots, self.exprs):
            c = vec[pivot]
            if not c:
                continue
            for j in range(self.dim):
                if row[j]:
                    vec[j] -= c * row[j]
            for k, e in expr.items():
                combo[k] = combo.get(k, ctx.zero()) + c * e
        return vec, combo

    def insert(self, vec):
        """Insert a raw vector; returns True when it enlarged the span."""
        ctx = self.ctx
        index = self.count
        self.count += 1
        residual, combo = self._reduce(vec)
        pivot = None
        for j in range(self.dim):
            if residual[j]:
                pivot = j
                break
        if pivot is None:
            return False
        expr = {index: ctx.one()}
        for k, e in combo.items():
            if e:
                expr[k] = -e
        inv = ctx.one() / residual[pivot]
        residual = [inv * a for a in residual]
        expr = {k: inv * e for k, e in expr.items()}
        for row, rexpr in zip(self.rows, self.exprs):
            c = row[pivot]
            if not c:
                continue
            for j in range(self.dim):
                if residual[j]:
                    row[j] -= c * residual[j]
            for k, e in expr.items():
                rexpr[k] = rexpr.get(k, ctx.zero()) - c * e
        self.rows.append(residual)
        self.pivots.append(pivot)
        self.exprs.append(expr)
        return True

    def express(self, vec):
        """Coefficients over inserted vectors, or None if outside the span.

        Returns a dict mapping insertion index (0-based, counting every
        ``insert`` call whether or not it enlarged the span) to a nonzero
        coefficient.
        """
        residual, combo = self._reduce(vec)
        if any(residual):
            return None
        return {k: e for k, e in combo.items() if e}


_MODP_PRIMES = (2147483647, 2147483629, 2147483587)


def modp_rank(rows, prime=None):
    """Rank and pivot columns of a rational matrix modulo a large prime
    (numpy elimination).

    Returns ``(rank, pivot_columns)``; the pivots are the greedy first
    independent columns mod p, in increasing order.  This is a one-sided
    certificate: the modular rank never exceeds the true rank, and the
    rows restricted to the pivot columns form a square that is nonsingular
    mod p, hence over Q.  Entries may be ints or Fractions.  Only the
    nonzero entries are reduced, with one modular inverse per distinct
    denominator; a denominator divisible by the prime raises ValueError so
    the caller can retry with the next prime in ``_MODP_PRIMES``.
    """
    import numpy

    if not rows:
        return 0, []
    p = int(prime) if prime is not None else _MODP_PRIMES[0]
    mat = numpy.zeros((len(rows), len(rows[0])), dtype=numpy.int64)
    inverses = {}
    for i, row in enumerate(rows):
        cols = [j for j, val in enumerate(row) if val]
        residues = []
        for j in cols:
            num, den = _as_ratio(row[j])
            inv = inverses.get(den)
            if inv is None:
                if den % p == 0:
                    raise ValueError("prime divides a denominator")
                inv = inverses[den] = pow(den, p - 2, p)
            residues.append(num % p * inv % p)
        mat[i, cols] = residues
    nrows, ncols = mat.shape
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = numpy.nonzero(mat[r:, col])[0]
        if nz.size == 0:
            continue
        pivots.append(col)
        pivot = r + int(nz[0])
        if pivot != r:
            mat[[r, pivot]] = mat[[pivot, r]]
        inv = pow(int(mat[r, col]), p - 2, p)
        mat[r, col:] = (mat[r, col:] * inv) % p
        below = mat[r + 1 :, col]
        nzmask = below != 0
        if nzmask.any():
            factors = below[nzmask].reshape(-1, 1)
            block = mat[r + 1 :, col:][nzmask]
            mat[r + 1 :, col:][nzmask] = (block - factors * mat[r, col:]) % p
        r += 1
    return r, pivots


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

    Those equations are independent mod p, hence over Q, so their kernel
    contains the full one.  Every basis vector is checked exactly against
    every column, over the nonzero entries; a miss raises
    ``RankCertificationFailed``.  The two kernels are then one subspace, so
    the canonical basis is that of all the columns, entry for entry.
    """
    equations = [[row[j] for row in rows] for j in pivots]
    kernel = kernel_basis(ctx, equations, len(rows))
    zero = ctx.zero()
    for vec in kernel:
        total = {}
        for coeff, row in zip(vec, rows):
            if coeff:
                for j, x in enumerate(row):
                    if x:
                        total[j] = total.get(j, zero) + coeff * x
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
