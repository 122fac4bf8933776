"""Partitions, bipartitions, tableaux, the cell-label poset, coset
representatives, e-restriction, and the dominant-weight map.

Partitions are tuples of weakly decreasing positive integers; bipartitions are
pairs of partitions.  A cell label is a pair (f, (lambda1, lambda2)) with
|lambda1| = r - f and |lambda2| = s - f.  Labels are partially ordered by
"f bigger first, then componentwise dominance"; the canonical total order
(descending f, then descending lexicographic on the bipartition) refines it.
Labels, tableau pairs, coset representatives and d(t) pairs are named
tuples, compared, hashed and sorted as tuples.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
import itertools
import math

from .errors import RankTooSmall


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def is_partition(lam):
    lam = tuple(lam)
    return all(isinstance(x, int) and x > 0 for x in lam) and \
        all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def partitions(m, max_len=None):
    """All partitions of m (optionally with at most max_len parts), descending lex."""
    if m < 0:
        return []
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_len is not None and len(prefix) >= max_len:
            return
        for part in range(min(remaining, largest), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(m, m if m else 1, [])
    if m == 0:
        return [()]
    return out


def conjugate(lam):
    if not lam:
        return ()
    out = []
    for j in range(1, lam[0] + 1):
        out.append(sum(1 for x in lam if x >= j))
    return tuple(out)


def dominates(lam, mu):
    """lam >= mu in dominance order (partitions of the same size)."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of equal size")
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def removable_nodes(lam):
    """Cells (i, j), 1-based, whose removal leaves a partition."""
    out = []
    for i, part in enumerate(lam, start=1):
        nxt = lam[i] if i < len(lam) else 0
        if part > nxt:
            out.append((i, part))
    return out


def addable_nodes(lam):
    """Cells (i, j), 1-based, whose addition yields a partition."""
    out = []
    prev = None
    for i, part in enumerate(lam, start=1):
        if prev is None or part < prev:
            out.append((i, part + 1))
        prev = part
    out.append((len(lam) + 1, 1))
    return out


def residue(node):
    i, j = node
    return j - i


def hook_std_count(lam):
    """Number of standard tableaux of shape lam, by the hook-length formula."""
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    prod = 1
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            prod *= (part - j) + (conj[j - 1] - i) + 1
    val = Fraction(math.factorial(n), prod)
    assert val.denominator == 1
    return int(val)


# ---------------------------------------------------------------------------
# cell labels
# ---------------------------------------------------------------------------

class CellLabel(namedtuple("CellLabel", "f lam1 lam2")):
    """The label (f, (lam1, lam2)); the canonical total order is the
    tuple order, descending."""

    __slots__ = ()

    def __new__(cls, f, lam1, lam2):
        self = super().__new__(cls, int(f), tuple(lam1), tuple(lam2))
        if not (is_partition(self.lam1) and is_partition(self.lam2)):
            raise ValueError("label components must be partitions")
        return self

    def conjugate(self):
        return CellLabel(self.f, conjugate(self.lam1), conjugate(self.lam2))


def enumerate_labels(r, s):
    """All cell labels for (r, s), sorted by the canonical total order."""
    if r < 1 or s < 1:
        raise ValueError("enumerate_labels requires r >= 1 and s >= 1")
    out = []
    for f in range(min(r, s) + 1):
        for lam1 in partitions(r - f):
            for lam2 in partitions(s - f):
                out.append(CellLabel(f, lam1, lam2))
    out.sort(reverse=True)
    return out


def label_order(a, b):
    """Compare labels in the poset: 'gt' (a above b), 'lt', 'eq', 'incomparable'."""
    if a == b:
        return "eq"
    if a.f != b.f:
        return "gt" if a.f > b.f else "lt"
    if sum(a.lam1) != sum(b.lam1) or sum(a.lam2) != sum(b.lam2):
        return "incomparable"
    a_ge = dominates(a.lam1, b.lam1) and dominates(a.lam2, b.lam2)
    b_ge = dominates(b.lam1, a.lam1) and dominates(b.lam2, a.lam2)
    if a_ge and not b_ge:
        return "gt"
    if b_ge and not a_ge:
        return "lt"
    return "incomparable"


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------

class TableauPair(namedtuple("TableauPair", "f rows1 rows2")):
    """A pair of standard tableaux with entries shifted by f: component i has
    entry set {f+1, ..., f+|shape_i|}."""

    __slots__ = ()

    def __new__(cls, f, rows1, rows2):
        return super().__new__(cls, int(f),
                               tuple(tuple(row) for row in rows1),
                               tuple(tuple(row) for row in rows2))

    def shape(self):
        return (tuple(len(row) for row in self.rows1),
                tuple(len(row) for row in self.rows2))


def _row_fill(lam, start):
    rows = []
    k = start
    for part in lam:
        rows.append(tuple(range(k, k + part)))
        k += part
    return tuple(rows)


def _column_fill(lam, start):
    if not lam:
        return ()
    grid = [[None] * part for part in lam]
    k = start
    for j in range(lam[0]):
        for i in range(len(lam)):
            if j < lam[i]:
                grid[i][j] = k
                k += 1
    return tuple(tuple(row) for row in grid)


def initial_tableaux(lam, f):
    """(t^lambda, t_lambda): row-filled and column-filled, entries from f+1."""
    lam1, lam2 = lam
    t_row = TableauPair(f, _row_fill(lam1, f + 1), _row_fill(lam2, f + 1))
    t_col = TableauPair(f, _column_fill(lam1, f + 1), _column_fill(lam2, f + 1))
    return t_row, t_col


def _standard_tableaux_one(lam, start):
    """All standard tableaux of shape lam with entries start..start+|lam|-1."""
    n = sum(lam)
    if n == 0:
        return [()]
    out = []

    def rec(shape, filled):
        placed = sum(shape)
        if placed == 0:
            grid = [[None] * part for part in lam]
            for (i, j), v in filled.items():
                grid[i][j] = v
            out.append(tuple(tuple(row) for row in grid))
            return
        value = start + placed - 1
        for i, part in enumerate(shape):
            nxt = shape[i + 1] if i + 1 < len(shape) else 0
            if part > nxt and part > 0:
                new_shape = list(shape)
                new_shape[i] -= 1
                filled[(i, part - 1)] = value
                rec(tuple(x for x in new_shape if True), filled)
                del filled[(i, part - 1)]

    rec(tuple(lam), {})
    return out


def standard_tableaux(lam, f):
    """All TableauPairs of bipartition shape lam with the f-shifted entries."""
    lam1, lam2 = lam
    t1s = _standard_tableaux_one(lam1, f + 1)
    t2s = _standard_tableaux_one(lam2, f + 1)
    return [TableauPair(f, a, b) for a in t1s for b in t2s]


def _perm_from_tableaux(t_initial, t_target):
    """Mapping entry-of-t_initial -> entry-of-t_target, as a dict."""
    out = {}
    for row_a, row_b in zip(t_initial, t_target):
        for a, b in zip(row_a, row_b):
            out[a] = b
    return out


@lru_cache(maxsize=None)
def symmetric_group_words(m):
    """All of S_m as a dict one-line-tuple -> one reduced word.

    Words are tuples of simple-reflection indices s_i (1-based), to be read
    left to right.  Built breadth-first from the identity, so each word is
    reduced and the map is deterministic.
    """
    start = tuple(range(1, m + 1))
    out = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for perm in frontier:
            word = out[perm]
            for i in range(1, m):
                if perm[i - 1] < perm[i]:
                    swapped = (
                        perm[: i - 1] + (perm[i], perm[i - 1]) + perm[i + 1 :]
                    )
                    if swapped not in out:
                        out[swapped] = word + (i,)
                        nxt.append(swapped)
        frontier = nxt
    return out


def _d_word(perm, f, size):
    """Reduced word (adjacent-transposition indices above ``f``, applied
    left to right on values) for the permutation of {f+1, ..., f+size}
    given as a dict: the word of its inverse one-line form in the
    breadth-first table of S_size."""
    inverse = [0] * size
    for k in range(1, size + 1):
        inverse[perm[f + k] - f - 1] = k
    return [f + i for i in symmetric_group_words(size)[tuple(inverse)]]


class DPair(namedtuple("DPair", "word1 word2")):
    """The permutation pair d(t) with t^lambda . d(t) = t, as reduced words
    (lists)."""

    __slots__ = ()


def d_of(t):
    """d(t) for a TableauPair t, relative to the row-filled initial tableau."""
    shape1, shape2 = t.shape()
    t_row = TableauPair(t.f, _row_fill(shape1, t.f + 1), _row_fill(shape2, t.f + 1))
    w1 = _d_word(_perm_from_tableaux(t_row.rows1, t.rows1), t.f, sum(shape1))
    w2 = _d_word(_perm_from_tableaux(t_row.rows2, t.rows2), t.f, sum(shape2))
    return DPair(w1, w2)


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------

class CosetRep(namedtuple("CosetRep", "f i_list j_list word")):
    """Encodes s_{f,i_f} s*_{f,j_f} ... s_{1,i_1} s*_{1,j_1} with
    1 <= i_1 < ... < i_f <= r and k <= j_k <= s.

    ``word``, computed from the other three fields, lists the letters left
    to right as ("g", index) for r-side transpositions and ("gs", index)
    for s-side ones.
    """

    __slots__ = ()

    def __new__(cls, f, i_list, j_list):
        f, i_list, j_list = int(f), tuple(i_list), tuple(j_list)
        word = []
        for k in range(f, 0, -1):
            for a in range(k, i_list[k - 1]):
                word.append(("g", a))
            for b in range(k, j_list[k - 1]):
                word.append(("gs", b))
        return super().__new__(cls, f, i_list, j_list, tuple(word))


def coset_reps(r, s, f):
    """The complete list of coset representatives for the given layer."""
    if not (0 <= f <= min(r, s)):
        raise ValueError("need 0 <= f <= min(r, s)")
    out = []
    for i_list in itertools.combinations(range(1, r + 1), f):
        j_ranges = [range(k, s + 1) for k in range(1, f + 1)]
        for j_list in itertools.product(*j_ranges):
            out.append(CosetRep(f, i_list, j_list))
    return out


# ---------------------------------------------------------------------------
# e-restriction
# ---------------------------------------------------------------------------

def _one_restricted(lam, e):
    if e == math.inf:
        return True
    lam = tuple(lam) + (0,)
    return all(lam[i] - lam[i + 1] < e for i in range(len(lam) - 1))


def _one_regular(lam, e):
    if e == math.inf:
        return True
    return all(lam.count(v) < e for v in set(lam))


def e_restricted(lam, e):
    """Componentwise: lambda_i - lambda_{i+1} < e in both components."""
    return _one_restricted(lam[0], e) and _one_restricted(lam[1], e)


def e_regular(lam, e):
    """Componentwise: no part repeated e or more times in either component."""
    return _one_regular(lam[0], e) and _one_regular(lam[1], e)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def phi_map(label, n):
    """The dominant weight (lam1..., 0...0, -reversed(lam2)) of length n."""
    r = label.f + sum(label.lam1)
    s = label.f + sum(label.lam2)
    if n < r + s:
        raise RankTooSmall("phi_map requires n >= r + s = %d" % (r + s))
    k, l = len(label.lam1), len(label.lam2)
    return tuple(label.lam1) + (0,) * (n - k - l) + tuple(-x for x in reversed(label.lam2))


def cell_dimension(label, r, s):
    """dim C(f, lambda) = |Std(lambda)| * |D^f_{r,s}|."""
    std = hook_std_count(label.lam1) * hook_std_count(label.lam2)
    dcount = math.comb(r, label.f) * math.factorial(s) // math.factorial(s - label.f)
    return std * dcount
