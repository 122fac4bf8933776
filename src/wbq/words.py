"""Formal words in the algebra generators.

A *letter* is one of::

    ("e",)        the contraction generator e_1
    ("g", i)      the left braid generator g_i,        1 <= i <= r-1
    ("gi", i)     its inverse g_i^{-1}
    ("gs", j)     the right braid generator g*_j,      1 <= j <= s-1
    ("gsi", j)    its inverse (g*_j)^{-1}

A *word* is a tuple of letters, read left to right as a product.  A
``WordElement`` is a formal linear combination of words whose coefficients
are integer Laurent monomial sums ``sum c * q^a * rho^b``; this is exactly
the coefficient shape produced by symmetrizers, coset representatives and
the defining relations, and it lets the same element be evaluated over any
coefficient field or at any numeric point.
"""

from collections import namedtuple
from fractions import Fraction

from . import linalg
from .combinat import (
    cell_dimension,
    coset_reps,
    d_of,
    enumerate_labels,
    initial_tableaux,
    standard_tableaux,
    symmetric_group_words,
)

E1 = ("e",)

class WordElement:
    """Formal linear combination of generator words.

    ``terms`` maps each word to a dict ``{(qexp, rhoexp): coeff}`` with
    nonzero Fraction coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def unit(cls, c=1, qexp=0, rhoexp=0):
        return cls.from_word((), c, qexp, rhoexp)

    @classmethod
    def from_word(cls, word, c=1, qexp=0, rhoexp=0):
        c = Fraction(c)
        if c == 0:
            return cls()
        return cls({tuple(word): {(qexp, rhoexp): c}})

    @staticmethod
    def _merge(target, word, exps, c):
        bucket = target.setdefault(word, {})
        new = bucket.get(exps, Fraction(0)) + c
        if new == 0:
            bucket.pop(exps, None)
            if not bucket:
                target.pop(word, None)
        else:
            bucket[exps] = new

    def __add__(self, other):
        out = {w: dict(b) for w, b in self.terms.items()}
        for word, bucket in other.terms.items():
            for exps, c in bucket.items():
                self._merge(out, word, exps, c)
        return WordElement(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c, qexp=0, rhoexp=0):
        c = Fraction(c)
        if c == 0:
            return WordElement()
        out = {}
        for word, bucket in self.terms.items():
            nb = {}
            for (a, b), coeff in bucket.items():
                nb[(a + qexp, b + rhoexp)] = coeff * c
            out[word] = nb
        return WordElement(out)

    def __mul__(self, other):
        out = {}
        for w1, b1 in self.terms.items():
            for w2, b2 in other.terms.items():
                word = w1 + w2
                for (a1, r1), c1 in b1.items():
                    for (a2, r2), c2 in b2.items():
                        self._merge(out, word, (a1 + a2, r1 + r2), c1 * c2)
        return WordElement(out)

    def monomials(self):
        """Iterate over (word, coeff, qexp, rhoexp) monomial terms."""
        for word, bucket in sorted(self.terms.items()):
            for (a, b), c in sorted(bucket.items()):
                yield word, c, a, b

    def __eq__(self, other):
        return isinstance(other, WordElement) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        parts = []
        for word, c, a, b in self.monomials():
            parts.append("%s*q^%d*rho^%d*%s" % (c, a, b, list(word) or 1))
        return " + ".join(parts) if parts else "0"


class WordAction:
    """Matrices of right multiplication by word elements on a free module.

    ``source(letter)`` gives the matrix of a positive letter (``e``, ``g``
    or ``gs``).  Every matrix uses the column convention: entry ``[c][a]``
    is the coefficient of basis vector ``c`` in ``(basis vector a) * x``,
    so the matrix of ``x * y`` is ``M(y) M(x)``.  An inverse letter comes
    from the quadratic relation g^2 = (q - q^{-1}) g + 1 as
    ``M(g^{-1}) = M(g) - (q - q^{-1}) I``.  Every source, the tensor space
    included, acts in this one convention, and coefficients are read in
    ``ctx`` as written.  Word matrices are memoised by prefix.  At a
    residue context every entry that ``letter`` and ``element`` write is
    reduced once.
    """

    def __init__(self, ctx, dim, source):
        self.ctx = ctx
        self.dim = dim
        self._source = source
        self._shift = ctx.from_monomial(1, 1, 0) - ctx.from_monomial(1, -1, 0)
        self._letters = {}
        self._words = {(): None}

    def letter(self, letter):
        """Matrix of one letter, inverse letters included."""
        mat = self._letters.get(letter)
        if mat is None:
            if letter[0] in ("gi", "gsi"):
                base = self.letter((letter[0][:-1], letter[1]))
                mat = [[x - self._shift if a == c else x
                        for a, x in enumerate(row)]
                       for c, row in enumerate(base)]
            else:
                mat = self._source(letter)
            prime = self.ctx.prime
            if prime:
                mat = [[x % prime for x in row] for row in mat]
            self._letters[letter] = mat
        return mat

    def _word(self, word):
        if word in self._words:
            return self._words[word]
        prefix = self._word(word[:-1])
        last = self.letter(word[-1])
        mat = last if prefix is None else linalg.mat_mul(self.ctx, last, prefix)
        self._words[word] = mat
        return mat

    def element(self, element):
        """Matrix of a word element, its coefficients read in ``ctx``."""
        ctx = self.ctx
        total = [[ctx.zero()] * self.dim for _ in range(self.dim)]
        for word, c, qe, re in element.monomials():
            coeff = ctx.from_monomial(c, qe, re)
            mat = self._word(word)
            if mat is None:
                for i in range(self.dim):
                    total[i][i] += coeff
                continue
            for row, trow in zip(mat, total):
                for j, x in enumerate(row):
                    if x:
                        trow[j] += coeff * x
        prime = ctx.prime
        if prime:
            total = [[x % prime for x in row] for row in total]
        return total


def _component_symmetrizer(lam, offset, kind, sign):
    """Symmetrizer of the Young subgroup of one partition component.

    ``offset`` shifts simple-reflection indices; ``kind`` chooses the letter
    family ("g" or "gs"); ``sign`` chooses the alternating version
    (coefficients (-q)^{-l(w)}) versus the symmetric one (q^{l(w)}).
    """
    elem = WordElement.unit()
    base = 0
    for row_len in lam:
        table = symmetric_group_words(row_len)
        block = WordElement.zero()
        for perm in sorted(table):
            word = table[perm]
            length = len(word)
            letters = tuple((kind, offset + base + i) for i in word)
            if sign:
                block = block + WordElement.from_word(
                    letters, (-1) ** length, -length, 0
                )
            else:
                block = block + WordElement.from_word(letters, 1, length, 0)
        elem = elem * block
        base += row_len
    return elem


def young_symmetrizer(pair, f, sign):
    """Bipartition symmetrizer n_lambda (sign=True) or m_lambda (False).

    The first component uses letters g_{f+i}, the second g*_{f+j}, matching
    the embedding of the two braid subalgebras above the first ``f``
    contracted strands.
    """
    lam1, lam2 = pair
    left = _component_symmetrizer(lam1, f, "g", sign)
    right = _component_symmetrizer(lam2, f, "gs", sign)
    return left * right


def d_letters(tab):
    """Word for the permutation pair d(t) of a standard bipartition tableau."""
    pair = d_of(tab)
    return tuple(("g", i) for i in pair.word1) + tuple(
        ("gs", j) for j in pair.word2
    )


def e_ij_letters(i, j):
    """Word of the shifted contraction e_{i,j}."""
    if i < 1 or j < 1:
        raise ValueError("contraction indices start at 1")
    left_inv = tuple(("gi", k) for k in range(i - 1, 0, -1))
    right_chain = tuple(("gs", k) for k in range(j - 1, 0, -1))
    left_chain = tuple(("g", k) for k in range(1, i))
    right_inv = tuple(("gsi", k) for k in range(1, j))
    return left_inv + right_chain + (E1,) + left_chain + right_inv


def e_power_letters(f):
    """Word of e_1 e_2 ... e_f (empty for f = 0)."""
    out = ()
    for k in range(1, f + 1):
        out = out + e_ij_letters(k, k)
    return out


def cell_index_set(label, r, s):
    """Ordered index set I(f, lambda): standard tableaux times coset reps."""
    tabs = standard_tableaux((label.lam1, label.lam2), label.f)
    reps = coset_reps(r, s, label.f)
    return [(t, d) for t in tabs for d in reps]


def initial_cell_index(label, r, s):
    """The distinguished index (row-filled tableau, identity coset rep)."""
    t_row, _ = initial_tableaux((label.lam1, label.lam2), label.f)
    for rep in coset_reps(r, s, label.f):
        if not rep.word:
            return (t_row, rep)
    raise RuntimeError("identity coset representative missing")


def cell_basis_element(label, left, right):
    """Word element of the basis vector with row index ``left`` and column
    index ``right`` in the cell layer of ``label``.

    ``left`` and ``right`` are pairs (standard tableau, coset rep).  The
    element is sigma(g_e) e^f sigma(g_{d(s)}) n_lambda g_{d(t)} g_d.
    """
    s_tab, e_rep = left
    t_tab, d_rep = right
    f = label.f
    elem = WordElement.from_word(tuple(reversed(e_rep.word)))
    elem = elem * WordElement.from_word(e_power_letters(f))
    elem = elem * WordElement.from_word(tuple(reversed(d_letters(s_tab))))
    elem = elem * young_symmetrizer((label.lam1, label.lam2), f, sign=True)
    elem = elem * WordElement.from_word(d_letters(t_tab))
    elem = elem * WordElement.from_word(d_rep.word)
    return elem


class BasisRecord(namedtuple("BasisRecord", "label left right element")):
    """One global basis element: its label, row/column indices, and word."""

    __slots__ = ()


def cell_basis(r, s):
    """The full ordered basis as a list of ``BasisRecord``.

    Labels run in the canonical order (descending number of contractions,
    then descending lexicographic shape); within a label the row index
    varies slower than the column index.  The total length is (r+s)!.
    """
    records = []
    for label in enumerate_labels(r, s):
        index_set = cell_index_set(label, r, s)
        dim = cell_dimension(label, r, s)
        if dim != len(index_set):
            raise RuntimeError("index set size mismatch at %r" % (label,))
        for left in index_set:
            for right in index_set:
                records.append(
                    BasisRecord(
                        label,
                        left,
                        right,
                        cell_basis_element(label, left, right),
                    )
                )
    return records


def presentation_relations(r, s):
    """The defining relations as pairs of equal word elements.

    Returns a list of (name, lhs, rhs).  The quadratic contraction relation
    is stated in the cleared form (q - q^{-1}) e^2 = (rho - rho^{-1}) e so
    that every coefficient stays a Laurent monomial.
    """
    W = WordElement.from_word
    rels = []

    def hecke_family(kind, count):
        for i in range(1, count):
            quad = W((((kind, i),)), 1, 1, 0) + W(
                (((kind, i),)), -1, -1, 0
            ) + WordElement.unit()
            rels.append(
                ("%s%d_quadratic" % (kind, i), W(((kind, i), (kind, i))), quad)
            )
            rels.append(
                (
                    "%s%d_inverse" % (kind, i),
                    W(((kind, i), (kind + "i", i))),
                    WordElement.unit(),
                )
            )
            rels.append(
                (
                    "%s%d_inverse_left" % (kind, i),
                    W((((kind + "i"), i), (kind, i))),
                    WordElement.unit(),
                )
            )
        for i in range(1, count - 1):
            rels.append(
                (
                    "%s%d_braid" % (kind, i),
                    W(((kind, i), (kind, i + 1), (kind, i))),
                    W(((kind, i + 1), (kind, i), (kind, i + 1))),
                )
            )
        for i in range(1, count):
            for j in range(i + 2, count):
                rels.append(
                    (
                        "%s_far_%d_%d" % (kind, i, j),
                        W(((kind, i), (kind, j))),
                        W(((kind, j), (kind, i))),
                    )
                )

    hecke_family("g", r)
    hecke_family("gs", s)
    for i in range(1, r):
        for j in range(1, s):
            rels.append(
                (
                    "mixed_%d_%d" % (i, j),
                    W((("g", i), ("gs", j))),
                    W((("gs", j), ("g", i))),
                )
            )
    for i in range(2, r):
        rels.append(("e_commutes_g%d" % i, W((("g", i), E1)), W((E1, ("g", i)))))
    for j in range(2, s):
        rels.append(
            ("e_commutes_gs%d" % j, W((("gs", j), E1)), W((E1, ("gs", j))))
        )
    if r >= 2:
        rels.append(
            ("e_g1_e", W((E1, ("g", 1), E1)), W((E1,), 1, 0, 1))
        )
    if s >= 2:
        rels.append(
            ("e_gs1_e", W((E1, ("gs", 1), E1)), W((E1,), 1, 0, 1))
        )
    esq = W((E1, E1), 1, 1, 0) + W((E1, E1), -1, -1, 0)
    edelta = W((E1,), 1, 0, 1) + W((E1,), -1, 0, -1)
    rels.append(("e_squared_cleared", esq, edelta))
    if r >= 2 and s >= 2:
        rels.append(
            (
                "tangle_right",
                W((E1, ("gi", 1), ("gs", 1), E1, ("g", 1))),
                W((E1, ("gi", 1), ("gs", 1), E1, ("gs", 1))),
            )
        )
        rels.append(
            (
                "tangle_left",
                W((("g", 1), E1, ("gi", 1), ("gs", 1), E1)),
                W((("gs", 1), E1, ("gi", 1), ("gs", 1), E1)),
            )
        )
    return rels
