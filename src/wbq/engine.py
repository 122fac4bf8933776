"""Expansion in the cellular basis and exact structure constants.

The algebra acts on the mixed tensor space with rho tied to q^n, and for
n >= r+s that action is faithful, so an element is pinned down by its images
on a few seed vectors.  ``CoordinateSystem`` stores the images of all (r+s)!
cellular basis words on such a seed family together with an exact solver;
``expand`` writes any element in the cellular basis with an exactly-zero
residual.

Structure constants come in two flavours.  ``mode="generic"`` produces the
multiplication table over the two-parameter ground field: the table is
computed from residues modulo a large prime.  Each sample point (q, rho) =
(t, t^n) with integer t and n = r+s, ..., r+s+2D+1 is a rational point, so
its expansions are reduced mod p in one modular pass through the tensor
model.  At each q = t they are Lagrange-interpolated in rho, with a
stability check at the extra sample, and then adaptively in q, all mod p.
Every resulting Laurent coefficient is lifted to a small rational by
rational reconstruction, over the product of all primes used so far (CRT).
The lifted table is accepted only if it is certified symbolically: all
defining relations hold as matrix identities, every basis word re-expands
to its own indicator vector, the table is triangular with respect to the
cell order, compatible with the reversal anti-involution, and all
denominators are powers of (q - q^{-1}) times integers.  A failed lift or
certificate moves on to the next prime.  Specialized tables are obtained
either by specializing a generic table or, for q-power fields with a large
enough exponent, directly from a coordinate system over that field.  A
``ResidueConstants`` view maps a table's entries to Z/p under a field's
ring map instead, for certificates that need no value of the field.

The tensor model acts in the convention of the presentation, so a
coordinate system's expansions are the cellular coefficients themselves:
over a field, at a rational point (their values there) and mod a prime
(their residues, plain ints that the tensor kernel, ``_solve`` and the
word matrices reduce once per entry they write, as ``linalg`` states).
Coordinate systems and tables take their
right-multiplication matrices from ``words.WordAction``, which states the
matrix convention.  A coordinate system reads a letter's matrix at its
pivot coordinates only, from one kernel call on the support vectors.
"""

import collections.abc
import functools
import itertools
import json
import math
import operator
import os
import random
import re
import tempfile
from fractions import Fraction

from . import combinat, linalg, scalars, words
from .errors import (
    DenominatorVanishes,
    InterpolationUnstable,
    NotInSpan,
    OracleMismatch,
    RankCertificationFailed,
    RhoDependentDivisor,
)
from .linalg import FieldContext, RationalPointContext
from .scalars import FieldSpec
from .tensor import (TensorVector, act_letters, act_word, tagged_basis,
                     weight_of_index, weight_space)

FORMAT_VERSION = 1


@functools.lru_cache(maxsize=None)
def cell_basis(r, s):
    """Memoized canonical cellular basis of B_{r,s}."""
    return tuple(words.cell_basis(r, s))


@functools.lru_cache(maxsize=None)
def cell_layout(r, s):
    """The address book of the cell layers of B_{r,s}, the one place that
    knows where a layer sits in ``cell_basis``.

    Maps each label, in basis order, to ``(start, dim, frame)``: C[(i)(j)]
    of the label is basis word ``start + i * dim + j``, with ``i`` and
    ``j`` indexing ``words.cell_index_set(label, r, s)``, and ``frame`` is
    the index of the distinguished ``words.initial_cell_index``.  A label
    of another algebra raises ``KeyError`` on lookup.
    """
    basis = cell_basis(r, s)
    out = {}
    start = 0
    for label in combinat.enumerate_labels(r, s):
        dim = combinat.cell_dimension(label, r, s)
        index_set = [rec.right for rec in basis[start:start + dim]]
        frame = index_set.index(words.initial_cell_index(label, r, s))
        out[label] = (start, dim, frame)
        start += dim * dim
    return out


def generator_letters(r, s):
    """The generating letters e_1, g_1..g_{r-1}, g*_1..g*_{s-1}."""
    out = [words.E1]
    for i in range(1, r):
        out.append(("g", i))
    for j in range(1, s):
        out.append(("gs", j))
    return out


def _letter_key(letter):
    if letter == words.E1:
        return "e"
    return "%s%d" % (letter[0], letter[1])


# ---------------------------------------------------------------------------
# coordinate systems
# ---------------------------------------------------------------------------

class CoordinateSystem:
    """Images of every cellular basis word on a fixed seed family.

    ``rows[a]`` is the flattened coordinate vector of basis word ``a``.  The
    rank certificate proves the rows linearly independent and supplies the
    pivot columns: their square is nonsingular mod p at a sample point, so
    it is invertible over ``ctx`` and expansion coefficients are unique.
    A solve without the residual check reads only the pivot coordinates,
    so the letter matrices of ``action`` are computed there alone.
    """

    __slots__ = (
        "r", "s", "n", "ctx", "basis", "support", "seeds", "tensor_images",
        "rows", "rank", "pivots", "pivot_inverse", "action",
    )

    def __init__(self, r, s, n, ctx, basis, support, seeds, tensor_images,
                 rows, rank, pivots, pivot_inverse):
        self.r = r
        self.s = s
        self.n = n
        self.ctx = ctx
        self.basis = basis
        self.support = support
        self.seeds = seeds
        self.tensor_images = tensor_images
        self.rows = rows
        self.rank = rank
        self.pivots = pivots
        self.pivot_inverse = pivot_inverse
        self.action = words.WordAction(ctx, len(basis), self._letter_columns)

    @classmethod
    def build(cls, r, s, seed=0, ctx=None, n=None, support=None,
              max_seeds=4):
        """Build the coordinate system at rho = q^n (default n = r+s).

        Seed vectors have dense small random integer coefficients on
        ``support`` (all of the tensor space by default, else a union of
        weight spaces, which the letters preserve) and are drawn
        deterministically from ``seed``; more seeds are adjoined (up to
        ``max_seeds``) until the certified rank reaches (r+s)!, otherwise
        ``RankCertificationFailed`` is raised.  One kernel call gives a
        seed's images under the whole cell basis.  The pivot columns are the
        ones the modular rank certificate chose, and their square is
        inverted over ``ctx`` directly.
        """
        n = (r + s) if n is None else n
        if ctx is None:
            ctx = FieldContext(FieldSpec.qpower(n))
        basis = cell_basis(r, s)
        nbasis = len(basis)
        if support is None:
            size = n ** (r + s)
            if size > 300000:
                raise ValueError("dense seeds too large at n=%d" % n)
            support = [idx for idx in
                       itertools.product(range(1, n + 1), repeat=r + s)]
        support = list(support)
        rng = random.Random("coords:%d:%d:%d:%r" % (r, s, n, seed))
        seeds = []
        tensor_images = []
        rows = None
        rank, pivots = 0, []
        for _ in range(max_seeds):
            vec = TensorVector(
                ctx, {idx: ctx.from_monomial(rng.randint(1, 9)) for idx in support})
            seeds.append(vec)
            new_cols = act_word(vec, [rec.element for rec in basis], n, r, s)
            if rows is None:
                tensor_images = [[img] for img in new_cols]
                rows = [cls._flatten(ctx, [img], support) for img in new_cols]
            else:
                for a in range(nbasis):
                    tensor_images[a].append(new_cols[a])
                    rows[a].extend(cls._flatten(ctx, [new_cols[a]], support))
            rank, pivots = cls._certified_rank(ctx, rows)
            if rank == nbasis:
                break
        if rank < nbasis:
            raise RankCertificationFailed(
                "rank %d < %d with %d seeds at (r,s,n)=(%d,%d,%d)"
                % (rank, nbasis, len(seeds), r, s, n))
        square = [[row[p] for p in pivots] for row in rows]
        pivot_inverse = linalg.invert_square(ctx, square)
        return cls(r, s, n, ctx, basis, support, seeds, tensor_images,
                   rows, rank, pivots, pivot_inverse)

    @staticmethod
    def _flatten(ctx, images, support):
        out = []
        for img in images:
            entries = img.entries
            zero = ctx.zero()
            for idx in support:
                out.append(entries.get(idx, zero))
        return out

    @staticmethod
    def _certified_rank(ctx, rows):
        """``(rank, pivot_columns)`` of the rows mod p: at a residue context
        over its own prime, otherwise through ``linalg.modp_rank_robust``,
        which reads field values through their ring map to Z/p.  A modular
        rank never exceeds the true rank, and the row count bounds it
        above, so a full rank is exact.  The pivots are the greedy first
        independent columns mod p."""
        if ctx.prime is not None:
            return linalg.modp_rank(rows, ctx.prime)
        return linalg.modp_rank_robust(rows)

    # -- solving ----------------------------------------------------------

    def _solve(self, coords, check=True):
        """Expansion of a coordinate vector over the cellular basis; at a
        residue context each coefficient and each residual entry is
        reduced once."""
        ctx = self.ctx
        prime = ctx.prime
        d = [ctx.zero()] * len(self.pivots)
        for col, row in zip(self.pivots, self.pivot_inverse):
            x = coords[col]
            if x:
                d = [acc + x * y for acc, y in zip(d, row)]
        if prime:
            d = [acc % prime for acc in d]
        if check:
            for pos in range(len(coords)):
                acc = ctx.zero()
                for a in range(len(d)):
                    if d[a]:
                        acc += d[a] * self.rows[a][pos]
                if (acc % prime if prime else acc) != coords[pos]:
                    raise NotInSpan("residual is nonzero at coordinate %d" % pos)
        return d

    def coordinates(self, element):
        """Flattened coordinate vector of a word element on the seed family."""
        images = [act_word(vec, element, self.n, self.r, self.s)
                  for vec in self.seeds]
        return self._flatten(self.ctx, images, self.support)

    def expand(self, x):
        """Coefficients of ``x`` over the cellular basis (exact; the residual
        must vanish identically, otherwise ``NotInSpan`` is raised).

        ``x`` is a word element or an already-computed coordinate vector.
        The coefficients are elements of ``ctx``: field values on a symbolic
        system, their values at the point on a numeric one.
        """
        coords = self.coordinates(x) if isinstance(x, words.WordElement) else x
        return self._solve(coords)

    # -- right-multiplication matrices -------------------------------------

    def _letter_columns(self, letter):
        """Matrix of a letter, an inverse letter too, read at the pivot
        coordinates only.  One ``act_letters`` call on the tagged support
        vectors (``tensor.tagged_basis``) gives the letter's image of every
        one of them, and each output ``(j, k)`` is filed at once under the
        pivot index j with the k-th support index.  The coordinate of basis
        word a at pivot ``col`` (seed ``k = col // len(support)``, index
        ``j = support[col % len(support)]``) is the sum over the support
        indices i of the coefficient of j in i * letter times the stored
        image of a on seed k at i."""
        ctx, support = self.ctx, self.support
        width = len(support)
        into = {support[col % width]: [] for col in self.pivots}
        image = act_letters(tagged_basis(support, ctx), (letter,),
                            self.n, self.r, self.s)
        for out, val in image.entries.items():
            terms = into.get(out[:-1])
            if terms is not None:
                terms.append((support[out[-1]], val))
        pivots = [(col, col // width, into[support[col % width]])
                  for col in self.pivots]
        zero = ctx.zero()
        cols = []
        for images in self.tensor_images:
            coords = {}
            for col, k, terms in pivots:
                entries = images[k].entries
                coords[col] = sum((val * entries[idx] for idx, val in terms
                                   if idx in entries), zero)
            cols.append(self._solve(coords, check=False))
        return [list(row) for row in zip(*cols)]

    def products(self):
        """Every nonzero product of two basis words, ``{(a, b): {c: value}}``
        for C_a * C_b, read off the right-multiplication matrix of each
        C_b, in ``expand``'s coefficients."""
        nbasis = len(self.basis)
        out = {}
        for b in range(nbasis):
            mat = self.action.element(self.basis[b].element)
            for a in range(nbasis):
                vec = {c: mat[c][a] for c in range(nbasis) if mat[c][a]}
                if vec:
                    out[(a, b)] = vec
        return out


# ---------------------------------------------------------------------------
# structure-constant tables
# ---------------------------------------------------------------------------

class ConstantsTable:
    """Shared behaviour of generic and specialized multiplication tables.

    ``product(a, b)`` returns the expansion of C_a * C_b as a sparse dict
    {c: scalar}; ``generator_expansion(key)`` and ``unit_expansion()`` give
    the cellular expansions of the generators and of 1.
    """

    def __init__(self, r, s, spec):
        self.r = r
        self.s = s
        self.spec = spec
        self.basis = cell_basis(r, s)

    # subclasses implement product / generator_expansion / unit_expansion

    @functools.cached_property
    def ctx(self):
        """The field context, built on first use: a loaded generic table
        that only specialises builds no generic value at all."""
        return FieldContext(self.spec)

    @property
    def size(self):
        return len(self.basis)

    def residues(self):
        """This table's entries mod p, as a ``ResidueConstants`` view, read
        from the generic table where this one specialises it."""
        return ResidueConstants(self, self.spec)

    def sigma_position(self, a):
        """Position of the image of basis word ``a`` under the reversal
        anti-involution: the same label with row and column swapped."""
        if not 0 <= a < self.size:
            raise IndexError("basis position %d out of range" % a)
        start, dim, _ = cell_layout(self.r, self.s)[self.basis[a].label]
        i, j = divmod(a - start, dim)
        return start + j * dim + i

    # -- right multiplication in cellular coordinates ----------------------

    @functools.cached_property
    def action(self):
        """Right multiplication by word elements on coefficient columns."""
        return words.WordAction(self.ctx, self.size, self._letter_columns)

    def _letter_columns(self, letter):
        """Matrix of a positive letter, assembled from the table and the
        letter's cellular expansion."""
        ctx = self.ctx
        nbasis = self.size
        mat = [[ctx.zero()] * nbasis for _ in range(nbasis)]
        for b, coeff in self.generator_expansion(_letter_key(letter)).items():
            if not coeff:
                continue
            for a in range(nbasis):
                for c, val in self.product(a, b).items():
                    mat[c][a] += coeff * val
        return mat

    def expand_word_element(self, element):
        """Expansion of an arbitrary word element in the cellular basis,
        through the unit expansion."""
        unit = self.unit_expansion()
        vec = [unit.get(a, self.ctx.zero()) for a in range(self.size)]
        return linalg.mat_vec(self.ctx, self.action.element(element), vec)

    # -- certification checks ----------------------------------------------

    def check_sigma_symmetry(self):
        """sigma(C_a C_b) = sigma(C_b) sigma(C_a) entrywise on the table."""
        ctx = self.ctx
        perm = [self.sigma_position(a) for a in range(self.size)]
        for a in range(self.size):
            for b in range(self.size):
                left = self.product(a, b)
                right = self.product(perm[b], perm[a])
                keys = set(left) | set(perm[c] for c in right)
                for c in keys:
                    lv = left.get(c, ctx.zero())
                    rv = right.get(perm[c], ctx.zero())
                    if lv != rv:
                        raise OracleMismatch(
                            "reversal symmetry fails at (%d,%d,%d)" % (a, b, c))

    def check_triangularity(self):
        """Products stay in the same cell layer with the left index frozen,
        plus strictly higher layers."""
        for a in range(self.size):
            rec_a = self.basis[a]
            for b in range(self.size):
                for c, val in self.product(a, b).items():
                    if not val:
                        continue
                    rec_c = self.basis[c]
                    order = combinat.label_order(rec_c.label, rec_a.label)
                    if order == "eq":
                        if rec_c.left != rec_a.left:
                            raise OracleMismatch(
                                "left index moved inside layer at (%d,%d,%d)"
                                % (a, b, c))
                    elif order != "gt":
                        raise OracleMismatch(
                            "product escapes below its layer at (%d,%d,%d)"
                            % (a, b, c))

    def check_relations(self):
        """Every defining relation holds as a matrix identity on columns."""
        for name, lhs, rhs in words.presentation_relations(self.r, self.s):
            if self.action.element(lhs) != self.action.element(rhs):
                raise OracleMismatch("relation %s fails on the table" % name)

    def check_unit_expansions(self):
        """Re-expanding every basis word through the table must return its
        own indicator vector."""
        ctx = self.ctx
        for a in range(self.size):
            vec = self.expand_word_element(self.basis[a].element)
            for c in range(self.size):
                want = ctx.one() if c == a else ctx.zero()
                if vec[c] != want:
                    raise OracleMismatch(
                        "basis word %d does not re-expand to itself" % a)


class StructureConstants(ConstantsTable):
    """Fully materialized table (generic or directly-computed specialized).
    ``seed`` and ``depth`` record how it was built and change none of its
    values.  ``decompositions`` is the memo of
    ``repthy.decomposition_matrix``: field spec -> the integer answer
    computed from this table, which lives and dies with the table."""

    def __init__(self, r, s, spec, seed, depth, products, generators, unit):
        ConstantsTable.__init__(self, r, s, spec)
        self.seed = seed
        self.depth = depth
        self._products = products
        self._generators = generators
        self._unit = unit
        self.decompositions = {}

    def product(self, a, b):
        return self._products.get((a, b), {})

    def generator_expansion(self, key):
        return self._generators[key]

    def unit_expansion(self):
        return self._unit

    def specialize(self, spec):
        """A lazily specialized view of a generic table."""
        if isinstance(spec, str):
            spec = FieldSpec.from_string(spec)
        if self.spec.kind != "generic":
            raise ValueError("only generic tables can be specialized")
        if spec.kind == "generic":
            return self
        return SpecializedConstants(self, spec)

    def check_denominators(self):
        """Every coefficient is integral away from q - q^{-1}: its
        denominator is c*q^A*rho^B*(q^2-1)^K
        (``Scalar.has_table_denominator``, a check on the two-parameter
        representation, so generic tables only)."""
        if self.spec.kind != "generic":
            return
        for value in self._iter_values():
            if not value.has_table_denominator():
                raise OracleMismatch(
                    "denominator is not c*q^A*rho^B*(q^2-1)^K")

    def _iter_values(self):
        for vec in self._products.values():
            for value in vec.values():
                yield value
        for vec in self._generators.values():
            for value in vec.values():
                yield value
        for value in self._unit.values():
            yield value

    def certify(self):
        self.check_denominators()
        self.check_sigma_symmetry()
        self.check_triangularity()
        self.check_relations()
        self.check_unit_expansions()

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        def encode_vec(vec):
            out = {}
            for c in sorted(vec):
                if vec[c]:
                    out[str(c)] = _encode_scalar(vec[c])
            return out

        products = {}
        for (a, b) in sorted(self._products):
            vec = encode_vec(self._products[(a, b)])
            if vec:
                products["%d,%d" % (a, b)] = vec
        return {
            "format_version": FORMAT_VERSION,
            "r": self.r,
            "s": self.s,
            "mode": self.spec.to_string(),
            "seed": self.seed,
            "D": self.depth,
            "size": self.size,
            "generators": {k: encode_vec(v)
                           for k, v in sorted(self._generators.items())},
            "one": encode_vec(self._unit),
            "products": products,
        }

    @classmethod
    def from_json_dict(cls, data):
        """The generic table that ``to_json_dict`` wrote as ``data``.

        Each value goes through ``scalars.generic_from_terms``: values in
        the canonical form that ``to_json_dict`` writes are read into their
        integer normal form without normalising, and keep their terms for
        ``specialize``.  Every check here is on integers.
        Raises ValueError for a file that is not a table ``to_json_dict``
        could have written: another format or mode, a basis position or
        product key outside ``range(size)``, a malformed value (an empty
        denominator, a zero coefficient, a coefficient or exponent that does
        not parse), or a denominator of another shape than ``certify()``
        allows.  A missing or mistyped field raises KeyError or TypeError.
        """
        if data.get("format_version") != FORMAT_VERSION:
            raise ValueError("unsupported table format %r"
                             % data.get("format_version"))
        if data.get("mode") != "generic":
            raise ValueError("stored table has mode %r, only generic tables "
                             "are stored" % data.get("mode"))
        r, s = data["r"], data["s"]
        size = len(cell_basis(r, s))
        if data["size"] != size:
            raise ValueError("basis size mismatch in stored table")

        def position(text):
            c = int(text)
            if not 0 <= c < size:
                raise ValueError("basis position %s outside range(%d)"
                                 % (text, size))
            return c

        def decode_vec(obj):
            return {position(c): _decode_scalar(v) for c, v in obj.items()}

        products = {}
        for key, vec in data["products"].items():
            a, b = key.split(",")
            products[(position(a), position(b))] = decode_vec(vec)
        generators = {k: decode_vec(v) for k, v in data["generators"].items()}
        unit = decode_vec(data["one"])
        table = cls(r, s, FieldSpec.generic(), data["seed"], data["D"],
                    products, generators, unit)
        try:
            table.check_denominators()
        except OracleMismatch as exc:
            raise ValueError("stored value rejected: %s" % exc) from exc
        return table


class _SpecializedVector(collections.abc.Mapping):
    """Read-only view of one table vector under the map ``image``.  A
    value is mapped on its first read and kept in the view.  A key whose
    image is zero is absent, as in a dict of nonzero images, except that
    ``get`` returns that zero."""

    __slots__ = ("_vec", "_image", "_images")

    def __init__(self, vec, image):
        self._vec = vec
        self._image = image
        self._images = {}

    def get(self, key, default=None):
        if key not in self._vec:
            return default
        images = self._images
        if key not in images:
            images[key] = self._image(self._vec[key])
        return images[key]

    def __getitem__(self, key):
        image = self.get(key)
        if not image:
            raise KeyError(key)
        return image

    def __iter__(self):
        return (c for c in self._vec if self.get(c))

    def __len__(self):
        return sum(1 for _ in self)


class SpecializedConstants(ConstantsTable):
    """The specialization of a generic table to one field.  Each vector is
    a ``_SpecializedVector`` over the generic one, so a reader maps only
    the entries it reads, each once.  The views and their images live as
    long as this table, which a query makes for itself."""

    def __init__(self, parent, spec):
        ConstantsTable.__init__(self, parent.r, parent.s, spec)
        self.parent = parent
        self._views = {}
        self._image = self._map()

    def _map(self):
        """The map of one generic value into the field.  It holds no
        reference to the table, so a query's views are freed with it."""
        spec = self.spec
        return lambda value: scalars.specialize(value, spec)

    def _view(self, key, vec):
        if key not in self._views:
            self._views[key] = _SpecializedVector(vec, self._image)
        return self._views[key]

    def product(self, a, b):
        return self._view((a, b), self.parent.product(a, b))

    def generator_expansion(self, key):
        return self._view(key, self.parent.generator_expansion(key))

    def unit_expansion(self):
        return self._view(None, self.parent.unit_expansion())

    def residues(self):
        return ResidueConstants(self.parent, self.spec)


class ResidueConstants(SpecializedConstants):
    """The images mod p of a table's entries under the ring map of the
    field ``spec`` to Z/p, ``Scalar.mod_p(spec)``, read from ``parent``: a
    generic table, whose values map as their specialisations to ``spec``
    would, or a table over ``spec``.  No value of ``spec`` is built.  An
    entry with no image raises ``DenominatorVanishes`` when it is read."""

    @functools.cached_property
    def ctx(self):
        """The residues' context: q goes where the ring map sends it
        (``scalars._modp_point``), and rho to the power of that image that
        the field ties rho to.  Where rho is free, it is no such power, and
        the context serves only the zero and the prime."""
        p, (q, _) = scalars._modp_point(self.spec)
        return RationalPointContext(q, self.spec.tie or 0, p)

    @property
    def action(self):
        """The word action on residue columns; ``ValueError`` where rho
        is free, as the context has no image of rho to read words with."""
        if self.spec.tie is None:
            raise ValueError("no residue word action on %s: rho is free"
                             % self.spec.to_string())
        return super().action

    def _map(self):
        spec = self.spec

        def image(value):
            found = value.mod_p(spec)
            if found is None:
                raise DenominatorVanishes("an entry has no image mod p "
                                          "under %s" % spec.to_string())
            return found[0]

        return image


def _encode_scalar(x):
    num, den = scalars.generic_terms(x)
    return [[[qe, re, str(c)] for qe, re, c in num],
            [[qe, re, str(c)] for qe, re, c in den]]


# the str of a nonzero int or Fraction, as ``_encode_scalar`` writes it
_COEFFICIENT = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")


def _decode_coefficient(text):
    if not _COEFFICIENT.match(text):
        raise ValueError("malformed coefficient %r" % (text,))
    c = Fraction(text) if "/" in text else int(text)
    if not c:
        raise ValueError("zero coefficient")
    return c


def _decode_scalar(obj):
    """The value that ``_encode_scalar`` wrote as ``obj``; ValueError or
    TypeError for a malformed one."""
    num, den = ([(operator.index(qexp), operator.index(rhoexp),
                  _decode_coefficient(c)) for qexp, rhoexp, c in side]
                for side in obj)
    if not den:
        raise ValueError("empty denominator")
    try:
        return scalars.generic_from_terms(num, den)
    except (DenominatorVanishes, RhoDependentDivisor) as exc:
        raise ValueError("malformed denominator: %s" % exc) from exc


# ---------------------------------------------------------------------------
# the interpolation pipeline (generic mode)
# ---------------------------------------------------------------------------

def _support_indices(n, r, s):
    base = tuple(range(1, r + 1)) + tuple(range(1, s + 1))
    wt = weight_of_index(base, n, r, s)
    return weight_space(wt, n, r, s)


def _node_expansions(r, s, ctx, seed):
    """All expansions at the sample point of ``ctx``, (q, rho) = (t, t^n)
    with n = ``ctx.rhoexp``: the unit, every generator, and every product
    of two basis words, as elements of ``ctx``."""
    n = ctx.rhoexp
    support = _support_indices(n, r, s)
    try:
        system = CoordinateSystem.build(
            r, s, seed=seed, ctx=ctx, n=n, support=support)
    except RankCertificationFailed:
        system = CoordinateSystem.build(r, s, seed=seed, ctx=ctx, n=n)
    seeds_coords = system._flatten(ctx, system.seeds, system.support)
    unit = system._solve(seeds_coords, check=False)
    out = {("one",): {c: v for c, v in enumerate(unit) if v}}
    for letter in generator_letters(r, s):
        col = linalg.mat_vec(ctx, system.action.letter(letter), unit)
        out[("gen", _letter_key(letter))] = {
            c: v for c, v in enumerate(col) if v}
    for (a, b), vec in system.products().items():
        out[("p", a, b)] = vec
    return out


def _stage_one(values_by_node, nodes, stab_node, t, depth, p):
    """Interpolate the rho-dependence at one q-point mod p: Laurent window
    [-depth, depth], checked against the extra stabilization node."""
    xs = [pow(t, n, p) for n in nodes]
    x_pows = [pow(x, depth, p) for x in xs]
    x_stab = pow(t, stab_node, p)
    x_stab_pow = pow(x_stab, depth, p)
    keys = set()
    for table in values_by_node.values():
        keys.update((key, c) for key, vec in table.items() for c in vec)
    out = {}
    for key, c in keys:
        vals = [values_by_node[n].get(key, {}).get(c, 0) for n in nodes]
        stab_val = values_by_node[stab_node].get(key, {}).get(c, 0)
        if not any(vals) and not stab_val:
            continue
        ys = [val * x_pow % p for val, x_pow in zip(vals, x_pows)]
        coeffs = linalg.lagrange_poly(xs, ys, p)
        if linalg.poly_eval(coeffs, x_stab, p) != stab_val * x_stab_pow % p:
            raise InterpolationUnstable(
                "rho window [-%d, %d] too small at q=%d" % (depth, depth, t))
        for k, coeff in enumerate(coeffs):
            if coeff:
                out.setdefault((key, c), {})[k - depth] = coeff
    return out


def _interpolate_mod(r, s, seed, depth, p, progress):
    """The numerators of the table over (q - q^{-1})^depth mod p, ``{(key,
    c, k, e): residue}`` for the coefficient of q^e rho^k of entry c of
    ``key``.  The rho-dependence is fitted at each
    q-point, then the q-dependence adaptively, adding q-points until three
    extra ones confirm every fit."""
    nodes = [r + s + k for k in range(2 * depth + 1)]
    stab_node = r + s + 2 * depth + 1
    all_nodes = nodes + [stab_node]
    rho_data = {}         # (key, c) -> {rho_exp -> {t -> value}}
    accepted = {}         # (key, c) -> {rho_exp -> laurent dict}
    ts = []
    next_t = 2
    qdiff_at = {}         # t -> (t - 1/t)^depth

    def add_point():
        nonlocal next_t
        t = next_t
        next_t += 1
        if progress:
            progress("sampling q=%d (rho=q^%d..q^%d)" % (t, nodes[0], stab_node))
        tables = {n: _node_expansions(r, s, RationalPointContext(t, n, p),
                                      seed)
                  for n in all_nodes}
        stage = _stage_one(tables, nodes, stab_node, t, depth, p)
        for (key, c), kdict in stage.items():
            slot = rho_data.setdefault((key, c), {})
            for k, val in kdict.items():
                slot.setdefault(k, {})[t] = val
        ts.append(t)
        qdiff_at[t] = pow(t - pow(t, -1, p), depth, p)

    for _ in range(9):
        add_point()
    while True:
        pending = []
        for entry, kdict in rho_data.items():
            got = accepted.get(entry, {})
            for k in kdict:
                if k not in got:
                    pending.append((entry, k))
        if not pending:
            break
        if len(ts) >= 64:
            raise InterpolationUnstable(
                "q-interpolation failed to stabilize for %d coefficients"
                % len(pending))
        for _ in range(4):
            add_point()
        fit_ts, check_ts = ts[:-3], ts[-3:]
        guard = (len(fit_ts) - 1) // 2
        t_pows = {t: pow(t, guard, p) for t in ts}
        for entry, k in pending:
            tvals = rho_data[entry][k]
            ys = {t: tvals.get(t, 0) * qdiff_at[t] * t_pows[t] % p for t in ts}
            coeffs = linalg.lagrange_poly(fit_ts, [ys[t] for t in fit_ts], p)
            if all(linalg.poly_eval(coeffs, t, p) == ys[t] for t in check_ts):
                accepted.setdefault(entry, {})[k] = {
                    e - guard: c for e, c in enumerate(coeffs) if c}
    return {(key, c, k, e): coeff
            for (key, c), kdict in accepted.items()
            for k, laur in kdict.items()
            for e, coeff in laur.items()}


def _crt(residues, modulus, found, p):
    """Residues mod ``modulus`` and residues mod the prime ``p`` combined
    into residues mod ``modulus * p``; a missing key is zero."""
    inverse = pow(modulus, -1, p)
    out = {}
    for key in residues.keys() | found.keys():
        x = residues.get(key, 0)
        out[key] = x + modulus * ((found.get(key, 0) - x) * inverse % p)
    return out, modulus * p


def _lift(residues, modulus):
    """Every residue u mod ``modulus`` lifted to the fraction a/b with
    |a|, b <= sqrt(modulus/2) and a = b*u mod modulus, zeros dropped; None
    if some residue has no such fraction (rational reconstruction by the
    half extended Euclidean algorithm; von zur Gathen and Gerhard, Modern
    Computer Algebra, section 5.10)."""
    bound = math.isqrt(modulus // 2)
    out = {}
    for key, u in residues.items():
        r0, r1, s0, s1 = modulus, u, 0, 1
        while r1 > bound:
            quo = r0 // r1
            r0, r1 = r1, r0 - quo * r1
            s0, s1 = s1, s0 - quo * s1
        if abs(s1) > bound or math.gcd(r1, s1) != 1:
            return None
        if r1:
            out[key] = Fraction(r1, s1)
    return out


def _assemble(r, s, seed, depth, coefficients):
    """The generic table from its numerators over (q - q^{-1})^depth."""
    qdiff_terms = [(depth - 2 * i, 0, (-1) ** i * math.comb(depth, i))
                   for i in range(depth + 1)]
    num_terms = {}
    for (key, c, k, e), coeff in coefficients.items():
        num_terms.setdefault((key, c), []).append((e, k, coeff))
    values = {}
    for (key, c), terms in num_terms.items():
        value = scalars.generic_from_terms(terms, qdiff_terms)
        if value:
            values.setdefault(key, {})[c] = value

    products = {}
    generators = {}
    unit = values.get(("one",), {})
    for key, vec in values.items():
        if key[0] == "p":
            products[(key[1], key[2])] = vec
        elif key[0] == "gen":
            generators[key[1]] = vec
    for letter in generator_letters(r, s):
        generators.setdefault(_letter_key(letter), {})
    return StructureConstants(r, s, FieldSpec.generic(), seed, depth,
                              products, generators, unit)


def _build_generic_attempt(r, s, seed, depth, progress):
    """The table for one rho window, from residues: the numerators are
    interpolated mod each prime of ``linalg._MODP_PRIMES`` in turn, lifted
    from every prime used so far by CRT and rational reconstruction, and
    accepted only through ``certify()``.  A rank deficit or a vanishing
    denominator mod the prime, a failed lift or a rejected table moves to
    the next prime; after the last, ``InterpolationUnstable``."""
    residues, modulus = {}, 1
    failure = "no prime was tried"
    for p in linalg._MODP_PRIMES:
        try:
            found = _interpolate_mod(r, s, seed, depth, p, progress)
        except (RankCertificationFailed, DenominatorVanishes) as exc:
            failure = "mod %d: %s" % (p, exc)
            continue
        residues, modulus = _crt(residues, modulus, found, p)
        coefficients = _lift(residues, modulus)
        if coefficients is None:
            failure = "rational reconstruction failed mod %d" % modulus
            continue
        table = _assemble(r, s, seed, depth, coefficients)
        if progress:
            progress("certifying the interpolated table")
        try:
            table.certify()
        except OracleMismatch as exc:
            failure = "certification rejected the table: %s" % exc
            continue
        return table
    raise InterpolationUnstable(failure)


def build_generic_table(r, s, seed=0, progress=None):
    """Compute the generic multiplication table, doubling the rho window
    once if the stability checks, or every prime, reject the first
    attempt."""
    depth = 2 * min(r, s) + 2
    try:
        return _build_generic_attempt(r, s, seed, depth, progress)
    except InterpolationUnstable:
        return _build_generic_attempt(r, s, seed, 2 * depth, progress)


# ---------------------------------------------------------------------------
# direct specialized computation (q-power fields, no interpolation)
# ---------------------------------------------------------------------------

def direct_structure_constants(r, s, spec, seed=0):
    """Table over QPower(a), a >= r+s, straight from a coordinate system."""
    if isinstance(spec, str):
        spec = FieldSpec.from_string(spec)
    if spec.kind != "qpow" or spec.tie < r + s:
        raise ValueError("direct computation needs rho = q^a with a >= r+s")
    system = CoordinateSystem.build(r, s, seed=seed,
                                    ctx=FieldContext(spec), n=spec.tie)
    products = system.products()
    unit_vec = system.expand(words.WordElement.unit())
    unit = {c: v for c, v in enumerate(unit_vec) if v}
    generators = {}
    for letter in generator_letters(r, s):
        vec = system.expand(words.WordElement.from_word((letter,)))
        generators[_letter_key(letter)] = {
            c: v for c, v in enumerate(vec) if v}
    return StructureConstants(r, s, spec, seed, 0, products, generators, unit)


# ---------------------------------------------------------------------------
# cache management and the public front door
# ---------------------------------------------------------------------------

_TABLE_MEMO = {}


def cache_directory(cache_dir=None):
    if cache_dir:
        return cache_dir
    env = os.environ.get("WBQ_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "wbq")


def cache_path(r, s, cache_dir=None):
    return os.path.join(cache_directory(cache_dir),
                        "constants_%d_%d_generic.json" % (r, s))


def bundled_path(r, s):
    return os.path.join(os.path.dirname(__file__), "data",
                        "constants_%d_%d_generic.json" % (r, s))


def save_table(table, path):
    """Write a table atomically; emission order is canonical, so identical
    builds produce byte-identical files."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = json.dumps(table.to_json_dict(), sort_keys=True,
                         separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_table(path, r, s):
    """The generic table of B_{r,s} stored at ``path``, checked and decoded
    on integers as in ``StructureConstants.from_json_dict``.  Raises ValueError
    (or KeyError, TypeError) for a file that is not such a table, including
    one stored for another shape."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("r") != r or data.get("s") != s:
        raise ValueError("stored table is for (%r, %r), wanted (%d, %d)"
                         % (data.get("r"), data.get("s"), r, s))
    return StructureConstants.from_json_dict(data)


def generic_table(r, s, cache_dir=None):
    """The generic table, resolved through the in-memory memo, then the
    cache file, then the bundled data file.  A query never builds: with
    none of them, ``FileNotFoundError`` names ``wbq cache build``, and a
    file that does not load raises ``OSError`` naming its path.  The memo
    is keyed by the cache file too, so a call naming another cache
    directory resolves its own table."""
    path = cache_path(r, s, cache_dir)
    key = (r, s, path)
    if key in _TABLE_MEMO:
        return _TABLE_MEMO[key]
    for candidate in (path, bundled_path(r, s)):
        if os.path.exists(candidate):
            try:
                table = load_table(candidate, r, s)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise OSError("unreadable table %s (%s); remove cached "
                              "tables with `wbq cache clear`"
                              % (candidate, exc)) from exc
            _TABLE_MEMO[key] = table
            return table
    directory = cache_directory(cache_dir)
    raise FileNotFoundError(
        "no table for (%d, %d) in %s or the bundled data; build it with "
        "`wbq cache build --r %d --s %d --cache-dir %s`"
        % (r, s, directory, r, s, directory))


def structure_constants(r, s, mode="generic", cache_dir=None):
    """Structure constants of B_{r,s}, read from a stored table.

    ``mode`` is "generic" for the two-parameter table, or a FieldSpec (or
    its string form) for the specialization of that table to the field.
    The generic table resolves as in ``generic_table``: memo, cache file,
    bundled file, else ``FileNotFoundError``; only ``build_generic_table``
    builds one.  ``direct_structure_constants`` is the independent
    computation inside the tensor model.
    """
    spec = FieldSpec.from_string(mode) if isinstance(mode, str) else mode
    table = generic_table(r, s, cache_dir=cache_dir)
    if spec is None or spec.kind == "generic":
        return table
    return table.specialize(spec)
