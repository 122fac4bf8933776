"""Cell modules, Gram forms, decomposition matrices, and block structure.

Everything here reduces to the structure-constant tables: a cell module is
the layer of the multiplication table attached to one label, its Gram form
reads off the distinguished coefficient of products inside that layer, and
decomposition numbers are recovered by the trace method.  Where a layer
sits comes from one address book, ``engine.cell_layout``.  The action of
a generator on a cell module reads whole rows through ``_layer_rows`` (the
matrix of a basis word on the module); everything else reads single
entries: ``_gram_entries`` the Gram form, and the trace tables the
diagonal of each layer row matrix and, on a degenerate form, the (pivot,
free) entries of the pivot rows.  A specialized table maps only the
entries read (``engine.SpecializedConstants``).

Over a field of characteristic zero the traces of the basis elements on
pairwise non-isomorphic simple modules are linearly independent, so the
system

    trace on C(nu) = sum over columns mu of d[nu][mu] * trace on D(mu)

has a unique solution, which is asserted to be a non-negative integer
matrix, unitriangular against the cell order.

A Gram matrix whose image mod p has full rank is non-degenerate with no
elimination (``linalg.modp_rank_robust``).  Where ``predicted_semisimple``
holds, ``decomposition_matrix`` and ``semisimplicity`` first look for that
certificate, on every Gram form and on the simple-trace matrix, in the
residues of the generic table (``engine.ResidueConstants``), and specialise
nothing: the field's ring map to Z/p factors through the specialisation,
so full ranks there prove that every cell module is simple, that the
decomposition matrix is the identity and that the algebra is semisimple.
On that route the Gram forms are checked for symmetry on the generic
entries, which covers every field.  On any miss the specialised path
decides, so answers, exceptions and exit codes are the same.  The exact
``linalg.rref`` runs only where the residues certify nothing: on
degenerate forms, whose reduced rows give the radical and the simple
traces, and on every trace system off that route, which
``linalg.span_coordinates`` solves.  That helper also writes the action
on the singular vectors, and the traces of the alternative generator's
module, in coordinates over their spans.

Each decomposition matrix is computed once per generic table and field.
``decomposition_matrix`` memoises its integer answer in the
``decompositions`` dict of the generic ``engine.StructureConstants`` it
reads, keyed by the field spec, so ``decomp``, ``blocks`` and the
``blocks1`` and ``einfty`` comparisons share it.  The memo lives as long
as its table: a table dropped from or replaced in ``engine._TABLE_MEMO``
takes its answers with it.  An entry holds labels, the field spec and
ints, never a field value or a specialised view; a call that raises
stores nothing, and every call hands out a copy of the entry.

A second, independent realization of each cell module, a span of singular
vectors in the mixed tensor space, is built by ``_singular_module`` for the
oracle ``route_agreement``, which compares the two constructions (Gram
ranks and trace tables) as a machine check.  The table-layer module, with
its frame and relation checks, is built by the tests from
``_table_module_letter``.

All computations are exact; there is no floating point anywhere.
"""

import itertools
import math
import random
from fractions import Fraction

from . import combinat, engine, linalg, scalars, tensor, words
from .errors import (
    DenominatorVanishes,
    IntegralityViolation,
    OracleMismatch,
    RankCertificationFailed,
    TraceSystemSingular,
)
from .linalg import FieldContext, RationalPointContext
from .scalars import INFINITY, FieldSpec


def _as_spec(field):
    if field is None:
        return FieldSpec.generic()
    if isinstance(field, str):
        return FieldSpec.from_string(field)
    return field


def _resolve_table(r, s, spec, cache_dir=None, table=None):
    if table is not None:
        return table
    return engine.structure_constants(r, s, spec, cache_dir=cache_dir)


def label_text(label):
    """Stable plain-text form of a label, used in results and reports."""
    fmt = lambda lam: "[" + ",".join(str(p) for p in lam) + "]"
    return "f=%d,%s|%s" % (label.f, fmt(label.lam1), fmt(label.lam2))


# ---------------------------------------------------------------------------
# predictions read off the ground field
# ---------------------------------------------------------------------------

def rho_square_power_clash(spec, bound):
    """True when rho^2 = q^(2a) holds for some |a| <= bound."""
    if bound < 0 or spec.tie is None:
        return False
    if spec.kind == "qpow":
        return abs(spec.tie) <= bound
    return any((2 * a - 2 * spec.tie) % spec.m == 0
               for a in range(-bound, bound + 1))


def predicted_simple_labels(r, s, spec):
    """Labels whose cell module has a nonzero simple head: restricted
    bipartitions, with the top contraction layer dropped in the degenerate
    square case delta = 0, r = s."""
    e = scalars.quantum_characteristic(spec)
    delta_zero = not scalars.delta(spec)
    out = []
    for label in combinat.enumerate_labels(r, s):
        if not combinat.e_restricted((label.lam1, label.lam2), e):
            continue
        if delta_zero and r == s and label.f == r:
            continue
        out.append(label)
    return out


def predicted_semisimple(r, s, spec):
    """Semisimplicity criterion in terms of e, delta and the rho/q tie."""
    e = scalars.quantum_characteristic(spec)
    if not (e == INFINITY or e > max(r, s)):
        return False
    if not scalars.delta(spec):
        return (r, s) in ((1, 2), (2, 1), (1, 3), (3, 1))
    return not rho_square_power_clash(spec, r + s - 2)


# ---------------------------------------------------------------------------
# cell modules
# ---------------------------------------------------------------------------

def _layer_rows(tab, label, b):
    """Matrix of basis word ``b`` on the cell module of ``label``, read off
    the table through ``engine.cell_layout``: row ``j`` holds the
    coefficients of v_j * C_b over v_0, ..., v_{dim-1}, where v_j is
    C[(frame)(j)] modulo the higher layers and ``frame`` the distinguished
    index (any other row of the layer gives the same module).
    """
    start, dim, frame = engine.cell_layout(tab.r, tab.s)[label]
    row = start + frame * dim
    zero = tab.ctx.zero()
    out = []
    for j in range(dim):
        vec = tab.product(row + j, b)
        out.append([vec.get(row + k, zero) for k in range(dim)])
    return out


def _table_module_letter(tab, label, letter):
    """Same-label layer of right multiplication by a positive generator,
    on coefficient columns."""
    ctx = tab.ctx
    dim = engine.cell_layout(tab.r, tab.s)[label][1]
    mat = [[ctx.zero()] * dim for _ in range(dim)]
    gen = tab.generator_expansion(engine._letter_key(letter))
    for b, coeff in gen.items():
        if not coeff:
            continue
        for j, row in enumerate(_layer_rows(tab, label, b)):
            for k, val in enumerate(row):
                if val:
                    mat[k][j] += coeff * val
    return mat


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

class GramMatrix:
    """The cellular bilinear form of one label, with its exact rank; only
    a form whose rank ``linalg.modp_rank_robust`` does not certify full is
    reduced."""

    def __init__(self, label, entries, ctx):
        self.label = label
        self.entries = entries
        self.ctx = ctx
        self.dim = len(entries)
        if linalg.modp_rank_robust(entries)[0] == self.dim:
            pivots, reduced = list(range(self.dim)), None
        else:
            pivots, reduced = linalg.rref(ctx, entries)
        self.rank = len(pivots)
        self._pivots = pivots
        self._reduced = reduced

    def radical_basis(self):
        return linalg.echelon_kernel(self.ctx, self._pivots, self._reduced,
                                     self.dim)


def _gram_entries(r, s, label, coefficient):
    """Gram matrix of ``label``: entry (i, j) is the coefficient of the
    distinguished diagonal basis word C[(a)(a)] in C[(a)(i)] * C[(j)(a)],
    with positions from ``engine.cell_layout`` and ``coefficient(x, y, c)``
    the coefficient of C_c in C_x * C_y."""
    start, dim, frame = engine.cell_layout(r, s)[label]
    row = start + frame * dim
    return [[coefficient(row + i, start + j * dim + frame, row + frame)
             for j in range(dim)] for i in range(dim)]


def gram_matrix(r, s, label, field=None, cache_dir=None, table=None):
    """Gram matrix of the cell module: entry (i, j) is the coefficient of
    the distinguished diagonal basis word in C[(a)(i)] * C[(j)(a)]."""
    spec = _as_spec(field)
    tab = _resolve_table(r, s, spec, cache_dir=cache_dir, table=table)
    ctx = tab.ctx
    zero = ctx.zero()
    entries = _gram_entries(
        r, s, label, lambda a, b, c: tab.product(a, b).get(c, zero))
    _check_symmetric(label, entries)
    return GramMatrix(label, entries, ctx)


def _check_symmetric(label, entries):
    if entries != [list(col) for col in zip(*entries)]:
        raise OracleMismatch("Gram matrix is not symmetric at %s"
                             % label_text(label))


# ---------------------------------------------------------------------------
# traces and the decomposition matrix
# ---------------------------------------------------------------------------

def _layer_trace_table(tab, label):
    """Traces of every basis word on the cell module of one layer: the sum
    of the diagonal entries of ``_layer_rows``, read one by one."""
    start, dim, frame = engine.cell_layout(tab.r, tab.s)[label]
    row = start + frame * dim
    return [sum(filter(None, (tab.product(row + j, b).get(row + j)
                              for j in range(dim))), tab.ctx.zero())
            for b in range(tab.size)]


def _quotient_trace_table(tab, label, gram):
    """Traces of every basis word on the simple head of the layer module,
    after checking that the form radical is stable under the action."""
    ctx = tab.ctx
    pivots = gram._pivots
    reduced = gram._reduced
    pivot_set = set(pivots)
    free = [j for j in range(gram.dim) if j not in pivot_set]
    # e_free = sum over pivots p of reduced_row(p)[free] * e_p  (mod radical)
    if free:
        radical = gram.radical_basis()
        for letter in engine.generator_letters(tab.r, tab.s):
            mat = _table_module_letter(tab, label, letter)
            for vec in radical:
                image = linalg.mat_vec(ctx, mat, vec)
                if any(linalg.mat_vec(ctx, gram.entries, image)):
                    raise OracleMismatch(
                        "the form radical is not stable under the action")
    # the trace reads only the (p, p) and (p, free) entries of the pivot
    # rows of ``_layer_rows``
    start, dim, frame = engine.cell_layout(tab.r, tab.s)[label]
    row = start + frame * dim
    zero = ctx.zero()
    out = []
    for b in range(tab.size):
        acc = zero
        for row_idx, p in enumerate(pivots):
            vec = tab.product(row + p, b)
            acc += vec.get(row + p, zero)
            for fcol in free:
                corr = reduced[row_idx][fcol]
                if corr and vec.get(row + fcol):
                    acc += vec.get(row + fcol) * corr
        out.append(acc)
    return out


class DecompositionMatrix:
    """Rows are all labels, columns the labels with nonzero simple head."""

    def __init__(self, r, s, spec, rows, columns, entries, gram_ranks):
        self.r = r
        self.s = s
        self.spec = spec
        self.rows = rows
        self.columns = columns
        self.entries = entries
        self.gram_ranks = gram_ranks

    def copy(self):
        """A copy that shares no list or dict with this matrix."""
        return DecompositionMatrix(
            self.r, self.s, self.spec, list(self.rows), list(self.columns),
            [list(row) for row in self.entries], dict(self.gram_ranks))

    def entry(self, row_label, col_label):
        return self.entries[self.rows.index(row_label)][
            self.columns.index(col_label)]

    def is_identity(self):
        if len(self.columns) != len(self.rows):
            return False
        for i, row in enumerate(self.entries):
            for j, value in enumerate(row):
                if value != (1 if i == j else 0):
                    return False
        return True

    def block_partition(self):
        """Transitive closure of sharing a column with a nonzero entry."""
        parent = list(range(len(self.rows)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for j in range(len(self.columns)):
            rows_with = [i for i, row in enumerate(self.entries) if row[j]]
            for other in rows_with[1:]:
                ra, rb = find(rows_with[0]), find(other)
                if ra != rb:
                    parent[rb] = ra
        groups = {}
        for i in range(len(self.rows)):
            groups.setdefault(find(i), []).append(self.rows[i])
        return sorted(groups.values(),
                      key=lambda block: self.rows.index(block[0]))


def _residue_certified(r, s, spec, tab, traces):
    """Whether the residues of ``tab.residues()``, read from the generic
    table with no specialisation, certify what ``predicted_semisimple``
    says of ``spec``: every Gram form, and with ``traces`` the
    simple-trace matrix, independent mod p.  The Gram forms are checked for
    symmetry on the generic entries, which covers every field, since
    specialisation is a ring map.  False on a field not predicted
    semisimple, a label set other than ``predicted_simple_labels``, an
    entry with no residue or any dependence; the specialised path then
    decides."""
    labels = list(combinat.enumerate_labels(r, s))
    if not predicted_semisimple(r, s, spec) or \
            labels != predicted_simple_labels(r, s, spec):
        return False
    res = tab.residues()
    zero, prime = res.ctx.zero(), res.ctx.prime
    try:
        for label in labels:
            _check_symmetric(label, _gram_entries(
                r, s, label, lambda a, b, c: res.parent.product(a, b).get(c)))
            gram = _gram_entries(
                r, s, label, lambda a, b, c: res.product(a, b).get(c, zero))
            if linalg.modp_rank(gram, prime)[0] != len(gram):
                return False
        if not traces:
            return True
        trace = [_layer_trace_table(res, label) for label in labels]
        return linalg.modp_rank(list(zip(*trace)), prime)[0] == len(trace)
    except DenominatorVanishes:
        return False


def _integer_value(ctx, value):
    """The integer k with |k| <= 64 that ``value`` equals.  The only
    candidate is the small integer with the same image mod p, since a ring
    map sends k to k mod p; one exact comparison confirms it."""
    image = value.mod_p()
    if image is not None:
        r, p = image
        k = r if r <= 64 else r - p
        if abs(k) <= 64 and value == ctx.from_monomial(k):
            return k
    raise IntegralityViolation("a decomposition entry is not a small integer")


def decomposition_matrix(r, s, field=None, cache_dir=None):
    """Exact decomposition matrix over the given field, by the trace method.

    Raises TraceSystemSingular when the simple traces fail to be linearly
    independent, IntegralityViolation when the solved multiplicities are
    not non-negative integers, and OracleMismatch when the column set or
    the unitriangular shape disagrees with the predicted one.

    The answer is memoised by field spec in ``decompositions`` of the
    generic table that ``engine.generic_table`` resolves, and goes with
    that table (see the module docstring); a call that raises stores
    nothing.  Each call returns its own copy of the entry, so a caller
    that edits it changes no later answer.
    """
    spec = _as_spec(field)
    generic = engine.generic_table(r, s, cache_dir=cache_dir)
    memo = generic.decompositions
    if spec not in memo:
        memo[spec] = _decompose(r, s, spec, generic.specialize(spec))
    return memo[spec].copy()


def _decompose(r, s, spec, tab):
    """The decomposition matrix of ``decomposition_matrix``, computed from
    ``tab``, the generic table specialised to ``spec``."""
    labels = list(combinat.enumerate_labels(r, s))
    if _residue_certified(r, s, spec, tab, traces=True):
        # every cell module is simple: the system is [T | T] with the
        # columns of T independent, whose reduced form is [I | I]
        layout = engine.cell_layout(r, s)
        return DecompositionMatrix(
            r, s, spec, labels, labels,
            [[int(row == col) for col in labels] for row in labels],
            {label: layout[label][1] for label in labels})
    ctx = tab.ctx
    grams = {label: gram_matrix(r, s, label, table=tab) for label in labels}
    columns = [label for label in labels if grams[label].rank > 0]
    predicted = predicted_simple_labels(r, s, spec)
    if columns != predicted:
        raise OracleMismatch(
            "computed simple labels %s disagree with the predicted set %s"
            % ([label_text(l) for l in columns],
               [label_text(l) for l in predicted]))
    trace_c = {label: _layer_trace_table(tab, label) for label in labels}
    trace_d = {label: trace_c[label] if grams[label].rank == grams[label].dim
               else _quotient_trace_table(tab, label, grams[label])
               for label in columns}
    solution = linalg.span_coordinates(
        ctx, [trace_d[col] for col in columns],
        [trace_c[lab] for lab in labels])
    if solution is None:
        raise TraceSystemSingular(
            "simple trace vectors are dependent or inconsistent")
    entries = [[_integer_value(ctx, x) for x in row] for row in solution]
    dec = DecompositionMatrix(r, s, spec, labels, columns, entries,
                              {label: grams[label].rank for label in labels})
    _check_decomposition_shape(dec)
    return dec


def _check_decomposition_shape(dec):
    for i, row_label in enumerate(dec.rows):
        for j, col_label in enumerate(dec.columns):
            value = dec.entries[i][j]
            if value < 0:
                raise IntegralityViolation(
                    "negative multiplicity at (%s, %s)"
                    % (label_text(row_label), label_text(col_label)))
            if row_label == col_label and value != 1:
                raise OracleMismatch("diagonal multiplicity is not one")
            if value and row_label != col_label:
                order = combinat.label_order(row_label, col_label)
                if order not in ("gt",):
                    raise OracleMismatch(
                        "nonzero entry above the diagonal at (%s, %s)"
                        % (label_text(row_label), label_text(col_label)))


def blocks(r, s, field=None, **kw):
    """Partition of the labels into blocks (lists in canonical order)."""
    return decomposition_matrix(r, s, field=field, **kw).block_partition()


def semisimplicity(r, s, field=None, cache_dir=None):
    """(computed, predicted) semisimplicity; raises on disagreement."""
    spec = _as_spec(field)
    tab = _resolve_table(r, s, spec, cache_dir=cache_dir)
    if _residue_certified(r, s, spec, tab, traces=False):
        return True, True
    computed = True
    for label in combinat.enumerate_labels(r, s):
        gram = gram_matrix(r, s, label, table=tab)
        if gram.rank != gram.dim:
            computed = False
            break
    predicted = predicted_semisimple(r, s, spec)
    if computed != predicted:
        raise OracleMismatch(
            "computed semisimplicity %r disagrees with the criterion %r "
            "at (%d,%d), %s" % (computed, predicted, r, s, spec.to_string()))
    return computed, predicted


# ---------------------------------------------------------------------------
# oracle comparisons
# ---------------------------------------------------------------------------

def blocks1_applicable(r, s, spec):
    """Hypothesis for the layer-reduction statements: no rho^2 = q^(2a)
    clash in the relevant window."""
    return not rho_square_power_clash(spec, r + s - 2)


def blocks1_comparison(r, s, field=None, dec=None, cache_dir=None):
    """Entrywise check that multiplicities only connect equal contraction
    layers, and that each layer reproduces the layer-zero multiplicities
    of the smaller algebra with both strand counts reduced by f.

    Layers whose reference algebra has no strands of one colour are
    compared against the identity when at most one strand remains, and
    skipped otherwise.
    """
    spec = _as_spec(field)
    if dec is None:
        dec = decomposition_matrix(r, s, field=spec, cache_dir=cache_dir)
    for i, row_label in enumerate(dec.rows):
        for j, col_label in enumerate(dec.columns):
            if row_label.f != col_label.f and dec.entries[i][j]:
                return False
    fs = sorted(set(label.f for label in dec.rows if label.f > 0))
    for f in fs:
        rows_f = [label for label in dec.rows if label.f == f]
        cols_f = [label for label in dec.columns if label.f == f]
        sub_r, sub_s = r - f, s - f
        if min(sub_r, sub_s) >= 1:
            sub = decomposition_matrix(sub_r, sub_s, field=spec,
                                       cache_dir=cache_dir)
            sub_rows = [l for l in sub.rows if l.f == 0]
            sub_cols = [l for l in sub.columns if l.f == 0]
            if [(l.lam1, l.lam2) for l in rows_f] != \
                    [(l.lam1, l.lam2) for l in sub_rows]:
                return False
            if [(l.lam1, l.lam2) for l in cols_f] != \
                    [(l.lam1, l.lam2) for l in sub_cols]:
                return False
            for row_label, sub_row in zip(rows_f, sub_rows):
                for col_label, sub_col in zip(cols_f, sub_cols):
                    if dec.entry(row_label, col_label) != \
                            sub.entry(sub_row, sub_col):
                        return False
        elif max(sub_r, sub_s) <= 1:
            # the reference degenerates to a ground ring or a single strand
            if len(rows_f) != len(cols_f):
                return False
            for row_label in rows_f:
                for col_label in cols_f:
                    want = 1 if row_label == col_label else 0
                    if dec.entry(row_label, col_label) != want:
                        return False
        # a one-colour reference with two or more strands is out of scope
    return True


def _einfty_orders(r, s, a):
    """The two smallest primes m above max(6, |a| + r + s - 2), the orders
    of the roots of unity that ``einfty_comparison`` compares ``qpow:a``
    with.  On ``cyclo:m, rho = zeta^(a mod m)``, rho^2 = q^(2b) holds for
    every b = a mod m, so the field has the clashes of ``qpow:a`` and no
    other one exactly when every such b != a has |b| > r + s - 2, that is
    when m > |a| + r + s - 2.  A prime m > 6 also puts e = m above
    max(r, s) on every bundled shape.  On the grid, |a| <= 4 and r + s <= 4,
    so m is 7 and 11."""
    m, out = max(6, abs(a) + r + s - 2), []
    while len(out) < 2:
        m += 1
        if scalars._is_prime(m):
            out.append(m)
    return out


def einfty_comparison(r, s, field=None, dec=None, cache_dir=None):
    """For rho = q^a over transcendental q, the decomposition matrix must
    agree with the ones at the roots of unity of the orders
    ``_einfty_orders`` gives, carrying the same tie.
    Returns None for fields where the comparison does not apply.  ``dec``
    is the decomposition matrix at ``field`` when the caller has it.
    """
    spec = _as_spec(field)
    if spec.kind != "qpow":
        return None
    if dec is None:
        dec = decomposition_matrix(r, s, field=spec, cache_dir=cache_dir)
    for m in _einfty_orders(r, s, spec.tie):
        other_spec = FieldSpec.cyclotomic(m, spec.tie)
        other = decomposition_matrix(r, s, field=other_spec,
                                     cache_dir=cache_dir)
        if dec.rows != other.rows or dec.columns != other.columns:
            return False
        if dec.entries != other.entries:
            return False
    return True


# ---------------------------------------------------------------------------
# the alternative generator of a cell layer
# ---------------------------------------------------------------------------

def _alt_generator_element(label):
    """e^f m_{conjugate} g_{d} n_{lambda}, the classical generator of the
    cell layer written through the opposite symmetrizer."""
    f = label.f
    pair = (label.lam1, label.lam2)
    pairc = (combinat.conjugate(label.lam1), combinat.conjugate(label.lam2))
    _, t_col = combinat.initial_tableaux(pairc, f)
    elem = words.WordElement.from_word(words.e_power_letters(f))
    elem = elem * words.young_symmetrizer(pairc, f, sign=False)
    elem = elem * words.WordElement.from_word(words.d_letters(t_col))
    elem = elem * words.young_symmetrizer(pair, f, sign=True)
    return elem


def alt_cell_realization_check(r, s, label, field=None, cache_dir=None,
                               table=None):
    """The right module generated by the alternative element inside the
    quotient by the higher-label ideal must match the cell module of the
    label: same dimension and the same trace of every basis word."""
    spec = _as_spec(field)
    tab = _resolve_table(r, s, spec, cache_dir=cache_dir, table=table)
    dim = engine.cell_layout(r, s)[label][1]
    ctx = tab.ctx
    nbasis = tab.size
    higher = [p for p in range(nbasis)
              if combinat.label_order(tab.basis[p].label, label) == "gt"]
    higher_set = set(higher)

    def project(vec):
        return [ctx.zero() if p in higher_set else vec[p]
                for p in range(nbasis)]

    generator = project(tab.expand_word_element(_alt_generator_element(label)))
    for p in range(nbasis):
        if generator[p]:
            order = combinat.label_order(tab.basis[p].label, label)
            if order != "eq":
                raise OracleMismatch(
                    "the alternative generator leaves its layer at %s"
                    % label_text(label))
    if not any(generator):
        return False
    letters = engine.generator_letters(r, s)
    frontier = [generator]
    basis_vectors = [generator]
    while frontier:
        new_frontier = []
        for vec in frontier:
            for letter in letters:
                image = project(
                    linalg.mat_vec(ctx, tab.action.letter(letter), vec))
                grown = basis_vectors + [image]
                if linalg.rank(ctx, grown) == len(grown):
                    new_frontier.append(image)
                    basis_vectors = grown
        frontier = new_frontier
    if len(basis_vectors) != dim:
        return False
    # traces of every basis word must match the cell module layer
    reference = _layer_trace_table(tab, label)
    for b in range(nbasis):
        images = []
        for vec in basis_vectors:
            image = [ctx.zero()] * nbasis
            for a in range(nbasis):
                if not vec[a]:
                    continue
                for c, val in tab.product(a, b).items():
                    image[c] += vec[a] * val
            images.append(project(image))
        coords = linalg.span_coordinates(ctx, basis_vectors, images)
        if coords is None:
            return False
        trace = sum((row[i] for i, row in enumerate(coords)), ctx.zero())
        if trace != reference[b]:
            return False
    return True


# ---------------------------------------------------------------------------
# the image inside endomorphisms of the tensor space
# ---------------------------------------------------------------------------

def _operator_rows(n, r, s, basis, ctx=None, value=None):
    """The operator of each basis word on the tensor space over rho = q^n,
    as a sparse row ``{i * width + j: entry}``: position i * width + j
    holds the coefficient of the i-th standard basis vector in the image
    of the j-th, in the lexicographic order of the width standard indices.
    Entries are values in ``ctx`` (default None, ``Laurent`` polynomials),
    each passed through ``value`` when it is given.  One kernel call on
    the tagged standard basis (``tensor.tagged_basis``) applies every
    basis word; each image is read straight into its row and dropped."""
    indices = list(itertools.product(range(1, n + 1), repeat=r + s))
    slot = {idx: k for k, idx in enumerate(indices)}
    width = len(indices)
    images = tensor.act_word(tensor.tagged_basis(indices, ctx),
                             [rec.element for rec in basis], n, r, s)
    rows = []
    for k, image in enumerate(images):
        images[k] = None
        rows.append({slot[out[:-1]] * width + out[-1]:
                     x if value is None else value(x)
                     for out, x in image.entries.items()})
    return rows


def _laurent_rows(n, r, s, basis):
    """The rows of ``_operator_rows`` over rho = q^n as sparse rows
    ``{column: k}`` into a list of the distinct ``Laurent`` entries, and
    the position of each column: ``(rows, values, support)``.

    Only the positions where some row is nonzero are columns, in their
    order; a position that is zero as a Laurent polynomial is zero at
    every q = t, so dropping it changes neither the rank, nor which
    columns are pivots, nor the left kernel."""
    distinct = {}
    values = []

    def intern(value):
        key = tuple(sorted(value.items()))
        k = distinct.get(key)
        if k is None:
            k = distinct[key] = len(values)
            values.append(value)
        return k

    sparse = _operator_rows(n, r, s, basis, value=intern)
    support = sorted(set().union(*sparse))
    column = {pos: k for k, pos in enumerate(support)}
    rows = [{column[pos]: k for pos, k in row.items()} for row in sparse]
    return rows, values, support


def _residue_rank(n, r, s, basis):
    """The rank mod p of the operator rows at q = 2, rho = 2^n, built on
    the residues mod the first prime of ``linalg._MODP_PRIMES``.  Their
    entries are the images of the Laurent entries under a ring map to
    Z/p, so every minor that is nonzero mod p is nonzero over Q(q): the
    rank never exceeds the rank over the field."""
    prime = linalg._MODP_PRIMES[0]
    rows = _operator_rows(n, r, s, basis,
                          RationalPointContext(2, n, prime))
    support = sorted(set().union(*rows))
    dense = [[row.get(pos, 0) for pos in support] for row in rows]
    return linalg.modp_rank(dense, prime)[0]


def _rows_at(ctx, operator):
    """The rows of ``_laurent_rows`` evaluated exactly at the rational
    point of ``ctx`` and multiplied by one common positive integer, the
    lcm of the denominators of the distinct values, as dense lists of
    ints; each distinct entry is evaluated and scaled once.  A common
    factor changes neither the modular rank, nor the pivots, nor the left
    kernel."""
    rows, values, support = operator
    t = ctx.qval
    at = [value(t) for value in values]
    scale = math.lcm(*{x.denominator for x in at})
    at = [x.numerator * (scale // x.denominator) for x in at]
    out = []
    for row in rows:
        dense = [0] * len(support)
        for col, k in row.items():
            dense[col] = at[k]
        out.append(dense)
    return out


def _fit_rational(points, values, check_points, check_values):
    """Fit value(t) = P(t)/Q(t) with deg P, Q <= d, exact, smallest d that
    also matches the held-out points; returns (P, Q) coefficient lists."""
    plain = RationalPointContext(2, 0)
    for d in range(0, (len(points) - 1) // 2 + 1):
        need = 2 * d + 2
        if need > len(points):
            break
        rows = []
        for t, v in zip(points, values):
            tq = Fraction(t)
            row = [tq ** k for k in range(d + 1)]
            row.extend(-v * tq ** k for k in range(d + 1))
            rows.append(row)
        for vec in linalg.kernel_basis(plain, rows, 2 * (d + 1)):
            pcoeffs = vec[: d + 1]
            qcoeffs = vec[d + 1:]
            if all(c == 0 for c in qcoeffs):
                continue
            ok = True
            for t, v in zip(check_points, check_values):
                tq = Fraction(t)
                qval = sum(Fraction(c) * tq ** k
                           for k, c in enumerate(qcoeffs))
                pval = sum(Fraction(c) * tq ** k
                           for k, c in enumerate(pcoeffs))
                if qval == 0 or pval != v * qval:
                    ok = False
                    break
            if ok:
                return [Fraction(c) for c in pcoeffs], \
                    [Fraction(c) for c in qcoeffs]
    raise RankCertificationFailed("no small rational function fits the data")


def _poly_scalar(spec, coeffs):
    total = scalars.zero(spec)
    for k, c in enumerate(coeffs):
        if c:
            total = total + scalars.monomial(spec, c, k, 0)
    return total


def schur_weyl_rank(n, r, s):
    """Exact dimension of the image of the algebra inside the endomorphism
    ring of the mixed tensor space with ``n`` rows.

    The operator rows of the basis words are first built on residues at
    q = 2 (``_residue_rank``): that rank never exceeds the rank over the
    field, and the row count, (r+s)!, bounds it above, so when it is full
    it is the answer and no Laurent row is built.  Otherwise the rows are
    built once, as Laurent polynomials on the positions where some row is
    nonzero, and evaluated exactly at each rational sample point.  The
    lower bound is a modular rank at such a point; when it falls short of
    the number of basis words, the gap is certified by exhibiting
    symbolically verified kernel elements.  The evaluated rows and pivots
    of the two lower-bound points are reused as sample points.
    """
    basis = engine.cell_basis(r, s)
    nbasis = len(basis)
    if _residue_rank(n, r, s, basis) == nbasis:
        return nbasis
    operator = _laurent_rows(n, r, s, basis)
    lower = 0
    sampled = {}
    for t in (2, 3):
        rows = _rows_at(RationalPointContext(t, n), operator)
        rank_t, pivots = linalg.modp_rank_robust(rows)
        sampled[t] = rows, pivots
        lower = max(lower, rank_t)
        if lower == nbasis:
            return nbasis
    gap = nbasis - lower
    kernels = _kernel_interpolation(n, r, s, basis, gap, operator, sampled)
    if len(kernels) != gap:
        raise RankCertificationFailed(
            "found %d certified kernel elements, wanted %d"
            % (len(kernels), gap))
    return lower


def _kernel_interpolation(n, r, s, basis, gap, operator, sampled):
    """Canonical kernel vectors over the rho = q^n field, interpolated from
    rational sample points and then verified symbolically.

    At each point q = t, the rows of ``operator`` (from ``_laurent_rows``)
    are evaluated exactly, as integer rows (``_rows_at``), and
    ``linalg.certified_kernel`` solves only the columns that the modular
    rank picks as pivots and checks the result exactly on every column.  ``sampled`` maps the points that the lower
    bound already evaluated to their ``(rows, pivots)``.
    """
    nbasis = len(basis)
    sample_ts = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]
    per_point = []
    for t in sample_ts:
        ctx = RationalPointContext(t, n)
        if t in sampled:
            rows, pivots = sampled[t]
        else:
            rows = _rows_at(ctx, operator)
            pivots = linalg.modp_rank_robust(rows)[1]
        kern = linalg.certified_kernel(ctx, rows, pivots)
        if len(kern) != gap:
            raise RankCertificationFailed(
                "kernel dimension varies across sample points")
        per_point.append(kern)
    spec = FieldSpec.qpower(n)
    fit_ts, check_ts = sample_ts[:-3], sample_ts[-3:]
    out = []
    for which in range(gap):
        entries = []
        for pos in range(nbasis):
            vals = [kern[which][pos] for kern in per_point]
            fit_vals, check_vals = vals[:-3], vals[-3:]
            if not any(vals):
                entries.append(scalars.zero(spec))
                continue
            pc, qc = _fit_rational(fit_ts, fit_vals, check_ts, check_vals)
            entries.append(_poly_scalar(spec, pc) / _poly_scalar(spec, qc))
        _verify_kernel_element(n, r, s, basis, spec, entries)
        out.append(entries)
    return out


def _verify_kernel_element(n, r, s, basis, spec, entries):
    """Exact check: the combination annihilates every standard index.

    The entries P_a / Q_a are brought over the common denominator, which
    is nonzero, into one ``WordElement`` X = sum_a P_a * prod_{b != a} Q_b
    * basis[a]; X kills the tensor space exactly when the combination
    does.  One ``act_word`` call on the tagged standard basis
    (``tensor.tagged_basis``) gives the image of every standard index at
    once, and they all vanish exactly when that one image does."""
    ctx = FieldContext(spec)
    fractions = [(a, entries[a].to_laurent()) for a in range(len(basis))
                 if entries[a]]
    if not fractions:
        raise RankCertificationFailed("interpolated kernel element is zero")
    combination = words.WordElement.zero()
    for a, (num, _) in fractions:
        for b, (_, den) in fractions:
            if b != a and den is not None:
                num = num * den
        for exp, c in num.items():
            combination = combination + basis[a].element.scaled(c, exp)
    indices = list(itertools.product(range(1, n + 1), repeat=r + s))
    if not tensor.act_word(tensor.tagged_basis(indices, ctx), combination,
                           n, r, s).is_zero():
        raise RankCertificationFailed(
            "the interpolated kernel element does not annihilate "
            "the tensor space")


# ---------------------------------------------------------------------------
# presentation relations on the tensor space
# ---------------------------------------------------------------------------

def random_tensor_vector(ctx, n, size, rng):
    """A sparse random vector of at most four small monomial terms."""
    entries = {}
    for _ in range(4):
        idx = tuple(rng.randrange(1, n + 1) for _ in range(size))
        entries[idx] = ctx.from_monomial(rng.randrange(1, 5),
                                         rng.randrange(-2, 3))
    return tensor.TensorVector(ctx, entries)


def relation_suite(r, s, field=None, n=None, sample=None, seed=11):
    """Names of defining relations that fail as exact operator identities
    on the tensor space (empty list means the whole suite holds), in the
    order of ``words.presentation_relations``.

    By default every standard basis vector is checked; ``sample`` switches
    to that many pseudo-random vectors drawn from ``seed``.  Each vector
    gets its position as a trailing index entry, which the letters never
    read or move, so one kernel call applies every relation difference to
    all of them at once and the images stay apart; a relation fails when
    its image is nonzero.
    """
    n = (r + s) if n is None else n
    spec = FieldSpec.qpower(n) if field is None else _as_spec(field)
    ctx = FieldContext(spec)
    if sample is None:
        vectors = [tensor.TensorVector.basis(ctx, idx)
                   for idx in itertools.product(range(1, n + 1),
                                                repeat=r + s)]
    else:
        rng = random.Random(seed)
        vectors = [random_tensor_vector(ctx, n, r + s, rng)
                   for _ in range(sample)]
    tagged = tensor.TensorVector(ctx, {
        idx + (k,): value for k, v in enumerate(vectors)
        for idx, value in v.entries.items()})
    relations = words.presentation_relations(r, s)
    images = tensor.act_word(tagged, [lhs - rhs for _, lhs, rhs in relations],
                             n, r, s)
    return [name for (name, _, _), image in zip(relations, images)
            if not image.is_zero()]


# ---------------------------------------------------------------------------
# singular vector dimensions
# ---------------------------------------------------------------------------

def singular_dimension_check(r, s, field=None, n=None):
    """For every label: the singular vectors are independent, annihilated
    by all divided powers, and span the full singular space of their
    weight.  Returns {label: dimension}."""
    n = (r + s) if n is None else n
    spec = FieldSpec.qpower(n) if field is None else _as_spec(field)
    ctx = FieldContext(spec)
    out = {}
    for label in combinat.enumerate_labels(r, s):
        # the tableaux run over the componentwise conjugate shape, the
        # coset representatives are shared with the cell basis
        vectors = [tensor.singular_vector(label, t, d, n, spec)
                   for t, d in words.cell_index_set(label.conjugate(), r, s)]
        _singular_span(ctx, label, vectors, OracleMismatch)
        for vec in vectors:
            for i in range(1, n):
                for ell in range(1, r + s + 1):
                    image = tensor.act_divided_power(vec, i, ell, n, r, s)
                    if not image.is_zero():
                        raise OracleMismatch(
                            "a vector is not singular at %s"
                            % label_text(label))
        first = next(iter(vectors[0].items()))[0]
        wt = tensor.weight_of_index(first, n, r, s)
        space = tensor.singular_space(wt, n, r, s, spec=spec)
        if len(space) != len(vectors):
            raise OracleMismatch(
                "the singular space at %s has dimension %d, expected %d"
                % (label_text(label), len(space), len(vectors)))
        out[label] = len(vectors)
    return out


def _singular_span(ctx, label, vectors, dependent):
    """The coordinates of ``vectors`` over their joint support, and the map
    ``coords`` of a vector to its coordinates there.  Raises ``dependent``
    when the vectors are dependent; ``coords`` raises
    RankCertificationFailed on a vector outside the support."""
    support = sorted(set(idx for v in vectors for idx, _ in v.items()))
    slot = {idx: k for k, idx in enumerate(support)}

    def coords(vec):
        out = [ctx.zero()] * len(support)
        for idx, value in vec.items():
            if idx not in slot:
                raise RankCertificationFailed(
                    "the singular span is not stable at %s"
                    % label_text(label))
            out[slot[idx]] = value
        return out

    basis = [coords(vec) for vec in vectors]
    if linalg.rank(ctx, basis) != len(basis):
        raise dependent(
            "singular vectors are dependent at %s" % label_text(label))
    return basis, coords


# ---------------------------------------------------------------------------
# route agreement and large-shape certificates
# ---------------------------------------------------------------------------

def _singular_module(r, s, label, spec, n):
    """The cell module of ``label`` as the span of singular vectors in the
    mixed tensor space with ``n`` rows, over ``spec``, which must tie rho
    to q^n: the vectors, and a ``words.WordAction`` over their coordinates.
    Raises OracleMismatch when a defining relation fails on it."""
    if not tensor.spec_matches_rho(spec, n):
        raise ValueError("singular vectors need the rho = q^%d tie" % n)
    ctx = FieldContext(spec)
    # the singular family of the componentwise conjugate label carries
    # the same symmetrizer type as the cellular layer of ``label``, so
    # the two constructions become comparable module for module
    vectors = [tensor.singular_vector(label.conjugate(), t, d, n, spec)
               for t, d in words.cell_index_set(label, r, s)]
    basis, coords = _singular_span(ctx, label, vectors,
                                   RankCertificationFailed)

    def source(letter):
        images = [coords(tensor.act_letters(vec, (letter,), n, r, s))
                  for vec in vectors]
        cols = linalg.span_coordinates(ctx, basis, images)
        if cols is None:
            raise RankCertificationFailed(
                "the singular span is not stable at %s" % label_text(label))
        return [list(row) for row in zip(*cols)]

    action = words.WordAction(ctx, len(vectors), source)
    for name, lhs, rhs in words.presentation_relations(r, s):
        if action.element(lhs) != action.element(rhs):
            raise OracleMismatch("relation %s fails on the cell module %s"
                                 % (name, label_text(label)))
    return vectors, action


def route_agreement(r, s, n=None, cache_dir=None):
    """Both constructions of every cell module at rho = q^n must agree on
    the Gram rank and on the trace of every basis word."""
    n = (r + s) if n is None else n
    spec = FieldSpec.qpower(n)
    tab = _resolve_table(r, s, spec, cache_dir=cache_dir)
    ctx = tab.ctx
    for label in combinat.enumerate_labels(r, s):
        table_traces = _layer_trace_table(tab, label)
        table_rank = gram_matrix(r, s, label, table=tab).rank
        vectors, action = _singular_module(r, s, label, spec, n)
        sing_traces = []
        for b in range(tab.size):
            mat = action.element(tab.basis[b].element)
            acc = ctx.zero()
            for j in range(len(vectors)):
                acc += mat[j][j]
            sing_traces.append(acc)
        form = [[tensor.contravariant_form(u, v, n, r, s)
                 for v in vectors] for u in vectors]
        sing_rank = linalg.rank(ctx, form)
        if table_rank != sing_rank:
            raise OracleMismatch(
                "Gram ranks disagree between the two constructions at %s"
                % label_text(label))
        for b in range(tab.size):
            if table_traces[b] != sing_traces[b]:
                raise OracleMismatch(
                    "trace tables disagree between the two constructions "
                    "at %s" % label_text(label))
    return True


def gram_certificate_numeric(r, s):
    """Certify that every Gram determinant is generically nonzero by exact
    evaluation at the rational sample points q = 2, 3, 5 (sound one-sided
    certificate), each on the coordinate system at rho = q^(r+s), built on
    the one support of ``engine.CoordinateSystem.build``."""
    labels = list(combinat.enumerate_labels(r, s))
    unresolved = set(range(len(labels)))
    n = r + s
    for t in (2, 3, 5):
        if not unresolved:
            break
        ctx = RationalPointContext(t, n)
        try:
            system = engine.CoordinateSystem.build(r, s, ctx=ctx, n=n)
        except RankCertificationFailed:
            continue

        def coefficient(a, b, c):
            # C_a * C_b on demand: only the Gram products are computed
            images = [tensor.act_word(img, system.basis[b].element, n, r, s)
                      for img in system.tensor_images[a]]
            coords = system._flatten(ctx, images, system.support)
            return system._solve(coords, check=False)[c]

        for li in list(unresolved):
            entries = _gram_entries(r, s, labels[li], coefficient)
            if linalg.rank(ctx, entries) == len(entries):
                unresolved.discard(li)
    return not unresolved


# ---------------------------------------------------------------------------
# assembled results and emitters
# ---------------------------------------------------------------------------

def analyze(r, s, field=None, cache_dir=None):
    """Full exact report for one ground field: Gram ranks, decomposition
    matrix, blocks, and the oracle comparisons."""
    spec = _as_spec(field)
    dec = decomposition_matrix(r, s, field=spec, cache_dir=cache_dir)
    computed = dec.is_identity()
    predicted = predicted_semisimple(r, s, spec)
    blocks1 = blocks1_comparison(r, s, field=spec, dec=dec,
                                 cache_dir=cache_dir)
    einfty = einfty_comparison(r, s, field=spec, dec=dec,
                               cache_dir=cache_dir)
    return {
        "r": r,
        "s": s,
        "field": spec.to_string(),
        "labels": [label_text(label) for label in dec.rows],
        "gram_ranks": [dec.gram_ranks[label] for label in dec.rows],
        "decomposition": {
            "columns": [label_text(label) for label in dec.columns],
            "entries": dec.entries,
        },
        "blocks": [[label_text(label) for label in block]
                   for block in dec.block_partition()],
        "oracles": {
            "semisimple": {"computed": computed, "predicted": predicted},
            "blocks1": blocks1,
            "einfty": einfty,
        },
    }


def oracle_violations(result):
    """List of oracle identifiers that failed in an analysis result."""
    out = []
    oracles = result["oracles"]
    if oracles["semisimple"]["computed"] != oracles["semisimple"]["predicted"]:
        out.append("semisimple")
    spec = FieldSpec.from_string(result["field"])
    if oracles["blocks1"] is False and \
            blocks1_applicable(result["r"], result["s"], spec):
        out.append("blocks1")
    if oracles["einfty"] is False:
        out.append("einfty")
    return out


def result_to_latex(result):
    """LaTeX tabular of the decomposition matrix of a result."""
    columns = result["decomposition"]["columns"]
    lines = []
    lines.append("%% decomposition matrix, field %s" % result["field"])
    lines.append(r"\begin{tabular}{l%s}" % ("r" * len(columns)))
    header = " & ".join([""] + [_latex_label(c) for c in columns])
    lines.append(header + r" \\")
    lines.append(r"\hline")
    for label, row in zip(result["labels"],
                          result["decomposition"]["entries"]):
        cells = " & ".join([_latex_label(label)] + [str(v) for v in row])
        lines.append(cells + r" \\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def _latex_label(text):
    head, rest = text.split(",", 1)
    lam1, lam2 = rest.split("|")
    fmt = lambda lam: "(" + lam.strip("[]") + ")"
    return r"$(%s;\,%s,\,%s)$" % (head[2:], fmt(lam1), fmt(lam2))


def result_to_csv(result):
    """CSV with one row per label: gram rank then multiplicities."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "gram_rank"]
                    + list(result["decomposition"]["columns"]))
    for label, rank, row in zip(result["labels"], result["gram_ranks"],
                                result["decomposition"]["entries"]):
        writer.writerow([label, rank] + list(row))
    return buf.getvalue()
