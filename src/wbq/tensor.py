"""Mixed tensor space with its two commuting exact actions.

The space has basis ``v_{i|j}`` indexed by tuples ``i`` in {1..n}^r and
``j`` in {1..n}^s, realized as sparse mappings from index tuples to exact
coefficients.  The diagram algebra acts on the right by ``act_letters``
and ``act_word``, which both apply one letter at a time through the
kernel ``_act``.  The letters only multiply by q^{+-1}, +-(q - q^{-1})
and q^{2i-n-1}, and add, so over a field (``qpow:n``, or ``cyclo:m`` with
rho = zeta^a, a = n mod m) the kernel runs on ``scalars.Laurent``
polynomials in q: the vector's entries are lifted once on entry, over
one denominator (None unless some entry's denominator is not a
monomial, which no traffic creates), the word coefficients q^a rho^b
become q^{a+nb}, and each output entry is lowered to a field value and
divided by that denominator once.  The Laurent letter constants are
built once per n.  At a rational point, or its residues mod a prime, the
kernel runs on the point's own values with constants built once per
point and n; residues are accumulated as unreduced ints, and ``_lower``
reduces each output entry once.  A vector whose context is None lives on
the Laurent domain itself (rho = q^n): its entries are ``Laurent``
polynomials, which the kernel takes and returns unlifted and unlowered.

``act_word`` also takes a list of ``WordElement``s and returns the list of
their images of one vector, in one pass: the distinct words of all the
elements are walked in lexicographic order, so the image of every
distinct word prefix is computed once.  Many vectors go through one call
by tagging alone: each gets its position as a trailing index entry, which
the letters never read or move, so the images stay apart, and the caller
reads the tag off each output index (``tagged_basis`` tags the standard
basis vectors).  So ``CoordinateSystem._letter_columns`` takes a letter's
image of every support vector from one ``act_letters`` call, the
Schur-Weyl rows and their kernel check each come from one call on all
the standard basis vectors, and ``repthy.relation_suite`` applies every
relation to all its sample vectors in one call.

The quantum enveloping algebra of gl_n acts on the left by ``act_E``,
``act_F``, ``act_K`` and the divided powers E_i^{(ell)} on the same
domains.  The left action never needs rho = q^n, so it also runs over
``generic`` and ``cyclo:m`` with rho free, the two fields with no Laurent
form, on their own values (``_native``).  The matrix of E_i^ell on a
weight space is built once on the Laurent domain and divided exactly by
[ell]! in Z[q, q^{-1}].  The letters act in the convention of
``words.presentation_relations``: each braid letter has eigenvalues ``q``
and ``-q^{-1}``, so ``act_word`` reads a ``WordElement``'s coefficients as
written.

Index tuples list ``i_1..i_r`` then ``j_1..j_s``.  Physically the slots of
the tensor product run ``v_{i_r}, ..., v_{i_1}, w_{j_1}, ..., w_{j_s}``
from left to right; the left action applies coproduct twists in that
physical order.
"""

import operator
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product

from . import scalars
from .combinat import conjugate
from .errors import IndexOutOfRange, RankTooSmall
from .linalg import FieldContext, RationalPointContext, kernel_basis
from .words import WordElement, d_letters, young_symmetrizer


def spec_matches_rho(spec, n):
    """Whether the field identifies rho with q**n."""
    if spec.tie is None:
        return False
    if spec.kind == "qpow":
        return spec.tie == n
    return (spec.tie - n) % spec.m == 0


def _check_field(ctx, n):
    """A rational point or field must set rho = q^n; the Laurent domain
    (``ctx`` None) has it built in."""
    if isinstance(ctx, RationalPointContext):
        if ctx.rhoexp != n:
            raise ValueError(
                "evaluation point sets rho = q^%d but the tensor space "
                "needs rho = q^%d" % (ctx.rhoexp, n)
            )
    elif ctx is not None and not spec_matches_rho(ctx.spec, n):
        raise ValueError(
            "field %s does not identify rho with q^%d"
            % (scalars.FieldSpec.to_string(ctx.spec), n)
        )


class TensorVector:
    """Sparse vector in the mixed tensor space over a coefficient context."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx, entries=None):
        self.ctx = ctx
        self.entries = entries if entries is not None else {}

    @classmethod
    def basis(cls, ctx, idx):
        return cls(ctx, {tuple(idx): ctx.one()})

    def is_zero(self):
        return not self.entries

    def items(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        if not isinstance(other, TensorVector):
            return NotImplemented
        keys = set(self.entries) | set(other.entries)
        for idx in keys:
            a = self.entries.get(idx)
            b = other.entries.get(idx)
            if a is None:
                if b:
                    return False
            elif b is None:
                if a:
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None

    def __repr__(self):
        parts = []
        for idx, val in self.items():
            parts.append("%r: %r" % (idx, val))
        return "TensorVector{%s}" % ", ".join(parts)


def _accum(table, idx, val):
    if not val:
        return
    cur = table.get(idx)
    if cur is None:
        table[idx] = val
    else:
        new = cur + val
        if not new:
            del table[idx]
        else:
            table[idx] = new


def weight_of_index(idx, n, r, s):
    """Weight of a basis index: +1 per left entry, -1 per right entry."""
    wt = [0] * n
    for a in idx[:r]:
        wt[a - 1] += 1
    for b in idx[r:]:
        wt[b - 1] -= 1
    return tuple(wt)


@lru_cache(maxsize=None)
def _weight_spaces(n, r, s):
    """Every basis index tuple, grouped by weight in lexicographic order."""
    table = {}
    for idx in product(range(1, n + 1), repeat=r + s):
        table.setdefault(weight_of_index(idx, n, r, s), []).append(idx)
    return table


def weight_space(wt, n, r, s):
    """All basis index tuples of the given weight, in lexicographic order."""
    return list(_weight_spaces(n, r, s).get(tuple(wt), ()))


_LETTER_CONSTANTS = {}


def _native(ctx):
    """Whether the kernels run on the context's own values: at a rational
    point, and over the fields with no Laurent form, those where rho is
    free (``spec.tie`` None: ``generic`` and ``cyclo:m,rho=free``), which
    only the left action admits.  Every field that ties rho to a power of
    q lifts its values to ``Laurent`` polynomials in q, and ``ctx`` None
    is that domain."""
    if isinstance(ctx, FieldContext):
        return ctx.spec.tie is None
    return ctx is not None


def _monomials(ctx, n):
    """The monomial constructor of the kernel's domain: a native context's
    ``from_monomial``, or else that of Laurent polynomials in q, with
    rho = q^n."""
    if _native(ctx):
        return ctx.from_monomial

    def laurent(c, qexp=0, rhoexp=0):
        c = Fraction(c)
        return scalars.Laurent({qexp + n * rhoexp: c.numerator
                                if c.denominator == 1 else c})

    return laurent


def _constants(ctx, n):
    """q^{-1}, q, q^{-1} - q, q - q^{-1} and the e_1 weights q^{2i-n-1}
    (at position i) in the kernel's domain, built once per ``n`` and, for
    a rational point, per point; a point's key names its prime, so
    residues never stand in for Fractions.  A field and ``ctx`` None share
    the Laurent constants."""
    point = ((ctx.qval, ctx.prime) if isinstance(ctx, RationalPointContext)
             else None)
    key = (point, n)
    consts = _LETTER_CONSTANTS.get(key)
    if consts is None:
        monomial = _monomials(ctx, n)
        qinv = monomial(1, -1)
        qpos = monomial(1, 1)
        weights = [None] + [monomial(1, 2 * i - n - 1)
                            for i in range(1, n + 1)]
        consts = (qinv, qpos, qinv - qpos, qpos - qinv, weights)
        _LETTER_CONSTANTS[key] = consts
    return consts


def _lift(v):
    """The entries of ``v`` in the kernel's domain over one denominator, as
    ``(den, entries)``.  A native context's entries and the Laurent
    domain's are taken as they are, with ``den`` None.  On a field with a
    Laurent form ``den`` is None too unless some entry's denominator is
    not a monomial; then it is the product of the distinct such
    denominators, and each numerator is scaled by that product over its
    own denominator."""
    if v.ctx is None or _native(v.ctx):
        return None, v.entries
    entries, odd = {}, []
    for idx, val in v.entries.items():
        num, den = val.to_laurent()
        if den is None:
            entries[idx] = num
        else:
            odd.append((idx, num, tuple(sorted(den.items()))))
    if not odd:
        return None, entries
    keys = dict.fromkeys(key for _, _, key in odd)
    total = reduce(operator.mul, map(scalars.Laurent, keys))
    cofactors = {key: total / scalars.Laurent(key) for key in keys}
    for idx, num in entries.items():
        entries[idx] = num * total
    for idx, num, key in odd:
        entries[idx] = num * cofactors[key]
    return total, entries


def _lower(ctx, den, entries):
    """The field values of kernel ``entries``, divided by ``den``.  A
    native context's entries are its own values already, as are those of
    the Laurent domain, and are returned as they are.  Otherwise they go
    into a fresh dict: a residue context's ints reduced once each, a
    field's Laurent polynomials lowered once each, and zeros dropped."""
    if ctx is None or (_native(ctx) and not ctx.prime):
        return entries
    out = {}
    if ctx.prime:
        for idx, val in entries.items():
            val %= ctx.prime
            if val:
                out[idx] = val
        return out
    spec = ctx.spec
    lower = scalars.Scalar.from_laurent
    divisor = None if den is None else lower(spec, den)
    for idx, val in entries.items():
        val = lower(spec, val)
        if val:
            out[idx] = val if divisor is None else val / divisor
    return out


def _act(entries, letter, n, r, s, consts):
    """Apply one letter to a coefficient dict and return the new dict.

    A braid letter scales an equal slot pair by q and swaps an unequal one,
    which keeps (q - q^{-1}) times itself when descending (the left factors
    are written in reversed slot order).  Its inverse, g - (q - q^{-1}),
    scales by q^{-1} and keeps (q^{-1} - q) times an ascending pair.  These
    lines are the only place that knows the braid eigenvalues.
    """
    qinv, qpos, down, up, weights = consts
    kind = letter[0]
    out = {}
    if kind in ("g", "gi", "gs", "gsi"):
        k = letter[1]
        if kind in ("g", "gi"):
            if not 1 <= k <= r - 1:
                raise IndexOutOfRange("g_%d needs 1 <= %d <= r-1 = %d" % (k, k, r - 1))
            p = k - 1
        else:
            if not 1 <= k <= s - 1:
                raise IndexOutOfRange("g*_%d needs 1 <= %d <= s-1 = %d" % (k, k, s - 1))
            p = r + k - 1
        if kind in ("g", "gs"):
            same, ascending, descending = qpos, None, up
        else:
            same, ascending, descending = qinv, down, None
        for idx, coeff in entries.items():
            a, b = idx[p], idx[p + 1]
            if a == b:
                _accum(out, idx, coeff * same)
                continue
            _accum(out, idx[:p] + (b, a) + idx[p + 2 :], coeff)
            keep = ascending if a < b else descending
            if keep is not None:
                _accum(out, idx, coeff * keep)
    elif kind == "e":
        if r < 1 or s < 1:
            raise IndexOutOfRange("e_1 needs r >= 1 and s >= 1")
        for idx, coeff in entries.items():
            if idx[0] != idx[r]:
                continue
            c = coeff * weights[idx[0]]
            middle = idx[1:r]
            tail = idx[r + 1 :]
            for t in range(1, n + 1):
                _accum(out, (t,) + middle + (t,) + tail, c)
    else:
        raise IndexOutOfRange("unknown generator letter %r" % (letter,))
    return out


def act_letters(v, letters, n, r, s):
    """Apply a product of letters left to right (right action).

    Each letter is a tuple: ("e",), ("g", k), ("gs", k), ("gi", k) or
    ("gsi", k).
    """
    ctx = v.ctx
    _check_field(ctx, n)
    consts = _constants(ctx, n)
    den, entries = _lift(v)
    for letter in letters:
        entries = _act(entries, letter, n, r, s, consts)
    return TensorVector(ctx, _lower(ctx, den, entries))


def act_word(v, element, n, r, s):
    """Right action of a ``WordElement``, or of each element of a list of
    them (returning the list of images): each coefficient, read as
    written with rho = q^n, scales the image of its word.

    The distinct words of all the elements are walked in lexicographic
    order, so the words that share a prefix are neighbours: the image of
    every distinct prefix is computed once, and only the prefixes of the
    current word are kept."""
    ctx = v.ctx
    _check_field(ctx, n)
    consts = _constants(ctx, n)
    monomial = _monomials(ctx, n)
    single = isinstance(element, WordElement)
    elements = (element,) if single else element
    terms = []
    for pos, x in enumerate(elements):
        for word, bucket in x.terms.items():
            coeff = None
            for (a, b), c in bucket.items():
                term = monomial(c, a, b)
                coeff = term if coeff is None else coeff + term
            if coeff:
                terms.append((word, pos, coeff))
    terms.sort(key=operator.itemgetter(0))
    den, entries = _lift(v)
    outs = [{} for _ in elements]
    # path[k] is the image of the first k letters of ``last``
    path, last, part = [entries], (), entries
    for word, pos, coeff in terms:
        if word != last:
            k = 0
            for a, b in zip(last, word):
                if a != b:
                    break
                k += 1
            del path[k + 1:]
            part = path[-1]
            for letter in word[k:]:
                part = _act(part, letter, n, r, s, consts)
                path.append(part)
            last = word
        image = outs[pos]
        for idx, val in part.items():
            _accum(image, idx, coeff * val)
    # the prefix images and each image are dropped once lowered, so a
    # residue image and its reduced copy do not pile up
    path = part = None
    for pos, image in enumerate(outs):
        outs[pos] = _lower(ctx, den, image)
    if single:
        return TensorVector(ctx, outs[0])
    return [TensorVector(ctx, out) for out in outs]


def tagged_basis(indices, ctx=None):
    """The standard basis vectors of ``indices`` as one vector over ``ctx``
    (default None, the Laurent domain), each tagged with its position in
    ``indices`` as a trailing index entry.  The letters never read or move
    that entry, so one kernel call acts on all of them and their images
    stay apart."""
    one = scalars.Laurent({0: 1}) if ctx is None else ctx.one()
    return TensorVector(ctx, {idx + (col,): one
                              for col, idx in enumerate(indices)})


def _slot_pairings(idx, n, r, s, i):
    """Per physical slot, the pairing of alpha_i with the slot weight."""
    vals = []
    for p in range(1, r + 1):
        j = idx[r - p]
        vals.append((1 if j == i else 0) - (1 if j == i + 1 else 0))
    for p in range(r + 1, r + s + 1):
        j = idx[p - 1]
        vals.append((1 if j == i + 1 else 0) - (1 if j == i else 0))
    return vals


def _act_left(v, n, images):
    """The left action of the operator that sends each basis index to the
    sum of c q^k times the index ``new``, over the ``(new, c, k)`` of
    ``images(idx)``, run in the kernel's domain."""
    ctx = v.ctx
    monomial = _monomials(ctx, n)
    den, entries = _lift(v)
    image = {}
    for idx, coeff in entries.items():
        for new, c, k in images(idx):
            _accum(image, new, coeff * monomial(c, k))
    return TensorVector(ctx, _lower(ctx, den, image))


def _check_root(name, i, n):
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange("%s_%d needs 1 <= %d <= n-1 = %d"
                              % (name, i, i, n - 1))


def act_E(v, i, n, r, s):
    """Left action of the raising generator E_i (weight goes up by alpha_i)."""
    _check_root("E", i, n)

    def images(idx):
        vals = _slot_pairings(idx, n, r, s, i)
        suffix = sum(vals)
        for p in range(r + s):
            suffix -= vals[p]
            if p < r:
                pos = r - 1 - p
                if idx[pos] == i + 1:
                    yield idx[:pos] + (i,) + idx[pos + 1 :], 1, -suffix
            elif idx[p] == i:
                yield idx[:p] + (i + 1,) + idx[p + 1 :], -1, -suffix - 1

    return _act_left(v, n, images)


def act_F(v, i, n, r, s):
    """Left action of the lowering generator F_i (weight drops by alpha_i)."""
    _check_root("F", i, n)

    def images(idx):
        vals = _slot_pairings(idx, n, r, s, i)
        prefix = 0
        for p in range(r + s):
            if p < r:
                pos = r - 1 - p
                if idx[pos] == i:
                    yield idx[:pos] + (i + 1,) + idx[pos + 1 :], 1, prefix
            elif idx[p] == i + 1:
                yield idx[:p] + (i,) + idx[p + 1 :], -1, prefix + 1
            prefix += vals[p]

    return _act_left(v, n, images)


def act_K(v, h, n, r, s):
    """Left action of the torus element q^h.

    ``h`` is either an integer coordinate (1-based: q^{h_i} scales a weight
    vector by q^{weight_i}) or an integer tuple of length n pairing with the
    full weight.
    """
    if isinstance(h, int):
        if not 1 <= h <= n:
            raise IndexOutOfRange("q^h coordinate %d out of range" % h)
        h = tuple(int(k == h) for k in range(1, n + 1))
    elif len(h) != n:
        raise IndexOutOfRange("torus tuple must have length n")

    def images(idx):
        wt = weight_of_index(idx, n, r, s)
        return [(idx, 1, sum(a * b for a, b in zip(h, wt)))]

    return _act_left(v, n, images)


@lru_cache(maxsize=None)
def _qfactorial(ell):
    """[ell]! as a ``Laurent`` polynomial in q."""
    return scalars.quantum_factorial(
        ell, scalars.FieldSpec.qpower(0)).to_laurent()[0]


@lru_cache(maxsize=None)
def _divided_power_table(n, r, s, i, ell, wt):
    """The matrix of E_i^{(ell)} on the weight space ``wt``, as ``{source:
    [(target, Laurent)]}``: E_i^ell acts on the Laurent domain and each
    entry is divided exactly by [ell]!, which raises
    ``IntegralityViolation`` if it leaves a remainder."""
    qfact = _qfactorial(ell)
    table = {}
    for src in weight_space(wt, n, r, s):
        vec = TensorVector(None, {src: scalars.Laurent({0: 1})})
        for _ in range(ell):
            vec = act_E(vec, i, n, r, s)
        table[src] = [(tgt, val / qfact) for tgt, val in vec.items()]
    return table


def act_divided_power(v, i, ell, n, r, s):
    """Left action of the divided power E_i^{(ell)} = E_i^ell / [ell]!.

    The matrix of E_i^ell is built once per weight space on the Laurent
    domain, and each entry is divided exactly by the quantum factorial in
    Z[q, q^{-1}] (``IntegralityViolation`` otherwise).  The entries then
    act in the kernel's domain: as they are on a lifted vector, through
    ``from_laurent`` on a native context.  This is what makes the operator
    meaningful at roots of unity where [ell]! vanishes.
    """
    _check_root("E", i, n)
    if ell < 0:
        raise IndexOutOfRange("divided power exponent must be nonnegative")
    ctx = v.ctx
    embed = ctx.from_laurent if _native(ctx) else None
    den, entries = _lift(v)
    image = {}
    for idx, coeff in entries.items():
        wt = weight_of_index(idx, n, r, s)
        for tgt, val in _divided_power_table(n, r, s, i, ell, wt)[idx]:
            _accum(image, tgt, coeff * (embed(val) if embed else val))
    return TensorVector(ctx, _lower(ctx, den, image))


def singular_space(wt, n, r, s, spec=None):
    """Reduced-echelon basis of the joint kernel of all divided powers.

    A vector is singular when every E_i^{(ell)} with 1 <= ell <= r+s
    kills it.  Over a field of characteristic-zero Laurent series this is
    the kernel of the E_i alone, but at roots of unity the higher divided
    powers impose genuinely new conditions.
    """
    wt = tuple(wt)
    ctx = FieldContext(spec if spec is not None else scalars.FieldSpec.generic())
    sources = weight_space(wt, n, r, s)
    if not sources:
        return []
    rows_by_key = {}
    for spos, src in enumerate(sources):
        base = TensorVector.basis(ctx, src)
        for i in range(1, n):
            for ell in range(1, r + s + 1):
                image = act_divided_power(base, i, ell, n, r, s)
                for tgt, val in image.entries.items():
                    rows_by_key.setdefault((i, ell, tgt), {})[spos] = val
    zero = ctx.zero()
    rows = [[row.get(k, zero) for k in range(len(sources))]
            for _, row in sorted(rows_by_key.items())]
    out = []
    for vec in kernel_basis(ctx, rows, len(sources)):
        entries = {}
        for pos, val in enumerate(vec):
            if val:
                entries[sources[pos]] = val
        out.append(TensorVector(ctx, entries))
    return out


def seed_vector(label, n, ctx=None):
    """The distinguished weight vector the singular vectors grow from.

    For a label with f contractions and bipartition (lambda1, lambda2) of
    (r - f, s - f), this is the sum over all kappa in {1..n}^f of the basis
    vector whose left index is (kappa, i-part) and right index is
    (kappa, j-part), where the parts are the column-reading sequences of
    the conjugate components.
    """
    f = label.f
    r = f + sum(label.lam1)
    s = f + sum(label.lam2)
    if n < r + s:
        raise RankTooSmall("need n >= r + s = %d, got %d" % (r + s, n))
    if ctx is None:
        ctx = FieldContext(scalars.FieldSpec.qpower(n))
    alpha = conjugate(label.lam1)
    beta = conjugate(label.lam2)
    i_part = []
    for k in range(r - f, 0, -1):
        ak = alpha[k - 1] if k - 1 < len(alpha) else 0
        i_part.extend(range(ak, 0, -1))
    j_part = []
    for k in range(1, s - f + 1):
        bk = beta[k - 1] if k - 1 < len(beta) else 0
        j_part.extend(range(n, n - bk, -1))
    i_part = tuple(i_part)
    j_part = tuple(j_part)
    entries = {}
    one = ctx.one()
    for kappa in product(range(1, n + 1), repeat=f):
        entries[kappa + i_part + kappa + j_part] = one
    return TensorVector(ctx, entries)


def singular_vector(label, t, d, n, spec=None):
    """The singular vector attached to (label, standard tableau, coset rep).

    ``t`` must be a standard bipartition tableau whose shape is the
    componentwise conjugate of the label's bipartition, and ``d`` a coset
    representative with the same number of contractions.  The vector is the
    seed vector multiplied on the right by n_{lambda'} g_{d(t)} g_d, and
    has weight ``phi_map(label, n)``.
    """
    f = label.f
    r = f + sum(label.lam1)
    s = f + sum(label.lam2)
    if n < r + s:
        raise RankTooSmall("need n >= r + s = %d, got %d" % (r + s, n))
    conj_pair = (conjugate(label.lam1), conjugate(label.lam2))
    if t.shape() != conj_pair or t.f != f:
        raise ValueError("tableau shape must be the conjugate bipartition")
    if d.f != f:
        raise ValueError("coset representative has the wrong contraction count")
    if spec is None:
        spec = scalars.FieldSpec.qpower(n)
    ctx = FieldContext(spec)
    base = seed_vector(label, n, ctx)
    element = young_symmetrizer(conj_pair, f, sign=True)
    element = element * WordElement.from_word(d_letters(t))
    element = element * WordElement.from_word(d.word)
    return act_word(base, element, n, r, s)


def _form_exponent(idx, n, r, s):
    jsum = sum(idx[r:])
    counts = [0] * (n + 1)
    for a in idx[:r]:
        counts[a] += 1
    jcounts = [0] * (n + 1)
    for b in idx[r:]:
        jcounts[b] += 1
    total = r + s * (n - 1)
    beta = total * (total - 1) // 2
    for value in range(1, n + 1):
        c = counts[value] + (s - jcounts[value])
        beta -= c * (c - 1) // 2
    return 2 * jsum + beta


def contravariant_form(x, y, n, r, s):
    """The diagonal contravariant form on the mixed tensor space.

    Basis vectors are orthogonal and ``(v_{i|j}, v_{i|j})`` is ``q`` raised
    to ``2(j_1 + ... + j_s)`` plus the number of unequal pairs in the
    concatenation of ``i`` with the complements of the ``j`` entries.  The
    form is symmetric and contravariant for the right action with respect
    to the word-reversing anti-involution.
    """
    ctx = x.ctx
    if ctx is not y.ctx:
        if isinstance(ctx, FieldContext) and isinstance(y.ctx, FieldContext):
            if ctx.spec != y.ctx.spec:
                raise ValueError("vectors live over different fields")
        else:
            raise ValueError("vectors live over different contexts")
    total = ctx.zero()
    for idx, val in x.entries.items():
        other = y.entries.get(idx)
        if not other:
            continue
        weight = ctx.from_monomial(1, _form_exponent(idx, n, r, s))
        total += val * other * weight
    return total
