"""Tests for the mixed tensor space and its two commuting actions."""

import operator
import random
from fractions import Fraction
from functools import reduce
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from wbq import combinat, engine, scalars, tensor, words
from wbq.errors import IndexOutOfRange, RankTooSmall
from wbq.linalg import FieldContext, RationalPointContext, rank
from wbq.scalars import FieldSpec
from wbq.tensor import TensorVector


def _ctx(n):
    return FieldContext(FieldSpec.qpower(n))


def _mono(ctx, c, a=0, b=0):
    return ctx.from_monomial(c, a, b)


def _combine(ctx, *terms):
    """The linear combination of ``(coefficient, vector)`` pairs."""
    out = {}
    for c, v in terms:
        for idx, val in v.entries.items():
            tensor._accum(out, idx, c * val)
    return TensorVector(ctx, out)


def _random_vector(ctx, n, size, rng, terms=4):
    entries = {}
    for _ in range(terms):
        idx = tuple(rng.randrange(1, n + 1) for _ in range(size))
        entries[idx] = ctx.from_monomial(rng.randrange(1, 5), rng.randrange(-2, 3))
    return TensorVector(ctx, entries)


def test_contraction_worked_example():
    ctx = _ctx(2)
    v = TensorVector.basis(ctx, (1, 1))
    image = tensor.act_letters(v, [("e",)], 2, 1, 1)
    qinv = _mono(ctx, 1, -1)
    assert image == TensorVector(ctx, {(1, 1): qinv, (2, 2): qinv})
    # mismatched first entries are killed
    w = TensorVector.basis(ctx, (1, 2))
    assert tensor.act_letters(w, [("e",)], 2, 1, 1).is_zero()
    # coefficient grows with the contracted letter: q^{-n-1+2i}
    ctx3 = _ctx(3)
    u = TensorVector.basis(ctx3, (2, 1, 2))
    image3 = tensor.act_letters(u, [("e",)], 3, 2, 1)
    assert image3.entries.get((1, 1, 1)) == _mono(ctx3, 1, 0)
    assert image3.entries.get((3, 1, 3)) == _mono(ctx3, 1, 0)


def test_braid_action_cases():
    ctx = _ctx(3)
    n, r, s = 3, 2, 1
    equal = TensorVector.basis(ctx, (2, 2, 1))
    assert tensor.act_letters(equal, [("g", 1)], n, r, s) == _combine(
        ctx, (_mono(ctx, 1, -1), equal)
    )
    descending = TensorVector.basis(ctx, (3, 1, 1))
    assert tensor.act_letters(descending, [("g", 1)], n, r, s) == (
        TensorVector.basis(ctx, (1, 3, 1))
    )
    ascending = TensorVector.basis(ctx, (1, 3, 1))
    got = tensor.act_letters(ascending, [("g", 1)], n, r, s)
    correction = _mono(ctx, 1, -1) - _mono(ctx, 1, 1)
    expected = _combine(ctx, (ctx.one(), TensorVector.basis(ctx, (3, 1, 1))),
                        (correction, ascending))
    assert got == expected
    # the right-hand braid letters use the same orientation on j-entries
    ctx13 = _ctx(3)
    desc_j = TensorVector.basis(ctx13, (1, 3, 1))
    assert tensor.act_letters(desc_j, [("gs", 1)], 3, 1, 2) == TensorVector.basis(
        ctx13, (1, 1, 3)
    )


def test_inverse_letters_compose_to_identity():
    rng = random.Random(2)
    for (r, s) in [(2, 1), (2, 2)]:
        n = r + s
        ctx = _ctx(n)
        v = _random_vector(ctx, n, r + s, rng)
        for pair in [
            (("g", 1), ("gi", 1)),
            (("gi", 1), ("g", 1)),
        ]:
            w = tensor.act_letters(v, [pair[0]], n, r, s)
            w = tensor.act_letters(w, [pair[1]], n, r, s)
            assert w == v
        if s > 1:
            w = tensor.act_letters(v, [("gs", 1)], n, r, s)
            w = tensor.act_letters(w, [("gsi", 1)], n, r, s)
            assert w == v


def _check_relations(r, s, spec=None, sample=None, seed=11):
    n = r + s
    if spec is None:
        spec = FieldSpec.qpower(n)
    ctx = FieldContext(spec)
    if sample is None:
        vectors = [
            TensorVector.basis(ctx, idx)
            for idx in product(range(1, n + 1), repeat=r + s)
        ]
    else:
        rng = random.Random(seed)
        vectors = [_random_vector(ctx, n, r + s, rng) for _ in range(sample)]
    failures = []
    for name, lhs, rhs in words.presentation_relations(r, s):
        for v in vectors:
            a = tensor.act_word(v, lhs, n, r, s)
            b = tensor.act_word(v, rhs, n, r, s)
            if not (a == b):
                failures.append(name)
                break
    return failures


def test_defining_relations_rank_two_and_three():
    for (r, s) in [(1, 1), (2, 1), (1, 2)]:
        assert _check_relations(r, s) == [], (r, s)


def test_defining_relations_rank_four():
    for (r, s) in [(2, 2), (3, 1), (1, 3)]:
        assert _check_relations(r, s) == [], (r, s)


def test_defining_relations_rank_five_random():
    for (r, s) in [(3, 2), (2, 3)]:
        assert _check_relations(r, s, sample=3) == [], (r, s)


def test_defining_relations_cyclotomic():
    spec = FieldSpec.cyclotomic(5, rho=3)  # zeta^3 = zeta^n with n = 3
    assert _check_relations(2, 1, spec=spec) == []


def test_act_word_conventions():
    ctx = _ctx(2)
    v = TensorVector.basis(ctx, (1, 2))
    q_unit = words.WordElement.unit(1, 1, 0)
    assert tensor.act_word(v, q_unit, 2, 1, 1) == _combine(
        ctx, (_mono(ctx, 1, -1), v))


def _all_letters(r, s):
    out = engine.generator_letters(r, s)
    return out + [(kind + "i", k) for kind, k in out[1:]]


def _reference_act_generator(v, x, n, r, s):
    """The right action of one letter written out the long way: one branch
    per braid family, constants rebuilt for every call."""
    ctx = v.ctx
    qinv = ctx.from_monomial(1, -1)
    qpos = ctx.from_monomial(1, 1)
    desc = qinv - qpos
    shift = qpos - qinv
    out = {}

    def accum(idx, val):
        out[idx] = out[idx] + val if idx in out else val

    kind = x[0]
    if kind in ("g", "gi"):
        k = x[1]
        for idx, coeff in v.entries.items():
            a, b = idx[k - 1], idx[k]
            if a == b:
                accum(idx, coeff * qinv)
            else:
                accum(idx[: k - 1] + (b, a) + idx[k + 1 :], coeff)
                if a < b:
                    accum(idx, coeff * desc)
            if kind == "gi":
                accum(idx, coeff * shift)
    elif kind in ("gs", "gsi"):
        p = r + x[1] - 1
        for idx, coeff in v.entries.items():
            a, b = idx[p], idx[p + 1]
            if a == b:
                accum(idx, coeff * qinv)
            else:
                accum(idx[:p] + (b, a) + idx[p + 2 :], coeff)
                if a < b:
                    accum(idx, coeff * desc)
            if kind == "gsi":
                accum(idx, coeff * shift)
    else:
        for idx, coeff in v.entries.items():
            if idx[0] != idx[r]:
                continue
            c = coeff * ctx.from_monomial(1, -n - 1 + 2 * idx[0])
            for t in range(1, n + 1):
                accum((t,) + idx[1:r] + (t,) + idx[r + 1 :], c)
    return TensorVector(ctx, out)


def _reference_act_word(v, element, n, r, s):
    ctx = v.ctx
    terms = []
    for word, c, a, b in element.monomials():
        w = v
        for letter in word:
            w = _reference_act_generator(w, letter, n, r, s)
        terms.append((ctx.from_monomial(c, -a, -b), w))
    return _combine(ctx, *terms)


def test_kernel_matches_reference_action():
    rng = random.Random(23)
    contexts = [
        FieldContext(FieldSpec.qpower(4)),
        FieldContext(FieldSpec.from_string("cyclo:4,rho=zeta^0")),
        RationalPointContext(3, 4),
    ]
    for ctx in contexts:
        for (r, s) in [(2, 2), (3, 1)]:
            letters = _all_letters(r, s)
            for _ in range(3):
                v = _random_vector(ctx, 4, r + s, rng, terms=12)
                for letter in letters:
                    got = tensor.act_letters(v, [letter], 4, r, s)
                    assert got == _reference_act_generator(v, letter, 4, r, s), (
                        ctx, r, s, letter)
                word = [rng.choice(letters) for _ in range(4)]
                expected = v
                for letter in word:
                    expected = _reference_act_generator(expected, letter, 4, r, s)
                assert tensor.act_letters(v, word, 4, r, s) == expected, word


# Several values of n over one field and several fields at one n, so that
# letter constants memoised under the wrong key give wrong images.
_SETTINGS = [
    (FieldContext(FieldSpec.qpower(3)), 3),
    (FieldContext(FieldSpec.qpower(4)), 4),
    (FieldContext(FieldSpec.cyclotomic(3, rho=0)), 3),
    (FieldContext(FieldSpec.cyclotomic(3, rho=0)), 6),
    (FieldContext(FieldSpec.cyclotomic(4, rho=0)), 4),
    (RationalPointContext(3, 3), 3),
    (RationalPointContext(3, 4), 4),
    (RationalPointContext(2, 4), 4),
]


def _word_elements():
    term = st.tuples(
        st.lists(st.sampled_from(_all_letters(2, 2)), max_size=3),
        st.integers(-3, 3).filter(bool),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )

    def build(terms):
        out = words.WordElement.zero()
        for word, c, qexp, rhoexp in terms:
            out = out + words.WordElement.from_word(word, c, qexp, rhoexp)
        return out

    return st.lists(term, min_size=1, max_size=3).map(build)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(range(len(_SETTINGS))), min_size=2, max_size=4,
             unique=True),
    _word_elements(),
    _word_elements(),
    st.integers(0, 2**32),
)
def test_act_word_is_a_linear_right_action(picks, x, y, seed):
    rng = random.Random(seed)
    for pick in picks:
        ctx, n = _SETTINGS[pick]
        v = _random_vector(ctx, n, 4, rng)
        vx = tensor.act_word(v, x, n, 2, 2)
        vy = tensor.act_word(v, y, n, 2, 2)
        assert tensor.act_word(v, x * y, n, 2, 2) == tensor.act_word(vx, y, n, 2, 2)
        one = ctx.one()
        assert tensor.act_word(v, x + y, n, 2, 2) == _combine(
            ctx, (one, vx), (one, vy))
        assert vx == _reference_act_word(v, x, n, 2, 2), (ctx, n)


@settings(max_examples=25, deadline=None)
@given(_word_elements(), st.sampled_from([2, 3]))
def test_basis_images_are_the_lifted_images_of_the_basis_vectors(x, n):
    # every standard basis vector at once on the Laurent domain, against
    # one act_word call per basis vector over qpow:n
    spec = FieldSpec.qpower(n)
    ctx = FieldContext(spec)
    images = tensor.basis_images(x, n, 2, 2)
    assert list(images) == list(product(range(1, n + 1), repeat=4))
    for idx, image in images.items():
        assert all(type(val) is scalars.Laurent and val
                   for val in image.values())
        lowered = {out: scalars.Scalar.from_laurent(spec, val)
                   for out, val in image.items()}
        want = tensor.act_word(TensorVector.basis(ctx, idx), x, n, 2, 2)
        assert TensorVector(ctx, lowered) == want


# The Scalar action that the Laurent lift replaced: the same kernel ``_act``
# fed with field constants and field coefficients, one field operation per
# term and no lift or lowering.
_SCALAR_CONSTANTS = {}


def _scalar_constants(ctx, n):
    key = (ctx.spec, n)
    consts = _SCALAR_CONSTANTS.get(key)
    if consts is None:
        qinv = ctx.from_monomial(1, -1)
        qpos = ctx.from_monomial(1, 1)
        weights = [None] + [ctx.from_monomial(1, 2 * i - n - 1)
                            for i in range(1, n + 1)]
        consts = (qinv, qpos, qinv - qpos, qpos - qinv, weights)
        _SCALAR_CONSTANTS[key] = consts
    return consts


def _scalar_act_word(v, element, n, r, s):
    ctx = v.ctx
    consts = _scalar_constants(ctx, n)
    out = {}
    for word, bucket in element.terms.items():
        coeff = reduce(operator.add, [ctx.from_monomial(c, -a, -b)
                                      for (a, b), c in bucket.items()])
        if not coeff:
            continue
        entries = v.entries
        for letter in word:
            entries = tensor._act(entries, letter, n, r, s, consts)
        for idx, val in entries.items():
            tensor._accum(out, idx, coeff * val)
    return TensorVector(ctx, out)


def _multi_word_elements(r, s, rng, count):
    letters = _all_letters(r, s)
    out = []
    for _ in range(count):
        element = words.WordElement.zero()
        for _ in range(rng.randint(2, 5)):
            word = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
            element = element + words.WordElement.from_word(
                word, rng.choice([-2, -1, 1, 3, Fraction(1, 2)]),
                rng.randint(-2, 2), rng.randint(-1, 1))
        out.append(element)
    return out


def test_laurent_action_matches_the_scalar_action():
    rng = random.Random(31)
    for spec, n, (r, s) in [(FieldSpec.qpower(4), 4, (2, 2)),
                            (FieldSpec.qpower(3), 3, (2, 1)),
                            (FieldSpec.cyclotomic(4, 0), 4, (2, 2)),
                            (FieldSpec.cyclotomic(3, 0), 6, (3, 1))]:
        ctx = FieldContext(spec)
        elements = _multi_word_elements(r, s, rng, 4)
        elements.append(words.young_symmetrizer(((2,), (1, 1)), 0, sign=True)
                        if (r, s) == (2, 2) else elements[0] * elements[1])
        vectors = [_random_vector(ctx, n, r + s, rng, terms=8)
                   for _ in range(2)]
        if spec.kind == "qpow":
            # rational-function entries: two share the denominator 1 + q,
            # one has another, one a monomial denominator
            q = _mono(ctx, 1, 1)
            v = _random_vector(ctx, n, r + s, rng, terms=3)
            for k, val in enumerate([q / (ctx.one() + q),
                                     (_mono(ctx, 2) - q * q) / (ctx.one() + q),
                                     _mono(ctx, 3) / (q * q + q - _mono(ctx, 5)),
                                     ctx.one() / _mono(ctx, 2, 1)]):
                v.entries[(k % n + 1,) + (1,) * (r + s - 1)] = val
            vectors.append(v)
        for v in vectors:
            for element in elements:
                assert tensor.act_word(v, element, n, r, s) == \
                    _scalar_act_word(v, element, n, r, s), (spec, element)
                word = next(iter(element.terms))
                assert tensor.act_letters(v, word, n, r, s) == \
                    _scalar_act_word(v, words.WordElement.from_word(word),
                                     n, r, s)


def test_index_out_of_range():
    ctx = _ctx(3)
    v = TensorVector.basis(ctx, (1, 2, 3))
    n, r, s = 3, 2, 1
    count = 0
    for letter in [("g", 0), ("g", 2), ("gs", 1), ("gsi", 1), ("x", 1)]:
        try:
            tensor.act_letters(v, [letter], n, r, s)
        except IndexOutOfRange:
            count += 1
    assert count == 5
    for call in [
        lambda: tensor.act_E(v, 0, n, r, s),
        lambda: tensor.act_E(v, 3, n, r, s),
        lambda: tensor.act_F(v, 3, n, r, s),
        lambda: tensor.act_K(v, 4, n, r, s),
        lambda: tensor.act_K(v, (1, 0), n, r, s),
        lambda: tensor.act_divided_power(v, 3, 2, n, r, s),
    ]:
        try:
            call()
        except IndexOutOfRange:
            count += 1
    assert count == 11


def test_field_must_tie_rho_to_rank():
    ctx = FieldContext(FieldSpec.generic())
    v = TensorVector.basis(ctx, (1, 1))
    bad = False
    try:
        tensor.act_letters(v, [("e",)], 2, 1, 1)
    except ValueError:
        bad = True
    assert bad
    wrong = FieldContext(FieldSpec.qpower(3))
    w = TensorVector.basis(wrong, (1, 1))
    bad = False
    try:
        tensor.act_word(w, words.WordElement.from_word((("e",),)), 2, 1, 1)
    except ValueError:
        bad = True
    assert bad
    # the left action never needs the identification
    qinv = _mono(ctx, 1, -1)
    assert tensor.act_E(v, 1, 2, 1, 1) == TensorVector(ctx, {(1, 2): -qinv})
    assert tensor.act_E(TensorVector.basis(ctx, (2, 1)), 1, 2, 1, 1) == (
        TensorVector(ctx, {(1, 1): _mono(ctx, 1, 1), (2, 2): -qinv})
    )


def test_left_action_worked_examples():
    ctx = _ctx(2)
    v11 = TensorVector.basis(ctx, (1, 1))
    v22 = TensorVector.basis(ctx, (2, 2))
    image = tensor.act_E(v11, 1, 2, 1, 1)
    assert image == TensorVector(ctx, {(1, 2): _mono(ctx, -1, -1)})
    one = ctx.one()
    assert tensor.act_E(_combine(ctx, (one, v11), (one, v22)),
                        1, 2, 1, 1).is_zero()
    # act_K scales by the weight entry
    v21 = TensorVector.basis(ctx, (2, 1))
    assert tensor.act_K(v21, 1, 2, 1, 1) == _combine(
        ctx, (_mono(ctx, 1, -1), v21))
    assert tensor.act_K(v21, 2, 2, 1, 1) == _combine(
        ctx, (_mono(ctx, 1, 1), v21))
    assert tensor.act_K(v21, (1, 1), 2, 1, 1) == v21


def test_quantum_group_axioms():
    rng = random.Random(7)
    for (n, r, s) in [(2, 1, 1), (3, 2, 1), (4, 2, 1), (4, 2, 2)]:
        ctx = _ctx(n)
        vecs = [_random_vector(ctx, n, r + s, rng) for _ in range(2)]

        def E(w, i):
            return tensor.act_E(w, i, n, r, s)

        def F(w, i):
            return tensor.act_F(w, i, n, r, s)

        def K(w, i, sign=1):
            h = [0] * n
            h[i - 1] = sign
            h[i] = -sign
            return tensor.act_K(w, tuple(h), n, r, s)

        one = ctx.one()
        shift = _mono(ctx, 1, 1) - _mono(ctx, 1, -1)
        two = _mono(ctx, 1, 1) + _mono(ctx, 1, -1)
        for v in vecs:
            for i in range(1, n):
                for j in range(1, n):
                    pairing = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                    assert K(E(K(v, i, -1), j), i) == _combine(
                        ctx, (_mono(ctx, 1, pairing), E(v, j))
                    )
                    commutator = _combine(ctx, (shift, E(F(v, j), i)),
                                          (-shift, F(E(v, i), j)))
                    if i == j:
                        rhs = _combine(ctx, (one, K(v, i)),
                                       (-one, K(v, i, -1)))
                    else:
                        rhs = TensorVector(ctx)
                    assert commutator == rhs
                    if abs(i - j) == 1:
                        serre_e = _combine(
                            ctx,
                            (one, E(E(E(v, j), i), i)),
                            (one, E(E(E(v, i), i), j)),
                            (-two, E(E(E(v, i), j), i)),
                        )
                        serre_f = _combine(
                            ctx,
                            (one, F(F(F(v, j), i), i)),
                            (one, F(F(F(v, i), i), j)),
                            (-two, F(F(F(v, i), j), i)),
                        )
                        assert serre_e.is_zero()
                        assert serre_f.is_zero()


def test_actions_commute():
    rng = random.Random(5)
    cases = [
        (1, 1, FieldSpec.qpower(2)),
        (2, 1, FieldSpec.qpower(3)),
        (2, 1, FieldSpec.cyclotomic(4, rho=3)),
        (2, 2, FieldSpec.qpower(4)),
    ]
    for r, s, spec in cases:
        n = r + s
        ctx = FieldContext(spec)
        letters = (
            [("e",)]
            + [("g", k) for k in range(1, r)]
            + [("gs", k) for k in range(1, s)]
            + [("gi", k) for k in range(1, r)]
            + [("gsi", k) for k in range(1, s)]
        )
        for _ in range(2):
            v = _random_vector(ctx, n, r + s, rng)
            for letter in letters:
                for i in range(1, n):
                    for left in (
                        lambda w, i=i: tensor.act_E(w, i, n, r, s),
                        lambda w, i=i: tensor.act_F(w, i, n, r, s),
                        lambda w, i=i: tensor.act_K(w, i, n, r, s),
                    ):
                        a = left(tensor.act_letters(v, [letter], n, r, s))
                        b = tensor.act_letters(left(v), [letter], n, r, s)
                        assert a == b, (r, s, letter, i)


def test_weight_space_examples():
    assert tensor.weight_space((0, 0), 2, 1, 1) == [(1, 1), (2, 2)]
    assert tensor.weight_space((1, -1), 2, 1, 1) == [(1, 2)]
    assert tensor.weight_space((2, 0), 2, 1, 1) == []
    total = sum(
        len(tensor.weight_space(wt, 3, 2, 1)) for wt in combinat.mixed_weights(2, 1, 3)
    )
    assert total == 27


def test_weight_behaviour_of_actions():
    ctx = _ctx(3)
    n, r, s = 3, 2, 1
    v = TensorVector.basis(ctx, (2, 1, 2))
    wt = tensor.weight_of_index((2, 1, 2), n, r, s)
    assert wt == (1, 0, 0)
    raised = tensor.act_E(v, 1, n, r, s)
    for idx in raised.entries:
        assert tensor.weight_of_index(idx, n, r, s) == (2, -1, 0)
    for letter in [("e",), ("g", 1)]:
        image = tensor.act_letters(v, [letter], n, r, s)
        for idx in image.entries:
            assert tensor.weight_of_index(idx, n, r, s) == wt


def test_divided_power_small_cases():
    ctx = _ctx(2)
    v = TensorVector.basis(ctx, (2, 1))
    assert tensor.act_divided_power(v, 1, 0, 2, 1, 1) == v
    assert tensor.act_divided_power(v, 1, 1, 2, 1, 1) == tensor.act_E(v, 1, 2, 1, 1)
    # E^2 = [2]! E^{(2)} over qpow:2
    twice = tensor.act_E(tensor.act_E(v, 1, 2, 1, 1), 1, 2, 1, 1)
    divided = tensor.act_divided_power(v, 1, 2, 2, 1, 1)
    qfact = scalars.quantum_factorial(2, ctx.spec)
    assert _combine(ctx, (qfact, divided)) == twice
    assert divided == TensorVector(ctx, {(1, 2): _mono(ctx, -1, -1)})


def test_divided_power_at_root_of_unity():
    # at a primitive fourth root of unity [2] = 0, so E^2 kills everything
    # while the divided power E^{(2)} survives
    spec = FieldSpec.cyclotomic(4, rho=2)
    ctx = FieldContext(spec)
    v = TensorVector.basis(ctx, (2, 1))
    twice = tensor.act_E(tensor.act_E(v, 1, 2, 1, 1), 1, 2, 1, 1)
    assert twice.is_zero()
    divided = tensor.act_divided_power(v, 1, 2, 2, 1, 1)
    assert divided == TensorVector(ctx, {(1, 2): _mono(ctx, -1, -1)})


def test_divided_powers_match_powers_of_E():
    # the Laurent tables against repeated act_E, on every basis vector of
    # every weight: [ell]! E_i^{(ell)} b = E_i^ell b
    for n, r, s in ((2, 1, 1), (3, 2, 1), (4, 2, 2)):
        for spec in (FieldSpec.qpower(n), FieldSpec.generic()):
            ctx = FieldContext(spec)
            qfacts = [scalars.quantum_factorial(ell, spec)
                      for ell in range(r + s + 1)]
            for idx in product(range(1, n + 1), repeat=r + s):
                b = TensorVector.basis(ctx, idx)
                for i in range(1, n):
                    power = b
                    for ell in range(1, r + s + 1):
                        power = tensor.act_E(power, i, n, r, s)
                        divided = tensor.act_divided_power(b, i, ell, n, r, s)
                        assert _combine(ctx, (qfacts[ell], divided)) == power, (
                            spec.to_string(), idx, i, ell)


def test_seed_vector_layout():
    ctx = _ctx(2)
    label = combinat.CellLabel(1, (), ())
    assert tensor.seed_vector(label, 2, ctx) == TensorVector(
        ctx, {(1, 1): ctx.one(), (2, 2): ctx.one()}
    )
    # column-reading runs: lam1 = (2,1) has conjugate (2,1), read as runs
    # (alpha_2..1, alpha_1..1) = (1, 2, 1); lam2 = (1,1) has conjugate (2),
    # giving the top run (n, n-1)
    label2 = combinat.CellLabel(0, (2, 1), (1, 1))
    seed = tensor.seed_vector(label2, 5)
    assert seed.items() == [((1, 2, 1, 5, 4), seed.ctx.one())]
    label3 = combinat.CellLabel(2, (), ())
    seed3 = tensor.seed_vector(label3, 4)
    assert len(seed3.entries) == 16
    assert all(idx[:2] == idx[2:] for idx in seed3.entries)


def test_singular_vector_examples():
    lab1 = combinat.CellLabel(1, (), ())
    t1, _ = combinat.initial_tableaux(((), ()), 1)
    d1 = combinat.coset_reps(1, 1, 1)[0]
    sv = tensor.singular_vector(lab1, t1, d1, 2)
    assert sv == TensorVector(sv.ctx, {(1, 1): sv.ctx.one(), (2, 2): sv.ctx.one()})
    lab0 = combinat.CellLabel(0, (1,), (1,))
    t0, _ = combinat.initial_tableaux(((1,), (1,)), 0)
    d0 = combinat.coset_reps(1, 1, 0)[0]
    sv0 = tensor.singular_vector(lab0, t0, d0, 2)
    assert sv0 == TensorVector(sv0.ctx, {(1, 2): sv0.ctx.one()})
    small = 0
    try:
        tensor.singular_vector(lab0, t0, d0, 1)
    except RankTooSmall:
        small = 1
    assert small == 1
    shape_bad = 0
    try:
        tensor.singular_vector(combinat.CellLabel(0, (2,), ()), t0, d0, 3)
    except ValueError:
        shape_bad = 1
    assert shape_bad == 1


def test_singular_vectors_span_singular_space():
    """The constructed vectors are independent, singular, of the labelled
    weight, and their count matches the kernel of all divided powers."""
    for (r, s) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        n = r + s
        ctx = _ctx(n)
        for label in combinat.enumerate_labels(r, s):
            conj = (combinat.conjugate(label.lam1), combinat.conjugate(label.lam2))
            tabs = combinat.standard_tableaux(conj, label.f)
            reps = combinat.coset_reps(r, s, label.f)
            phi = combinat.phi_map(label, n)
            family = []
            for t in tabs:
                for d in reps:
                    sv = tensor.singular_vector(label, t, d, n)
                    assert not sv.is_zero()
                    weights = {
                        tensor.weight_of_index(idx, n, r, s) for idx in sv.entries
                    }
                    assert weights == {phi}
                    for i in range(1, n):
                        image = tensor.act_E(sv, i, n, r, s)
                        assert image.is_zero(), (label, i)
                    family.append(sv)
            coords = tensor.weight_space(phi, n, r, s)
            positions = {idx: k for k, idx in enumerate(coords)}
            rows = []
            for sv in family:
                row = [ctx.zero()] * len(coords)
                for idx, val in sv.entries.items():
                    row[positions[idx]] = val
                rows.append(row)
            assert rank(ctx, rows) == len(family), label
            space = tensor.singular_space(phi, n, r, s)
            assert len(space) == len(tabs) * len(reps), label


def test_singular_space_cyclotomic_dimensions():
    for (r, s) in [(1, 1), (2, 1), (2, 2)]:
        n = r + s
        for m in (3, 4):
            spec = FieldSpec.cyclotomic(m)
            for label in combinat.enumerate_labels(r, s):
                conj = (
                    combinat.conjugate(label.lam1),
                    combinat.conjugate(label.lam2),
                )
                expected = len(combinat.standard_tableaux(conj, label.f)) * len(
                    combinat.coset_reps(r, s, label.f)
                )
                phi = combinat.phi_map(label, n)
                space = tensor.singular_space(phi, n, r, s, spec=spec)
                assert len(space) == expected, (r, s, m, label)


def test_singular_space_members_are_killed():
    for vec in tensor.singular_space((0, 0), 2, 1, 1):
        for ell in (1, 2):
            assert tensor.act_divided_power(vec, 1, ell, 2, 1, 1).is_zero()


def test_contravariant_form_values():
    ctx = _ctx(2)
    x = TensorVector.basis(ctx, (1, 2))
    assert scalars.to_text(tensor.contravariant_form(x, x, 2, 1, 1)) == "q^4"
    y = TensorVector.basis(ctx, (1, 1))
    assert not tensor.contravariant_form(x, y, 2, 1, 1)
    # symmetry on random vectors
    rng = random.Random(13)
    for (r, s) in [(2, 1), (2, 2)]:
        n = r + s
        ctx = _ctx(n)
        a = _random_vector(ctx, n, r + s, rng)
        b = _random_vector(ctx, n, r + s, rng)
        assert (tensor.contravariant_form(a, b, n, r, s)
                == tensor.contravariant_form(b, a, n, r, s))


def test_contravariant_form_algebra_side():
    """(x b, y) == (x, y sigma(b)) for generator words, both conventions of
    coefficient: the anti-involution just reverses the word."""
    rng = random.Random(17)
    for (r, s) in [(2, 1), (2, 2)]:
        n = r + s
        ctx = _ctx(n)
        elements = [words.WordElement.from_word((("e",),))]
        for k in range(1, r):
            elements.append(words.WordElement.from_word((("g", k),)))
        for k in range(1, s):
            elements.append(words.WordElement.from_word((("gs", k),)))
        for _ in range(3):
            letters = [("e",)]
            for _ in range(3):
                kind = rng.choice(["e", "g", "gs", "gi", "gsi"])
                if kind == "e":
                    letters.append(("e",))
                elif kind in ("g", "gi") and r > 1:
                    letters.append((kind, rng.randrange(1, r)))
                elif kind in ("gs", "gsi") and s > 1:
                    letters.append((kind, rng.randrange(1, s)))
            elements.append(words.WordElement.from_word(tuple(letters), 3, -1, 0))
        for element in elements:
            x = _random_vector(ctx, n, r + s, rng)
            y = _random_vector(ctx, n, r + s, rng)
            lhs = tensor.contravariant_form(
                tensor.act_word(x, element, n, r, s), y, n, r, s
            )
            rhs = tensor.contravariant_form(
                x, tensor.act_word(y, element.sigma(), n, r, s), n, r, s
            )
            assert lhs == rhs, (r, s, element)


def test_contravariant_form_quantum_adjoints():
    """The adjoint of E_i is q^2 K_i^{-2} F_i and the adjoint of F_i is
    q^2 K_i^2 E_i; fixed by exhaustive checks on small shapes."""
    for (n, r, s) in [(2, 1, 1), (3, 2, 1)]:
        ctx = _ctx(n)
        for i in range(1, n):
            for ix in product(range(1, n + 1), repeat=r + s):
                for iy in product(range(1, n + 1), repeat=r + s):
                    x = TensorVector.basis(ctx, ix)
                    y = TensorVector.basis(ctx, iy)
                    h_minus = [0] * n
                    h_minus[i - 1] = -2
                    h_minus[i] = 2
                    adj_e = _combine(ctx, (_mono(ctx, 1, 2), tensor.act_F(
                        tensor.act_K(y, tuple(h_minus), n, r, s), i, n, r, s
                    )))
                    lhs = tensor.contravariant_form(
                        tensor.act_E(x, i, n, r, s), y, n, r, s
                    )
                    assert lhs == tensor.contravariant_form(x, adj_e, n, r, s)
                    h_plus = [0] * n
                    h_plus[i - 1] = 2
                    h_plus[i] = -2
                    adj_f = _combine(ctx, (_mono(ctx, 1, 2), tensor.act_E(
                        tensor.act_K(y, tuple(h_plus), n, r, s), i, n, r, s
                    )))
                    lhs_f = tensor.contravariant_form(
                        tensor.act_F(x, i, n, r, s), y, n, r, s
                    )
                    assert lhs_f == tensor.contravariant_form(x, adj_f, n, r, s)
