"""Property tests of the word-action kernel on its three letter sources:
a tensor-model coordinate system, a bundled table and a cell module."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbq import combinat, engine, linalg, repthy, words


@functools.lru_cache(maxsize=None)
def _source(name):
    """(ctx, letter matrix, element matrix) of one kernel caller."""
    if name == "coordinates":
        system = engine.CoordinateSystem.build(2, 1)
        return system.ctx, system.action.letter, system.action.element
    tab = engine.structure_constants(2, 2, "qpow:4")
    if name == "table":
        return tab.ctx, tab.action.letter, tab.action.element
    # the cell module of one label, read off the table's layer (its frame
    # and relation checks are in test_repthy)
    label = combinat.CellLabel(1, (1,), (1,))
    action = words.WordAction(
        tab.ctx, engine.cell_layout(2, 2)[label][1],
        functools.partial(repthy._table_module_letter, tab, label))
    return tab.ctx, action.letter, action.element


SHAPES = {"coordinates": (2, 1), "table": (2, 2), "module": (2, 2)}


def _letters(r, s):
    """The generating letters and the inverse braid letters."""
    out = engine.generator_letters(r, s)
    return out + [(kind + "i", idx) for kind, idx in out[1:]]


def _elements(shape):
    term = st.tuples(
        st.lists(st.sampled_from(_letters(*shape)), max_size=2),
        st.integers(-3, 3).filter(bool),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )

    def build(terms):
        out = words.WordElement.zero()
        for word, c, qexp, rhoexp in terms:
            out = out + words.WordElement.from_word(word, c, qexp, rhoexp)
        return out

    return st.lists(term, min_size=1, max_size=2).map(build)


def _equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _element_pairs(name):
    elements = _elements(SHAPES[name])
    return st.tuples(st.just(name), elements, elements)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(SHAPES)).flatmap(_element_pairs))
def test_products_act_in_reverse_order(case):
    name, x, y = case
    ctx, _, element = _source(name)
    assert _equal(element(x * y),
                  linalg.mat_mul(ctx, element(y), element(x)))


def test_inverse_letters_invert():
    for name, (r, s) in SHAPES.items():
        ctx, letter, _ = _source(name)
        for kind, idx in engine.generator_letters(r, s)[1:]:
            prod = linalg.mat_mul(ctx, letter((kind, idx)),
                                  letter((kind + "i", idx)))
            unit = [[ctx.one() if i == j else ctx.zero()
                     for j in range(len(prod))] for i in range(len(prod))]
            assert _equal(prod, unit), (name, kind, idx)


def test_derived_inverse_matches_the_tensor_action():
    system = engine.CoordinateSystem.build(2, 1)
    assert _equal(system.action.letter(("gi", 1)),
                  system._letter_columns(("gi", 1)))


def test_a_residue_view_writes_its_letter_matrices_reduced():
    # the table source sums unreduced residue products; the kernel reduces
    # each entry it writes, so a residue view's letters are the field's
    # letter matrices mod p
    tab = engine.structure_constants(2, 1, "qpow:3")
    res = tab.residues()
    for letter in engine.generator_letters(2, 1):
        want = [[x.mod_p()[0] if x else 0 for x in row]
                for row in tab.action.letter(letter)]
        assert res.action.letter(letter) == want, letter


def _mod_p(mat):
    return [[x.mod_p()[0] if x else 0 for x in row] for row in mat]


@pytest.mark.parametrize("field", ["qpow:3", "cyclo:4,rho=zeta^1"])
def test_a_residue_view_acts_as_the_field_mod_p(field):
    # inverse letters and word coefficients q^a rho^b are read at the
    # images of q and rho under the field's ring map to Z/p
    tab = engine.structure_constants(2, 1, field)
    res = tab.residues()
    for letter in _letters(2, 1):
        assert res.action.letter(letter) == _mod_p(tab.action.letter(letter))
    x = (words.WordElement.from_word((("gi", 1), words.E1), 3, 2, -1)
         + words.WordElement.from_word((words.E1, ("g", 1)), -2, -1, 2))
    assert res.action.element(x) == _mod_p(tab.action.element(x))


@pytest.mark.parametrize("field", ["generic", "cyclo:4,rho=free"])
def test_a_residue_view_refuses_to_act_where_rho_is_free(field):
    res = engine.structure_constants(2, 1, field).residues()
    with pytest.raises(ValueError, match="rho is free"):
        res.action
