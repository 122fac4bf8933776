"""Fixtures shared by several test modules."""

import pytest

from wbq import engine, scalars, words


def _sigma(element):
    """Image under the anti-involution fixing every generator: each word
    read backwards; the reference for ``ConstantsTable.sigma_position``
    and the adjoints of the contravariant form."""
    out = words.WordElement.zero()
    for word, c, qexp, rhoexp in element.monomials():
        out = out + words.WordElement.from_word(tuple(reversed(word)), c,
                                                qexp, rhoexp)
    return out


@pytest.fixture
def sigma():
    return _sigma


def _mixed_weights(r, s, n):
    """All weights of the mixed tensor space: integer n-vectors whose positive
    part sums to r - f and negative part to f - s for some 0 <= f <= min(r,s);
    an enumeration independent of ``tensor.weight_of_index``."""
    out = set()

    def rec(pos_left, neg_left, idx, current):
        if idx == n:
            if pos_left == 0 and neg_left == 0:
                out.add(tuple(current))
            return
        for v in range(-neg_left, pos_left + 1):
            current.append(v)
            rec(pos_left - max(v, 0), neg_left - max(-v, 0), idx + 1, current)
            current.pop()

    for f in range(min(r, s) + 1):
        rec(r - f, s - f, 0, [])
    return out


@pytest.fixture
def mixed_weights():
    return _mixed_weights


def _asymmetric_table(r, s, label):
    """The bundled generic table of B_{r,s} with one off-diagonal Gram entry
    of ``label`` set to 7, so that its Gram form is not symmetric."""
    table = engine.load_table(engine.bundled_path(r, s), r, s)
    start, dim, frame = engine.cell_layout(r, s)[label]
    row = start + frame * dim
    vec = table.product(row, start + dim + frame)  # Gram entry (0, 1)
    seven = scalars.generic_from_terms([(0, 0, 7)], [(0, 0, 1)])
    assert vec.get(row + frame) != seven
    vec[row + frame] = seven
    return table


@pytest.fixture
def asymmetric_table():
    return _asymmetric_table
