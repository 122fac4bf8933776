import math
import itertools

import pytest

from wbq import combinat
from wbq.combinat import (
    CellLabel, CosetRep, TableauPair, cell_dimension,
    conjugate, coset_reps, d_of, dominates, e_regular, e_restricted,
    enumerate_labels, hook_std_count, initial_tableaux, label_order,
    partitions, phi_map, standard_tableaux,
)
from wbq.errors import RankTooSmall

INF = math.inf


# -- references the tests below check the package against --------------------

def apply_word_to_tableau(t, word, component):
    """Apply adjacent transpositions (left to right, acting on entries)."""
    rows = t.rows1 if component == 1 else t.rows2
    grid = [list(row) for row in rows]
    for i in word:
        for row in grid:
            for k, v in enumerate(row):
                if v == i:
                    row[k] = i + 1
                elif v == i + 1:
                    row[k] = i
    if component == 1:
        return TableauPair(t.f, grid, t.rows2)
    return TableauPair(t.f, t.rows1, grid)


def dominant_weight_order(nu, mu):
    """nu >= mu in the dominance order on weights of equal coordinate sum."""
    if len(nu) != len(mu) or sum(nu) != sum(mu):
        raise ValueError("weights must have equal length and sum")
    acc = 0
    for a, b in zip(nu, mu):
        acc += a - b
        if acc < 0:
            return False
    return True


def test_enumerate_labels_examples():
    labels = enumerate_labels(1, 1)
    assert labels == [CellLabel(1, (), ()), CellLabel(0, (1,), (1,))]
    labels = enumerate_labels(2, 1)
    assert labels == [CellLabel(1, (1,), ()),
                      CellLabel(0, (2,), (1,)),
                      CellLabel(0, (1, 1), (1,))]
    bad = False
    try:
        enumerate_labels(1, 0)
    except ValueError:
        bad = True
    assert bad


def test_cell_label_components_must_be_partitions():
    with pytest.raises(ValueError, match="must be partitions"):
        CellLabel(0, (1, 2), ())
    with pytest.raises(ValueError, match="must be partitions"):
        CellLabel(0, (1,), (0,))
    assert CellLabel(0, [2, 1], []) == (0, (2, 1), ())


def test_label_order():
    top = CellLabel(1, (), ())
    bot = CellLabel(0, (1,), (1,))
    assert label_order(top, bot) == "gt"
    assert label_order(bot, top) == "lt"
    assert label_order(top, top) == "eq"
    a = CellLabel(0, (2,), (1,))
    b = CellLabel(0, (1, 1), (1,))
    assert label_order(a, b) == "gt"
    c = CellLabel(0, (2,), (1, 1))
    d = CellLabel(0, (1, 1), (2,))
    assert label_order(c, d) == "incomparable"


def test_total_order_refines_dominance():
    for r, s in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        labels = enumerate_labels(r, s)
        pos = {lab: i for i, lab in enumerate(labels)}
        for a in labels:
            for b in labels:
                if label_order(a, b) == "gt":
                    assert pos[a] < pos[b]


def test_initial_tableaux_examples():
    t_row, t_col = initial_tableaux(((4, 3, 1), ()), 0)
    assert t_row.rows1 == ((1, 2, 3, 4), (5, 6, 7), (8,))
    assert t_col.rows1 == ((1, 4, 6, 8), (2, 5, 7), (3,))
    t_row, _ = initial_tableaux(((1,), (3, 2, 1)), 1)
    assert t_row.rows1 == ((2,),)
    assert t_row.rows2 == ((2, 3, 4), (5, 6), (7,))


def test_standard_tableaux_counts_match_hooks():
    for m in range(0, 7):
        for lam in partitions(m):
            tabs = combinat._standard_tableaux_one(lam, 1)
            assert len(tabs) == hook_std_count(lam)
            assert len(set(tabs)) == len(tabs)
    assert hook_std_count((2, 1)) == 2
    # bipartition counts are products
    assert len(standard_tableaux(((2, 1), (1, 1)), 0)) == 2 * 1
    assert len(standard_tableaux(((1,), (1,)), 1)) == 1


def _is_standard(rows):
    for row in rows:
        for a, b in zip(row, row[1:]):
            if not a < b:
                return False
    for i in range(len(rows) - 1):
        for j in range(len(rows[i + 1])):
            if not rows[i][j] < rows[i + 1][j]:
                return False
    return True


def test_d_of_examples_and_recomposition():
    t_row, _ = initial_tableaux(((2, 1), ()), 0)
    d = d_of(t_row)
    assert d.word1 == [] and d.word2 == []
    t = TableauPair(0, ((1, 3), (2,)), ())
    d = d_of(t)
    assert d.word1 == [2] and d.word2 == []
    for m in range(1, 6):
        for lam in partitions(m):
            for t in standard_tableaux((lam, ()), 0):
                assert _is_standard(t.rows1)
                d = d_of(t)
                t_row, _ = initial_tableaux((lam, ()), 0)
                back = apply_word_to_tableau(t_row, d.word1, 1)
                assert back == t
    # shifted bipartition case
    for t in standard_tableaux(((2,), (2, 1)), 1):
        d = d_of(t)
        t_row, _ = initial_tableaux(((2,), (2, 1)), 1)
        back = apply_word_to_tableau(t_row, d.word1, 1)
        back = apply_word_to_tableau(back, d.word2, 2)
        assert back == t
        assert all(i >= t.f + 1 for i in d.word1 + d.word2)


def test_coset_reps():
    assert coset_reps(3, 2, 0) == [CosetRep(0, (), ())]
    reps = coset_reps(2, 1, 1)
    assert len(reps) == 2
    assert {rep.i_list for rep in reps} == {(1,), (2,)}
    assert all(rep.j_list == (1,) for rep in reps)
    for r, s in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        for f in range(min(r, s) + 1):
            reps = coset_reps(r, s, f)
            expected = math.comb(r, f) * math.factorial(s) // math.factorial(s - f)
            assert len(reps) == expected
            assert len(set(reps)) == len(reps)
    # the f=1 coset words: s-side chain from 1 up to j-1
    rep = CosetRep(1, (2,), (3,))
    assert rep.word == (("g", 1), ("gs", 1), ("gs", 2))


def test_rank_dimension_identity():
    for r in range(1, 6):
        for s in range(1, 6):
            if r + s > 6:
                continue
            total = 0
            for label in enumerate_labels(r, s):
                total += cell_dimension(label, r, s) ** 2
            assert total == math.factorial(r + s)


def test_e_restricted_and_regular():
    assert e_restricted(((2,), ()), INF)
    assert not e_restricted(((2,), ()), 2)
    assert e_restricted(((1, 1), (1,)), 2)
    # (2,1): gaps 2-1=1 and 1-0=1, both < 2, so it is 2-restricted
    assert e_restricted(((2, 1), (1,)), 2)
    assert not e_restricted(((3, 1), (1,)), 2)
    for m in range(0, 7):
        for lam in partitions(m):
            for e in (2, 3, 4, INF):
                assert e_regular((lam, ()), e) == e_restricted((conjugate(lam), ()), e)


def test_phi_map():
    assert phi_map(CellLabel(1, (), ()), 2) == (0, 0)
    assert phi_map(CellLabel(0, (1,), (1,)), 2) == (1, -1)
    assert phi_map(CellLabel(0, (2,), (1,)), 3) == (2, 0, -1)
    hit = False
    try:
        phi_map(CellLabel(0, (2,), (1,)), 2)
    except RankTooSmall:
        hit = True
    assert hit


def test_mixed_weights_examples(mixed_weights):
    assert mixed_weights(1, 1, 2) == {(1, -1), (-1, 1), (0, 0)}
    # dominant mixed weights = image of phi_map at n = r + s
    for r, s in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (4, 1), (3, 2)]:
        n = r + s
        weights = mixed_weights(r, s, n)
        dominant = {w for w in weights if all(w[i] >= w[i + 1] for i in range(n - 1))}
        image = {phi_map(lab, n) for lab in enumerate_labels(r, s)}
        assert dominant == image
    # weights of basis indices all lie in the predicted set
    for r, s in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        for n in (2, 3):
            weights = mixed_weights(r, s, n)
            for idx in itertools.product(range(1, n + 1), repeat=r + s):
                wt = [0] * n
                for k in range(r):
                    wt[idx[k] - 1] += 1
                for k in range(r, r + s):
                    wt[idx[k] - 1] -= 1
                assert tuple(wt) in weights


def test_conjugation_reverses_dominance():
    for m in range(1, 7):
        plist = partitions(m)
        for a in plist:
            for b in plist:
                assert dominates(a, b) == dominates(conjugate(b), conjugate(a))


def test_poset_ideal_property():
    # the shifted dominant-weight set is a dominance ideal among partitions of
    # r + (n-1)s with at most n parts, for n = r + s <= 5
    for r, s in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (4, 1)]:
        n = r + s
        if n > 5:
            continue
        shifted = set()
        for lab in enumerate_labels(r, s):
            w = phi_map(lab, n)
            shifted.add(tuple(x + s for x in w))
        total = r + (n - 1) * s
        universe = [tuple(p) + (0,) * (n - len(p)) for p in partitions(total, max_len=n)]
        for mu in universe:
            if any(dominant_weight_order(x, mu) for x in shifted):
                assert mu in shifted, (r, s, mu)


def test_cell_dimensions_spot_values():
    dims = {lab: cell_dimension(lab, 2, 2) for lab in enumerate_labels(2, 2)}
    assert dims[(2, (), ())] == 2
    assert dims[(1, (1,), (1,))] == 4
    assert dims[(0, (2,), (2,))] == 1
    dims31 = {lab: cell_dimension(lab, 3, 1) for lab in enumerate_labels(3, 1)}
    assert dims31[(1, (2,), ())] == 3
    assert dims31[(1, (1, 1), ())] == 3
    assert dims31[(0, (2, 1), (1,))] == 2


def test_addable_removable_nodes():
    lam = (3, 1)
    assert combinat.removable_nodes(lam) == [(1, 3), (2, 1)]
    assert combinat.addable_nodes(lam) == [(1, 4), (2, 2), (3, 1)]
    assert combinat.residue((2, 2)) == 0
    for m in range(0, 7):
        for lam in partitions(m):
            assert len(combinat.addable_nodes(lam)) == len(combinat.removable_nodes(lam)) + 1
            assert conjugate(conjugate(lam)) == lam
