"""Tests for cell modules, Gram forms, decomposition matrices and blocks."""

import copy
import itertools
import json
import math
import os
from fractions import Fraction

import pytest

from wbq import cli, combinat, engine, linalg, repthy, scalars, tensor, words
from wbq.errors import (
    IntegralityViolation,
    OracleMismatch,
    RankCertificationFailed,
    TraceSystemSingular,
)
from wbq.linalg import FieldContext, RationalPointContext
from wbq.scalars import FieldSpec


def _labels(r, s):
    return list(combinat.enumerate_labels(r, s))


def test_label_text_format():
    labels = _labels(2, 1)
    assert [repthy.label_text(l) for l in labels] == [
        "f=1,[1]|[]",
        "f=0,[2]|[1]",
        "f=0,[1,1]|[1]",
    ]


def test_rho_square_power_clash_windows():
    assert repthy.rho_square_power_clash(FieldSpec.qpower(0), 0)
    assert repthy.rho_square_power_clash(FieldSpec.qpower(-2), 2)
    assert not repthy.rho_square_power_clash(FieldSpec.qpower(3), 2)
    assert not repthy.rho_square_power_clash(FieldSpec.generic(), 10)
    assert not repthy.rho_square_power_clash(
        FieldSpec.cyclotomic(4, "free"), 10)
    # zeta^2 = zeta^{2a} in the fourth roots iff a is even or a = b mod 2
    assert repthy.rho_square_power_clash(FieldSpec.cyclotomic(4, 1), 1)
    assert repthy.rho_square_power_clash(FieldSpec.cyclotomic(4, 0), 0)
    assert not repthy.rho_square_power_clash(FieldSpec.cyclotomic(7, 3), 2)


def test_predicted_simple_labels_examples():
    # e = 2 drops every component with a step of two or more
    spec = FieldSpec.from_string("cyclo:4,rho=free")
    got = [repthy.label_text(l)
           for l in repthy.predicted_simple_labels(2, 1, spec)]
    assert got == ["f=1,[1]|[]", "f=0,[1,1]|[1]"]
    # generic keeps everything
    got = [repthy.label_text(l)
           for l in repthy.predicted_simple_labels(2, 1, FieldSpec.generic())]
    assert len(got) == 3
    # delta = 0 with r = s drops the top contraction layer
    spec = FieldSpec.qpower(0)
    got = [repthy.label_text(l)
           for l in repthy.predicted_simple_labels(1, 1, spec)]
    assert got == ["f=0,[1]|[1]"]


def test_predicted_semisimple_examples():
    assert repthy.predicted_semisimple(1, 1, FieldSpec.generic())
    assert repthy.predicted_semisimple(2, 2, FieldSpec.generic())
    # delta = 0: only a short list of shapes stays semisimple
    assert repthy.predicted_semisimple(1, 2, FieldSpec.qpower(0))
    assert not repthy.predicted_semisimple(1, 1, FieldSpec.qpower(0))
    assert not repthy.predicted_semisimple(2, 2, FieldSpec.qpower(0))
    # small quantum characteristic is never semisimple
    assert not repthy.predicted_semisimple(
        2, 1, FieldSpec.from_string("cyclo:4,rho=free"))
    # rho tied to a small q power hits the clash window
    assert not repthy.predicted_semisimple(2, 1, FieldSpec.qpower(1))
    assert repthy.predicted_semisimple(2, 1, FieldSpec.qpower(4))


def _framed_letter(tab, label, letter, frame):
    """Matrix of a positive generator on the cell module of ``label`` framed
    by row ``frame`` of its layer, read straight from ``tab.product``."""
    start, dim, _ = engine.cell_layout(tab.r, tab.s)[label]
    row = start + frame * dim
    zero = tab.ctx.zero()
    mat = [[zero] * dim for _ in range(dim)]
    for b, coeff in tab.generator_expansion(engine._letter_key(letter)).items():
        for j in range(dim):
            vec = tab.product(row + j, b)
            for k in range(dim):
                mat[k][j] += coeff * vec.get(row + k, zero)
    return mat


def test_cell_module_table_route_dimensions_and_relations():
    # the cell module read off the table's same-label layer
    for r, s, field in ((2, 1, None), (2, 2, "qpow:4")):
        tab = engine.structure_constants(r, s, field)
        for label in _labels(r, s):
            _, dim, frame = engine.cell_layout(r, s)[label]
            assert dim == combinat.cell_dimension(label, r, s)
            action = words.WordAction(
                tab.ctx, dim,
                lambda letter, label=label: repthy._table_module_letter(
                    tab, label, letter))
            # the module does not depend on which row of the layer frames it
            other = frame - 1 if frame > 0 else (1 if dim > 1 else frame)
            for letter in engine.generator_letters(r, s):
                assert action.letter(letter) == _framed_letter(
                    tab, label, letter, other), (r, s, label, letter)
            for name, lhs, rhs in words.presentation_relations(r, s):
                assert action.element(lhs) == action.element(rhs), (
                    r, s, label, name)


def test_cell_module_singular_route_agrees_with_table():
    assert repthy.route_agreement(1, 1)
    assert repthy.route_agreement(2, 1)


def test_singular_route_needs_the_rho_tie():
    label = _labels(1, 1)[0]
    with pytest.raises(ValueError,
                       match=r"^singular vectors need the rho = q\^2 tie$"):
        repthy._singular_module(1, 1, label,
                                FieldSpec.from_string("cyclo:5,rho=free"), 2)


def test_gram_matrix_b11_worked_example():
    labels = _labels(1, 1)
    spec = FieldSpec.generic()
    top = repthy.gram_matrix(1, 1, labels[0])
    assert top.dim == 1
    assert top.entries[0][0] == scalars.delta(spec)
    assert top.rank == 1
    bottom = repthy.gram_matrix(1, 1, labels[1])
    assert bottom.entries[0][0] == scalars.one(spec)
    # at rho^2 = 1 the contraction form collapses, the other survives
    spec0 = FieldSpec.from_string("cyclo:4,rho=zeta^0")
    assert repthy.gram_matrix(1, 1, labels[0], field=spec0).rank == 0
    assert repthy.gram_matrix(1, 1, labels[1], field=spec0).rank == 1


def test_gram_matrices_nonsingular_over_the_generic_field():
    for (r, s) in ((1, 1), (2, 1), (1, 2)):
        for label in _labels(r, s):
            gram = repthy.gram_matrix(r, s, label)
            assert gram.rank == gram.dim


BUNDLED_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


def _outcome(r, s, spec):
    # computed afresh each call, never served from the answer memo, so a
    # patch made between two calls changes the route the second one takes
    try:
        dec = repthy._decompose(r, s, spec,
                                engine.structure_constants(r, s, spec))
    except (OracleMismatch, IntegralityViolation, TraceSystemSingular) as exc:
        return type(exc), str(exc)
    return dec.rows, dec.columns, dec.entries, dec.gram_ranks


@pytest.mark.parametrize("r, s", BUNDLED_SHAPES)
def test_residue_certificates_agree_with_exact_elimination(r, s,
                                                           monkeypatch):
    # the ranks and decomposition matrices certified mod p, against the
    # exact elimination of every Gram matrix and trace system
    for spec in cli.grid_fields():
        tab = engine.structure_constants(r, s, spec)
        for label in _labels(r, s):
            gram = repthy.gram_matrix(r, s, label, table=tab)
            assert gram.rank == len(linalg.rref(tab.ctx, gram.entries)[0])
    fast = {spec: _outcome(r, s, spec) for spec in cli.grid_fields()}
    # every rank certificate mod p misses, so every form is eliminated
    monkeypatch.setattr(linalg, "modp_rank", lambda rows, prime=None: (0, []))
    for spec in cli.grid_fields():
        assert _outcome(r, s, spec) == fast[spec], spec


def test_residue_route_answers_exactly_the_predicted_semisimple_pairs(
        monkeypatch):
    # the route from the generic table's residues certifies the 41
    # predicted-semisimple (shape, grid field) pairs and no other, and
    # answers as the path through the specialised table does
    certified, predicted = [], []
    for r, s in BUNDLED_SHAPES:
        for spec in cli.grid_fields():
            tab = engine.structure_constants(r, s, spec)
            if repthy._residue_certified(r, s, spec, tab, traces=True):
                certified.append((r, s, spec))
            if repthy.predicted_semisimple(r, s, spec):
                predicted.append((r, s, spec))
    assert len(certified) == 41 and certified == predicted

    def answers(key):
        return _outcome(*key), repthy.semisimplicity(*key)

    route = {key: answers(key) for key in certified}
    monkeypatch.setattr(repthy, "_residue_certified",
                        lambda *args, **kw: False)
    for key in certified:
        assert answers(key) == route[key], key


def test_a_rank_the_residues_miss_falls_back_to_exact_elimination():
    # an entry that vanishes at the fixed point, and one whose denominator
    # does, are each a nonzero 1 x 1 form of rank one
    for text in ("qpow:3", "generic", "cyclo:4,rho=zeta^1",
                 "cyclo:3,rho=free"):
        spec = FieldSpec.from_string(text)
        ctx = FieldContext(spec)
        t = scalars.q_elem(spec).mod_p()[0]
        vanishing = scalars.q_elem(spec) - ctx.from_monomial(t)
        assert vanishing.mod_p()[0] == 0
        assert (scalars.one(spec) / vanishing).mod_p() is None
        for entry in (vanishing, scalars.one(spec) / vanishing):
            assert linalg.modp_rank_robust([[entry]]) == (0, [])
            gram = repthy.GramMatrix(None, [[entry]], ctx)
            assert (gram.rank, gram._pivots) == (1, [0])
            assert gram.radical_basis() == []


def test_radical_basis_is_the_kernel_of_the_gram_matrix():
    spec = FieldSpec.from_string("cyclo:4,rho=zeta^0")
    for r, s in ((2, 1), (2, 2)):
        tab = engine.structure_constants(r, s, spec)
        for label in _labels(r, s):
            gram = repthy.gram_matrix(r, s, label, table=tab)
            assert gram.radical_basis() == linalg.kernel_basis(
                tab.ctx, gram.entries, gram.dim)


def test_decomposition_matrix_generic_is_identity():
    for (r, s) in ((1, 1), (2, 1), (2, 2)):
        dec = repthy.decomposition_matrix(r, s)
        assert dec.is_identity()
        assert dec.block_partition() == [[l] for l in dec.rows]


def test_decomposition_b11_rho_square_one_vs_brute_force():
    spec = FieldSpec.from_string("cyclo:4,rho=zeta^0")
    dec = repthy.decomposition_matrix(1, 1, field=spec)
    assert [repthy.label_text(l) for l in dec.columns] == ["f=0,[1]|[1]"]
    assert dec.entries == [[1], [1]]
    assert dec.block_partition() == [dec.rows]

    # independent brute force on the two-dimensional algebra span{C0, C1}
    # (C0 the contraction word, C1 the empty word): right multiplication
    # by C0 is nilpotent, so the radical is its span, the unique simple is
    # one-dimensional, and both cell modules have a length-one series.
    tab = engine.structure_constants(1, 1, spec)
    ctx = tab.ctx
    mult = [[tab.product(a, 0).get(c, ctx.zero()) for c in range(2)]
            for a in range(2)]
    assert not mult[0][0] and not mult[0][1]
    assert mult[1][0] == ctx.one() and not mult[1][1]
    for a in range(2):
        for c in range(2):
            acc = ctx.zero()
            for k in range(2):
                acc += mult[a][k] * mult[k][c]
            assert not acc


def test_decomposition_shape_checks_at_roots_of_unity():
    for field in ("cyclo:4,rho=zeta^0", "cyclo:3,rho=free"):
        spec = FieldSpec.from_string(field)
        dec = repthy.decomposition_matrix(2, 2, field=spec)
        predicted = repthy.predicted_simple_labels(2, 2, spec)
        assert dec.columns == predicted
        for i, row_label in enumerate(dec.rows):
            for j, col_label in enumerate(dec.columns):
                value = dec.entries[i][j]
                assert value >= 0
                if row_label == col_label:
                    assert value == 1
                elif value:
                    assert combinat.label_order(row_label, col_label) == "gt"


def test_blocks_partition_connects_shared_columns():
    blocks = repthy.blocks(2, 1, field="cyclo:4,rho=zeta^0")
    texts = [[repthy.label_text(l) for l in block] for block in blocks]
    assert texts == [["f=1,[1]|[]"], ["f=0,[2]|[1]", "f=0,[1,1]|[1]"]]


def test_semisimplicity_oracle_examples():
    assert repthy.semisimplicity(1, 1) == (True, True)
    assert repthy.semisimplicity(1, 1, field="qpow:0") == (False, False)
    assert repthy.semisimplicity(1, 2, field="qpow:0") == (True, True)
    assert repthy.semisimplicity(2, 1, field="cyclo:3,rho=free") == \
        (True, True)
    assert repthy.semisimplicity(2, 1, field="cyclo:4,rho=free") == \
        (False, False)


def test_blocks1_reduction_to_the_smaller_algebra():
    assert repthy.blocks1_comparison(2, 1, field="cyclo:3,rho=free")
    assert repthy.blocks1_comparison(2, 1, field="cyclo:4,rho=free")
    assert repthy.blocks1_applicable(2, 1, FieldSpec.cyclotomic(3, "free"))
    assert not repthy.blocks1_applicable(2, 1, FieldSpec.qpower(0))


def test_einfty_comparison_examples():
    assert repthy.einfty_comparison(1, 1, field="qpow:0") is True
    assert repthy.einfty_comparison(1, 1, field="qpow:1") is True
    assert repthy.einfty_comparison(1, 1, field="generic") is None
    assert repthy.einfty_comparison(
        1, 1, field="cyclo:3,rho=free") is None


def test_analyze_computes_the_qpow_matrix_once(monkeypatch):
    real = repthy.decomposition_matrix
    calls = []

    def counting(r, s, field=None, **kw):
        calls.append((r, s, repthy._as_spec(field)))
        return real(r, s, field=field, **kw)

    monkeypatch.setattr(repthy, "decomposition_matrix", counting)
    spec = FieldSpec.qpower(1)
    result = repthy.analyze(2, 1, field=spec)
    assert calls.count((2, 1, spec)) == 1
    assert result["oracles"]["einfty"] is True
    dec = real(2, 1, field=spec)
    assert repthy.einfty_comparison(2, 1, field=spec, dec=dec) == \
        repthy.einfty_comparison(2, 1, field=spec)
    # the given matrix is the one compared
    other = real(2, 1, field=FieldSpec.qpower(0))
    assert repthy.einfty_comparison(2, 1, field=spec, dec=other) is False


def test_alt_cell_realization_small_shapes():
    for (r, s) in ((1, 1), (2, 1)):
        for label in _labels(r, s):
            assert repthy.alt_cell_realization_check(r, s, label)


@pytest.mark.parametrize("r, s", [(2, 1), (3, 1)])
@pytest.mark.parametrize("field", ["qpow:2", "cyclo:3,rho=zeta^1"])
def test_layer_rows_match_the_table_action(r, s, field):
    # the full right-multiplication matrix of each basis word, restricted
    # to the distinguished row of every layer; (3,1) has a frame of 1
    tab = engine.structure_constants(r, s, field)
    layout = engine.cell_layout(r, s)
    assert any(frame for _, _, frame in layout.values()) == (r == 3)
    for b in range(tab.size):
        full = tab.action.element(tab.basis[b].element)
        for label, (start, dim, frame) in layout.items():
            row = start + frame * dim
            rows = repthy._layer_rows(tab, label, b)
            assert rows == [[full[row + k][row + j] for k in range(dim)]
                            for j in range(dim)]


def _quotient_traces_from_rows(tab, label, gram):
    """The simple-head traces from the full ``_layer_rows`` matrices: the
    formula that ``_quotient_trace_table`` reads entry by entry."""
    pivots, reduced = gram._pivots, gram._reduced
    free = [j for j in range(gram.dim) if j not in pivots]
    out = []
    for b in range(tab.size):
        mat = repthy._layer_rows(tab, label, b)
        acc = tab.ctx.zero()
        for row_idx, p in enumerate(pivots):
            acc += mat[p][p]
            for fcol in free:
                acc += mat[p][fcol] * reduced[row_idx][fcol]
        out.append(acc)
    return out


@pytest.mark.parametrize("r, s", BUNDLED_SHAPES)
def test_trace_readers_match_the_layer_row_matrices(r, s):
    # every grid field with a degenerate Gram form on this shape
    degenerate = 0
    for spec in cli.grid_fields():
        tab = engine.structure_constants(r, s, spec)
        grams = [repthy.gram_matrix(r, s, label, table=tab)
                 for label in _labels(r, s)]
        if all(gram.rank == gram.dim for gram in grams):
            continue
        for gram in grams:
            rows = [repthy._layer_rows(tab, gram.label, b)
                    for b in range(tab.size)]
            assert repthy._layer_trace_table(tab, gram.label) == [
                sum((m[j][j] for j in range(gram.dim)), tab.ctx.zero())
                for m in rows]
            if 0 < gram.rank < gram.dim:
                degenerate += 1
                assert repthy._quotient_trace_table(tab, gram.label, gram) \
                    == _quotient_traces_from_rows(tab, gram.label, gram)
    # on (1,1) every degenerate form has rank 0
    assert degenerate or (r, s) == (1, 1)


def test_a_decomposition_specialises_each_value_it_reads_once(monkeypatch):
    # an eager view mapped every value of each vector it touched: 416
    # values for this call; the lazy view maps 115
    eager, lazy = 416, 115
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})  # a cold answer memo
    calls = []
    original = scalars.specialize

    def counting(x, target):
        calls.append(id(x))
        return original(x, target)

    monkeypatch.setattr(scalars, "specialize", counting)
    repthy.decomposition_matrix(2, 2, field="qpow:2")
    assert len(calls) == lazy < eager
    assert len(set(calls)) == len(calls)


def test_foreign_labels_raise_key_error():
    cases = [((2, 1), combinat.CellLabel(0, (1,), (1,))),
             ((1, 1), combinat.CellLabel(0, (2,), (1,)))]
    for (r, s), label in cases:
        for check in (repthy.alt_cell_realization_check, repthy.gram_matrix):
            failed = False
            try:
                check(r, s, label)
            except KeyError:
                failed = True
            assert failed, (check.__name__, r, s)


def test_schur_weyl_rank_equality_and_deficiency():
    assert repthy.schur_weyl_rank(2, 1, 1) == 2
    assert repthy.schur_weyl_rank(3, 2, 1) == 6
    # too few rows: the certified rank falls short of the word count
    assert repthy.schur_weyl_rank(1, 1, 1) == 1
    assert repthy.schur_weyl_rank(2, 2, 1) == 5


# the Schur-Weyl keys of the tensor_certify workload, then two more
SCHUR_WEYL_KEYS = [(2, 2, 1), (3, 2, 2), (4, 3, 1), (2, 2, 2), (2, 3, 1),
                   (2, 1, 3), (3, 2, 1), (4, 2, 2)]


def _dense_operator_rows(ctx, n, r, s, basis):
    """Reference: one row per basis word, its action at the point of
    ``ctx`` on every standard tensor index, flattened over all width**2
    index pairs (the rows before the Laurent builder)."""
    indices = list(itertools.product(range(1, n + 1), repeat=r + s))
    slot = {idx: k for k, idx in enumerate(indices)}
    width = len(indices)
    rows = []
    for rec in basis:
        row = [ctx.zero()] * (width * width)
        for col, idx in enumerate(indices):
            image = tensor.act_word(tensor.TensorVector.basis(ctx, idx),
                                    rec.element, n, r, s)
            for out_idx, value in image.items():
                row[slot[out_idx] * width + col] = value
        rows.append(row)
    return rows


def test_laurent_rows_match_the_dense_operator_rows():
    for n, r, s in SCHUR_WEYL_KEYS:
        basis = engine.cell_basis(r, s)
        operator = repthy._laurent_rows(n, r, s, basis)
        support = operator[2]
        assert support == sorted(set(support))
        for t in (2, 5, 13):
            ctx = RationalPointContext(t, n)
            dense = _dense_operator_rows(ctx, n, r, s, basis)
            rows = repthy._rows_at(ctx, operator)
            assert len(rows) == len(dense) == len(basis)
            assert all(type(x) is int for row in rows for x in row)
            # the integer rows are the dense rows times one common factor
            factor = next(Fraction(x) / full[pos]
                          for row, full in zip(rows, dense)
                          for x, pos in zip(row, support) if x)
            assert factor > 0 and factor.denominator == 1, (n, r, s, t)
            for row, full in zip(rows, dense):
                assert row == [full[pos] * factor for pos in support], \
                    (n, r, s, t)
                assert {pos for pos, x in enumerate(full) if x} <= \
                    set(support), (n, r, s, t)
            rank, pivots = linalg.modp_rank_robust(rows)
            assert (rank, [support[j] for j in pivots]) == \
                linalg.modp_rank_robust(dense), (n, r, s, t)


# every Schur-Weyl key of the tier-1 tests and of the benchmark workloads,
# with its rank; None marks the n = 2, r + s = 4 certification defect
SCHUR_WEYL_RANKS = {(1, 1, 1): 1, (2, 1, 1): 2, (3, 1, 1): 2, (3, 1, 2): 6,
                    (3, 2, 1): 6, (2, 2, 1): 5, (3, 2, 2): 23, (4, 3, 1): 24,
                    (4, 2, 2): 24, (4, 1, 3): 24, (2, 2, 2): None,
                    (2, 3, 1): None, (2, 1, 3): None}


def test_schur_weyl_rank_gives_the_ranks_of_the_dense_rows(monkeypatch):
    # the ranks and the n = 2, r + s = 4 defect of the dense rows, for the
    # keys above and those of acceptance criterion 07, computed afresh,
    # with the residue bound and with it switched off (the Laurent path
    # alone); the bound never exceeds the rank and is full where it is
    residue_rank = repthy._residue_rank
    bounds = {}

    def recorded(n, r, s, basis):
        bounds[n, r, s] = residue_rank(n, r, s, basis)
        return bounds[n, r, s]

    for bound in (recorded, lambda *args: -1):
        monkeypatch.setattr(repthy, "_residue_rank", bound)
        for key, rank in SCHUR_WEYL_RANKS.items():
            if rank is not None:
                assert repthy.schur_weyl_rank(*key) == rank, key
                continue
            with pytest.raises(RankCertificationFailed) as info:
                repthy.schur_weyl_rank(*key)
            assert str(info.value) == \
                "no small rational function fits the data"
    assert set(bounds) == set(SCHUR_WEYL_RANKS)
    for (n, r, s), bound in bounds.items():
        rank = SCHUR_WEYL_RANKS[n, r, s]
        full = math.factorial(r + s)
        assert bound <= (full if rank is None else rank), (n, r, s)
        assert (bound == full) == (rank == full), (n, r, s)


def test_full_schur_weyl_ranks_build_no_laurent_rows(monkeypatch):
    # a full rank of the residue rows at q = 2 is the answer

    def refuse(*args):
        raise AssertionError("Laurent rows built for a full rank")

    monkeypatch.setattr(repthy, "_laurent_rows", refuse)
    for n, r, s in ((4, 3, 1), (4, 2, 2), (4, 1, 3), (3, 2, 1)):
        assert repthy.schur_weyl_rank(n, r, s) == math.factorial(r + s)


def test_n2_fits_eliminate_on_integers_and_still_find_no_function(
        monkeypatch):
    # _fit_rational solves its systems at a plain rational point, so its
    # kernel_basis takes the integer elimination; the n = 2, r + s = 4
    # keys still fail with the message they always gave
    integer_rref = linalg._integer_rref
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return integer_rref(rows)

    fit = repthy._fit_rational
    fits = []

    def counted_fit(*args):
        before = len(calls)
        try:
            return fit(*args)
        finally:
            fits.append(len(calls) - before)

    monkeypatch.setattr(linalg, "_integer_rref", spy)
    monkeypatch.setattr(repthy, "_fit_rational", counted_fit)
    for key in ((2, 2, 2), (2, 3, 1), (2, 1, 3)):
        fits.clear()
        with pytest.raises(RankCertificationFailed) as info:
            repthy.schur_weyl_rank(*key)
        assert str(info.value) == "no small rational function fits the data"
        assert fits and all(fits), key


def test_certified_kernel_matches_the_kernel_over_every_position(
        monkeypatch):
    # the pivot-equation kernel against the kernel over every column of
    # the evaluated Laurent rows, with two inputs the exact check must
    # reject: a pivot list missing one position, and a kernel vector with
    # one entry perturbed
    kernel_basis = linalg.kernel_basis
    for n, r, s in ((2, 2, 2), (2, 3, 1), (2, 1, 3), (3, 2, 2), (2, 2, 1)):
        basis = engine.cell_basis(r, s)
        operator = repthy._laurent_rows(n, r, s, basis)
        for t in (2, 5, 13):
            ctx = RationalPointContext(t, n)
            rows = repthy._rows_at(ctx, operator)
            positions = [list(col) for col in zip(*rows) if any(col)]
            want = kernel_basis(ctx, positions, len(basis))
            rank, pivots = linalg.modp_rank_robust(rows)
            assert rank + len(want) == len(basis), (n, r, s, t)
            assert linalg.certified_kernel(ctx, rows, pivots) == want
            with pytest.raises(RankCertificationFailed):
                linalg.certified_kernel(ctx, rows, pivots[1:])
            word = next(a for a, row in enumerate(rows) if any(row))

            def perturbed(*args):
                out = kernel_basis(*args)
                out[-1][word] += 1
                return out

            monkeypatch.setattr(linalg, "kernel_basis", perturbed)
            with pytest.raises(RankCertificationFailed):
                linalg.certified_kernel(ctx, rows, pivots)
            monkeypatch.undo()


def test_verify_kernel_element_accepts_the_kernel_and_rejects_perturbations():
    n, r, s = 3, 2, 2
    basis = engine.cell_basis(r, s)
    spec = FieldSpec.qpower(n)
    operator = repthy._laurent_rows(n, r, s, basis)
    [kernel] = repthy._kernel_interpolation(n, r, s, basis, 1, operator, {})
    repthy._verify_kernel_element(n, r, s, basis, spec, kernel)
    # a rational multiple is a kernel vector too, over a denominator that
    # is not a monomial
    q = scalars.q_elem(spec)
    one = scalars.one(spec)
    factor = (one + q) / (q - one - one)
    repthy._verify_kernel_element(n, r, s, basis, spec,
                                  [x * factor for x in kernel])
    a = next(k for k, x in enumerate(kernel) if x)
    zero_at = next(k for k, x in enumerate(kernel) if not x)
    for pos, bump in ((a, one), (a, kernel[a] * q / (q + one)),
                      (zero_at, q)):
        bad = list(kernel)
        bad[pos] = bad[pos] + bump
        with pytest.raises(RankCertificationFailed):
            repthy._verify_kernel_element(n, r, s, basis, spec, bad)
    with pytest.raises(RankCertificationFailed):
        repthy._verify_kernel_element(n, r, s, basis, spec,
                                      [scalars.zero(spec)] * len(basis))


def test_relation_suite_names_an_injected_false_relation(monkeypatch):
    original = words.presentation_relations
    W = words.WordElement.from_word
    g1 = (("g", 1),)
    # the quadratic relation of the other braid convention
    false = ("g1_quadratic_other_convention", W(g1 + g1),
             W(g1, -1, 1, 0) + W(g1, 1, -1, 0) + words.WordElement.unit())
    act_word = tensor.act_word
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return act_word(*args)

    monkeypatch.setattr(tensor, "act_word", counted)
    count = len(original(2, 2))
    for where in (0, 1, count):
        def injected(r, s, where=where):
            rels = list(original(r, s))
            rels.insert(where, false)
            # a true relation written another way is not named
            rels.append(("g1_doubled", W(g1) + W(g1), W(g1, 2)))
            return rels

        monkeypatch.setattr(repthy.words, "presentation_relations", injected)
        for sample in (None, 10):
            del calls[:]
            assert repthy.relation_suite(2, 2, sample=sample) == \
                ["g1_quadratic_other_convention"], (where, sample)
            # one kernel call for every relation on every vector
            assert calls == [count + 2]

    # two false relations are named in presentation order
    def two(r, s):
        rels = list(original(r, s))
        rels.insert(0, ("g1_twice", W(g1 + g1), W(g1, 2)))
        return rels + [false]

    monkeypatch.setattr(repthy.words, "presentation_relations", two)
    for sample in (None, 10):
        assert repthy.relation_suite(2, 2, sample=sample) == \
            ["g1_twice", "g1_quadratic_other_convention"]


def test_relation_suites_run_without_field_arithmetic(monkeypatch):
    calls = []
    for name in ("__mul__", "__add__"):
        def counted(self, other, _original=getattr(scalars.Scalar, name),
                    _name=name):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(scalars.Scalar, name, counted)
    assert repthy.relation_suite(2, 2, sample=10) == []
    assert calls == []
    spec = FieldSpec.qpower(4)
    scalars.one(spec) * scalars.one(spec) + scalars.one(spec)
    assert calls == ["__mul__", "__add__"]


def test_singular_dimension_check_counts():
    dims = repthy.singular_dimension_check(2, 1)
    assert sum(d * d for d in dims.values()) == 6
    dims = repthy.singular_dimension_check(
        2, 1, field="cyclo:4,rho=zeta^3", n=3)
    assert sum(d * d for d in dims.values()) == 6


def test_gram_certificate_numeric_small_shape():
    assert repthy.gram_certificate_numeric(2, 1)


def test_integer_value_rejects_non_integers():
    ctx = FieldContext(FieldSpec.generic())
    assert repthy._integer_value(ctx, ctx.from_monomial(3)) == 3
    failed = False
    try:
        repthy._integer_value(ctx, ctx.from_monomial(1, 1, 0))
    except IntegralityViolation:
        failed = True
    assert failed


@pytest.mark.parametrize("field", ["qpow:2", "cyclo:4,rho=zeta^1",
                                   "cyclo:3,rho=free", "generic"])
def test_integer_value_reads_small_integers_from_their_residue(field):
    ctx = FieldContext(FieldSpec.from_string(field))
    for k in range(-70, 71):
        if abs(k) <= 64:
            assert repthy._integer_value(ctx, ctx.from_monomial(k)) == k
        else:
            with pytest.raises(IntegralityViolation):
                repthy._integer_value(ctx, ctx.from_monomial(k))
    for value in (ctx.from_monomial(1, 1, 0),
                  ctx.from_monomial(Fraction(1, 2))):
        with pytest.raises(IntegralityViolation,
                           match="^a decomposition entry is not a small "
                                 "integer$"):
            repthy._integer_value(ctx, value)


def test_analyze_result_shape_and_determinism(monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})  # a cold answer memo
    res = repthy.analyze(2, 1, field="cyclo:4,rho=zeta^0")
    assert set(res) == {"r", "s", "field", "labels", "gram_ranks",
                        "decomposition", "blocks", "oracles"}
    assert res["gram_ranks"] == [2, 0, 1]
    assert res["oracles"]["semisimple"] == {"computed": False,
                                            "predicted": False}
    assert res["oracles"]["blocks1"] is True
    assert res["oracles"]["einfty"] is None
    assert repthy.oracle_violations(res) == []
    # a second computation, not the first one's memo entry
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    again = repthy.analyze(2, 1, field="cyclo:4,rho=zeta^0")
    assert json.dumps(res, sort_keys=True) == json.dumps(again,
                                                         sort_keys=True)


def test_result_emitters():
    res = repthy.analyze(1, 1, field="qpow:1")
    latex = repthy.result_to_latex(res)
    assert latex.startswith("% decomposition matrix")
    assert "\\begin{tabular}" in latex and "\\end{tabular}" in latex
    assert latex.count("\\\\") == len(res["labels"]) + 1
    csv_text = repthy.result_to_csv(res)
    lines = csv_text.strip().split("\n")
    assert len(lines) == len(res["labels"]) + 1
    assert lines[0].startswith("label,gram_rank")


def test_column_mismatch_raises_oracle_error():
    # force a wrong prediction by asking for a decomposition over a field
    # where the hypothesis machinery and the table disagree: none of the
    # supported fields do, so instead check the guard through the public
    # trace: a healthy run never raises.
    raised = False
    try:
        repthy.decomposition_matrix(2, 1, field="cyclo:4,rho=zeta^0")
    except OracleMismatch:
        raised = True
    assert not raised


def test_decomposition_matrix_raises_on_a_singular_trace_system(
        monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})  # a cold answer memo
    monkeypatch.setattr(repthy, "_layer_trace_table",
                        lambda tab, label: [tab.ctx.zero()] * tab.size)
    with pytest.raises(TraceSystemSingular,
                       match="^simple trace vectors are dependent or "
                             "inconsistent$"):
        repthy.decomposition_matrix(1, 1)


# the grid fields, then the roots of unity that ``einfty_comparison``
# reads for qpow:-2 ... qpow:4
MEMO_FIELDS = cli.grid_fields() + [
    FieldSpec.cyclotomic(m, a) for a in range(-2, 5) for m in (7, 11)]


def _answer(dec):
    return dec.rows, dec.columns, dec.entries, dec.gram_ranks


@pytest.mark.parametrize("r, s", BUNDLED_SHAPES)
def test_a_memo_hit_equals_a_cold_computation(r, s, monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    # the commands fill the memo: the grid fields, the blocks1 sub-shapes
    # and the einfty fields of every qpow decomp
    for spec in cli.grid_fields():
        for command in ("decomp", "blocks"):
            assert cli.main([command, "--r", str(r), "--s", str(s),
                             "--field", spec.to_string(),
                             "--out", os.devnull]) == cli.EXIT_OK
    memo = engine.generic_table(r, s).decompositions
    assert set(memo) == set(MEMO_FIELDS)
    fresh = engine.load_table(engine.bundled_path(r, s), r, s)
    for spec in MEMO_FIELDS:
        hit = repthy.decomposition_matrix(r, s, field=spec)
        assert _answer(hit) == _answer(memo[spec])
        cold = repthy._decompose(r, s, spec, fresh.specialize(spec))
        assert _answer(hit) == _answer(cold), spec
    assert fresh.decompositions == {}


def test_a_memo_hit_specialises_and_eliminates_nothing(monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    keys = [(2, 2, "qpow:2"), (2, 1, "cyclo:4,rho=zeta^0"),
            (1, 2, "cyclo:3,rho=free"), (2, 2, "generic")]
    cold = [repthy.analyze(r, s, field=field) for r, s, field in keys]

    def forbidden(*args):
        raise AssertionError("a memo hit specialised or eliminated")

    monkeypatch.setattr(scalars, "specialize", forbidden)
    monkeypatch.setattr(linalg, "rref", forbidden)
    assert [repthy.analyze(r, s, field=field) for r, s, field in keys] == cold
    for r, s, field in keys:
        repthy.blocks(r, s, field=field)


def test_editing_an_answer_changes_no_later_answer(monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    field = "cyclo:4,rho=zeta^0"
    result = repthy.analyze(2, 1, field=field)
    expected = json.dumps(result, sort_keys=True)
    dec = repthy.decomposition_matrix(2, 1, field=field)
    answer = copy.deepcopy(_answer(dec))
    for row in result["decomposition"]["entries"] + dec.entries:
        row[0] += 5
    dec.rows.reverse()
    dec.columns.pop()
    dec.gram_ranks.clear()
    assert json.dumps(repthy.analyze(2, 1, field=field),
                      sort_keys=True) == expected
    assert _answer(repthy.decomposition_matrix(2, 1, field=field)) == answer
    assert [[repthy.label_text(label) for label in block]
            for block in repthy.blocks(2, 1, field=field)] == \
        json.loads(expected)["blocks"]


def test_a_decomposition_that_raises_is_not_memoised(monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    traced = []

    def zero_traces(tab, label):
        traced.append(label)
        return [tab.ctx.zero()] * tab.size

    monkeypatch.setattr(repthy, "_layer_trace_table", zero_traces)
    with pytest.raises(TraceSystemSingular):
        repthy.decomposition_matrix(1, 1)
    assert engine.generic_table(1, 1).decompositions == {}
    first = len(traced)
    with pytest.raises(TraceSystemSingular):
        repthy.decomposition_matrix(1, 1)
    assert first and len(traced) == 2 * first


def test_a_replaced_table_starts_with_an_empty_answer_memo(
        monkeypatch, capsys, asymmetric_table):
    argv = ["decomp", "--r", "2", "--s", "1", "--field", "qpow:4"]
    assert cli.main(argv) == cli.EXIT_OK
    assert FieldSpec.qpower(4) in engine.generic_table(2, 1).decompositions
    label = next(label for label in _labels(2, 1)
                 if engine.cell_layout(2, 1)[label][1] > 1)
    monkeypatch.setattr(engine, "_TABLE_MEMO", {
        (2, 1, engine.cache_path(2, 1)): asymmetric_table(2, 1, label)})
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_MISMATCH
    assert capsys.readouterr() == (
        "", "OracleMismatch: Gram matrix is not symmetric at %s\n"
        % repthy.label_text(label))


def _leaves(x):
    if isinstance(x, repthy.DecompositionMatrix):
        x = list(vars(x).values())
    if isinstance(x, dict):
        x = list(x.items())
    if isinstance(x, (list, tuple)) and not isinstance(
            x, (FieldSpec, combinat.CellLabel)):
        return [leaf for item in x for leaf in _leaves(item)]
    return [x]


def test_the_answer_memo_holds_no_field_value(monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    for spec in ("qpow:2", "cyclo:4,rho=zeta^0", "cyclo:3,rho=free",
                 "generic"):
        for r, s in BUNDLED_SHAPES:
            repthy.analyze(r, s, field=spec)
    entries = [dec for table in engine._TABLE_MEMO.values()
               for dec in table.decompositions.values()]
    # the blocks1 sub-shapes and the einfty fields are memoised too
    assert len(entries) > 4 * len(BUNDLED_SHAPES)
    assert {type(leaf) for leaf in _leaves(entries)} == \
        {int, combinat.CellLabel, FieldSpec}


def _repeat_first_singular_vector(monkeypatch):
    """Make every singular vector of a label the first one of its label."""
    original = tensor.singular_vector
    first = {}

    def repeated(label, t, d, n, spec=None):
        if label not in first:
            first[label] = original(label, t, d, n, spec)
        return first[label]

    monkeypatch.setattr(tensor, "singular_vector", repeated)


def test_singular_cell_module_raises_on_dependent_vectors(monkeypatch):
    _repeat_first_singular_vector(monkeypatch)
    label = _labels(2, 1)[0]
    with pytest.raises(RankCertificationFailed,
                       match=r"^singular vectors are dependent at "
                             r"f=1,\[1\]\|\[\]$"):
        repthy._singular_module(2, 1, label, FieldSpec.qpower(3), 3)


def test_singular_cell_module_raises_when_the_span_is_not_stable(
        monkeypatch):
    # the sum of the basis vectors of the singular vector's weight space:
    # the action keeps it inside that weight space, the support, but not
    # on its line
    original = tensor.singular_vector

    def weight_space_sum(label, t, d, n, spec=None):
        vec = original(label, t, d, n, spec)
        wt = tensor.weight_of_index(vec.items()[0][0], n, 2, 1)
        return tensor.TensorVector(vec.ctx, {
            tuple(idx): vec.ctx.one()
            for idx in tensor.weight_space(wt, n, 2, 1)})

    monkeypatch.setattr(tensor, "singular_vector", weight_space_sum)
    label = _labels(2, 1)[1]
    with pytest.raises(RankCertificationFailed,
                       match=r"^the singular span is not stable at "
                             r"f=0,\[2\]\|\[1\]$"):
        repthy._singular_module(2, 1, label, FieldSpec.qpower(3), 3)


def test_singular_dimension_check_raises_on_dependent_vectors(monkeypatch):
    _repeat_first_singular_vector(monkeypatch)
    with pytest.raises(OracleMismatch,
                       match=r"^singular vectors are dependent at "
                             r"f=1,\[1\]\|\[\]$"):
        repthy.singular_dimension_check(2, 1)
