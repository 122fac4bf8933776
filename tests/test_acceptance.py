"""Acceptance suite: every headline guarantee of the package, one
pass/fail line per criterion.

Each criterion is a separate test so the printed table maps one to one
onto the test outcomes; a failing criterion prints its FAIL line and then
asserts, keeping the report honest.
"""

import math
import time

from wbq import cli, combinat, engine, repthy
from wbq.linalg import RationalPointContext
from wbq.scalars import FieldSpec


def _report(num, text, ok):
    line = "%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, text)
    print(line)
    assert ok, line


# -- 1 -----------------------------------------------------------------

def test_criterion_01_coordinate_rank_is_the_factorial():
    """The (r+s)! cellular basis words stay independent in the tensor
    model.  Small shapes are certified over the tied Laurent field; the
    larger ones at an exact rational point, where full row rank already
    forces full generic rank (specialization can only lose rank, and the
    row count equals the target)."""
    started = time.time()
    ok = True
    for (r, s) in [(1, 1), (2, 1), (1, 2)]:
        system = engine.CoordinateSystem.build(r, s)
        ok = ok and system.rank == math.factorial(r + s)
    for (r, s) in [(2, 2), (3, 1), (3, 2)]:
        ctx = RationalPointContext(2, r + s)
        system = engine.CoordinateSystem.build(r, s, ctx=ctx)
        ok = ok and system.rank == math.factorial(r + s)
    elapsed = time.time() - started
    ok = ok and elapsed < 600
    _report(1, "coordinate rank equals (r+s)! on all six shapes "
               "(%.1fs)" % elapsed, ok)


# -- 2 -----------------------------------------------------------------

def test_criterion_02_defining_relations_hold_exactly():
    failures = []
    for (r, s) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        failures.extend((r, s, name)
                        for name in repthy.relation_suite(r, s))
    for (r, s) in [(4, 1), (3, 2), (2, 3), (1, 4)]:
        failures.extend((r, s, name)
                        for name in repthy.relation_suite(r, s, sample=50))
    _report(2, "defining relations are exact operator identities "
               "(exhaustive through rank 4, sampled at rank 5)",
            not failures)


# -- 3 -----------------------------------------------------------------

def test_criterion_03_semisimplicity_criterion_on_the_grid():
    shapes = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
    ok = True
    delta_zero_semisimple = set()
    for (r, s) in shapes:
        for spec in cli.grid_fields():
            computed, predicted = repthy.semisimplicity(r, s, field=spec)
            ok = ok and computed == predicted
            if spec == FieldSpec.qpower(0) and computed:
                delta_zero_semisimple.add((r, s))
    # at rho = 1 the contraction parameter vanishes and exactly four
    # shapes stay semisimple
    ok = ok and delta_zero_semisimple == {(1, 2), (2, 1), (1, 3), (3, 1)}
    _report(3, "computed semisimplicity matches the closed form on all "
               "102 grid points, with the vanishing-parameter "
               "exceptional list reproduced", ok)


# -- 4 -----------------------------------------------------------------

def test_criterion_04_two_dimensional_algebra_brute_force():
    spec = FieldSpec.from_string("cyclo:4,rho=zeta^0")
    dec = repthy.decomposition_matrix(1, 1, field=spec)
    ok = [repthy.label_text(l) for l in dec.columns] == ["f=0,[1]|[1]"]
    ok = ok and dec.entries == [[1], [1]]
    ok = ok and dec.block_partition() == [dec.rows]

    # independent brute force: the algebra is span{C0, C1} with C1 the
    # unit; right multiplication by the contraction word C0 annihilates
    # C0 and sends C1 to C0, so rad = span{C0}, rad^2 = 0, the unique
    # simple is the one-dimensional head of C(0,((1),(1))), and both
    # cell modules are uniserial with that head: rows [1], [1].
    tab = engine.structure_constants(1, 1, spec)
    ctx = tab.ctx
    mult = [[tab.product(a, 0).get(c, ctx.zero()) for c in range(2)]
            for a in range(2)]
    ok = ok and not mult[0][0] and not mult[0][1]
    ok = ok and mult[1][0] == ctx.one() and not mult[1][1]
    for a in range(2):
        for c in range(2):
            acc = ctx.zero()
            for k in range(2):
                acc += mult[a][k] * mult[k][c]
            ok = ok and not acc
    _report(4, "rank-two algebra at rho^2 = 1: decomposition column "
               "[1], [1] confirmed by brute-force composition series", ok)


# -- 5 -----------------------------------------------------------------

def test_criterion_05_layer_reduction_of_multiplicities():
    ok = True
    for (r, s) in [(2, 1), (2, 2)]:
        for m in (4, 3):
            spec = FieldSpec.cyclotomic(m, "free")
            outcome = repthy.blocks1_comparison(r, s, field=spec)
            ok = ok and outcome is True
    _report(5, "multiplicities connect equal contraction layers only and "
               "each layer reproduces the layer-zero matrix of the "
               "smaller algebra", ok)


# -- 6 -----------------------------------------------------------------

def test_criterion_06_singular_vectors_span_and_independence():
    ok = True
    for (r, s) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        n = r + s
        fields = [FieldSpec.qpower(n),
                  FieldSpec.cyclotomic(4, n % 4),
                  FieldSpec.cyclotomic(3, n % 3)]
        for spec in fields:
            dims = repthy.singular_dimension_check(r, s, field=spec, n=n)
            for label, dim in dims.items():
                pairc = (combinat.conjugate(label.lam1),
                         combinat.conjugate(label.lam2))
                expected = (len(combinat.standard_tableaux(pairc, label.f))
                            * len(combinat.coset_reps(r, s, label.f)))
                ok = ok and dim == expected
    _report(6, "singular vectors are annihilated by all divided powers, "
               "independent, and span a space of the predicted "
               "dimension for every label through rank 4", ok)


# -- 7 -----------------------------------------------------------------

def test_criterion_07_tensor_space_rank_certificates():
    ok = True
    for (n, r, s) in [(2, 1, 1), (3, 1, 1), (3, 2, 1), (3, 1, 2),
                      (4, 2, 2), (4, 3, 1)]:
        ok = ok and repthy.schur_weyl_rank(n, r, s) == \
            math.factorial(r + s)
    deficient = {(1, 1, 1): 1, (2, 2, 1): 5, (3, 2, 2): 23}
    for (n, r, s), expected in sorted(deficient.items()):
        rank = repthy.schur_weyl_rank(n, r, s)
        ok = ok and rank == expected < math.factorial(r + s)
    _report(7, "operator rank equals (r+s)! for n >= r+s and the three "
               "small-n deficiencies are certified exactly", ok)


# -- 8 -----------------------------------------------------------------

def test_criterion_08_large_characteristic_limit():
    ok = True
    for (r, s) in [(1, 1), (2, 1)]:
        for a in (0, 1):
            outcome = repthy.einfty_comparison(
                r, s, field=FieldSpec.qpower(a))
            ok = ok and outcome is True
    _report(8, "decomposition matrices in the infinite-characteristic "
               "regime equal their images at quantum characteristic "
               "7 and 11", ok)


# -- 9 -----------------------------------------------------------------

def test_criterion_09_route_agreement():
    ok = repthy.route_agreement(2, 1) and repthy.route_agreement(2, 2)
    _report(9, "table-derived and singular-vector cell modules share "
               "Gram ranks and trace tables at (2,1) and (2,2)", ok)


# -- 10 ----------------------------------------------------------------

def test_criterion_10_alternative_cell_realization():
    ok = True
    for (r, s) in [(1, 1), (2, 1), (2, 2)]:
        for label in combinat.enumerate_labels(r, s):
            ok = ok and repthy.alt_cell_realization_check(r, s, label)
    _report(10, "the two-sided symmetrizer realization reproduces every "
                "cell module at (1,1), (2,1) and (2,2)", ok)
