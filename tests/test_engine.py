"""Tests for coordinate systems and structure-constant tables."""

import json
import os
import random
import re
import tempfile
from fractions import Fraction

import pytest

from wbq import combinat, engine, linalg, scalars, tensor, words
from wbq.errors import NotInSpan
from wbq.linalg import FieldContext, RationalPointContext
from wbq.scalars import FieldSpec


def test_symmetrizer_and_contraction_words():
    n2 = words.young_symmetrizer(((2,), ()), 0, sign=True)
    assert sorted(n2.monomials()) == [
        ((), 1, 0, 0), ((("g", 1),), -1, -1, 0)]
    m2 = words.young_symmetrizer(((2,), ()), 0, sign=False)
    assert sorted(m2.monomials()) == [
        ((), 1, 0, 0), ((("g", 1),), 1, 1, 0)]
    n11 = words.young_symmetrizer(((1, 1), ()), 0, sign=True)
    assert list(n11.monomials()) == [((), 1, 0, 0)]
    e0 = words.WordElement.from_word(words.e_power_letters(0))
    assert list(e0.monomials()) == [((), 1, 0, 0)]
    e1 = words.WordElement.from_word(words.e_power_letters(1))
    assert list(e1.monomials()) == [((("e",),), 1, 0, 0)]
    assert (words.WordElement.from_word(words.e_ij_letters(1, 1))
            == words.WordElement.from_word((words.E1,)))


def test_build_coordinates_reaches_full_rank():
    sys11 = engine.CoordinateSystem.build(1, 1)
    assert sys11.rank == 2
    assert len(sys11.seeds) == 1
    sys21 = engine.CoordinateSystem.build(2, 1)
    assert sys21.rank == 6


def _exact_rref_pivots(system):
    """Reference pivot choice: the pivots of an exact rref of the rows over
    the system's own context, the greedy first independent columns."""
    return linalg.rref(system.ctx, system.rows)[0]


@pytest.mark.parametrize("ctx", [None, RationalPointContext(2, 3)],
                         ids=["qpow3", "rational"])
def test_certificate_pivots_match_the_exact_rref_choice(ctx):
    system = engine.CoordinateSystem.build(2, 1, ctx=ctx)
    assert len(system.pivots) == len(system.basis)
    assert system.pivots == _exact_rref_pivots(system)


def test_expand_returns_indicator_vectors():
    system = engine.CoordinateSystem.build(2, 1)
    for a, rec in enumerate(system.basis):
        vec = system.expand(rec.element)
        for c, value in enumerate(vec):
            if c == a:
                assert value == system.ctx.one()
            else:
                assert not value


def test_expand_undoes_the_internal_parameter_flip():
    system = engine.CoordinateSystem.build(2, 1)
    rec = system.basis[0]
    scaled = rec.element.scaled(1, 1, 0)  # q * C_0
    vec = system.expand(scaled)
    q = scalars.q_elem(system.ctx.spec)
    assert vec[0] == q
    for value in vec[1:]:
        assert not value


def _value_at(value, t):
    """The value at q = t of a ``qpow`` value, through its Laurent form."""
    num, den = value.to_laurent()
    return num(t) if den is None else num(t) / den(t)


def test_numeric_expansions_are_the_values_of_the_symbolic_ones():
    # a coordinate system at the rational point (q, rho) = (t, t^(r+s))
    # expands into the values there of the field coefficients
    W = words.WordElement.from_word
    for r, s in ((2, 1), (1, 2)):
        symbolic = engine.CoordinateSystem.build(r, s)
        braid = engine.generator_letters(r, s)[1]
        inverse = (braid[0] + "i", braid[1])
        elements = [
            W((braid,), 1, 1, 0),
            W((words.E1,), 2, 0, -1) + W((braid, words.E1), -1, -2, 1),
            W((inverse, words.E1, braid), 3, 1, 1) + W((), 1, 0, 2),
            symbolic.basis[3].element.scaled(Fraction(1, 2), -1, 1),
        ]
        for t in (2, 3):
            numeric = engine.CoordinateSystem.build(
                r, s, ctx=RationalPointContext(t, r + s))
            for x in elements:
                assert numeric.expand(x) == [_value_at(v, t)
                                             for v in symbolic.expand(x)], (
                    r, s, t, x)


def test_expand_e_squared_is_delta():
    system = engine.CoordinateSystem.build(1, 1)
    e_sq = words.WordElement.from_word((words.E1, words.E1))
    vec = system.expand(e_sq)
    assert vec[0] == scalars.delta(system.ctx.spec)
    assert not vec[1]


def test_expand_rejects_vectors_outside_the_span():
    system = engine.CoordinateSystem.build(1, 1)
    coords = system.coordinates(system.basis[0].element)
    bad = list(coords)
    bad[0] = bad[0] + system.ctx.one()
    caught = False
    try:
        system.expand(bad)
    except NotInSpan:
        caught = True
    assert caught


def test_relation_closure_under_expansion():
    system = engine.CoordinateSystem.build(2, 1)
    for name, lhs, rhs in words.presentation_relations(2, 1):
        left = system.expand(lhs)
        right = system.expand(rhs)
        assert left == right, name


def test_sigma_transposes_basis_indices(sigma):
    system = engine.CoordinateSystem.build(2, 1)
    table = engine.direct_structure_constants(2, 1, FieldSpec.qpower(3))
    for a, rec in enumerate(system.basis):
        image = sigma(rec.element)
        vec = system.expand(image)
        target = table.sigma_position(a)
        for c, value in enumerate(vec):
            if c == target:
                assert value == system.ctx.one()
            else:
                assert not value


def test_structure_constants_b11_delta():
    for table in (
        engine.direct_structure_constants(1, 1, FieldSpec.qpower(2)),
        engine.build_generic_table(1, 1),
    ):
        d = scalars.delta(table.spec)
        assert table.product(0, 0) == {0: d}
        assert table.unit_expansion() == {1: table.ctx.one()}
        assert table.generator_expansion("e") == {0: table.ctx.one()}
        table.certify()


@pytest.fixture(scope="module")
def table_21():
    """One generic (2,1) build at seed 0, shared by the tests that read it."""
    return engine.build_generic_table(2, 1)


def _serialised(table):
    # the bytes save_table writes
    return (json.dumps(table.to_json_dict(), sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def _bundled_bytes(r, s):
    with open(engine.bundled_path(r, s), "rb") as fh:
        return fh.read()


def test_rebuilt_tables_match_the_bundled_files_byte_for_byte(table_21):
    for r, s, table in ((1, 1, engine.build_generic_table(1, 1)),
                        (2, 1, table_21),
                        (1, 2, engine.build_generic_table(1, 2))):
        assert _serialised(table) == _bundled_bytes(r, s)


def _residue(x, p):
    return x.numerator * pow(x.denominator, -1, p) % p


@pytest.mark.parametrize("t,n", [(2, 3), (5, 7), (13, 12)])
@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (1, 2)])
def test_modular_node_expansions_reduce_the_exact_ones(r, s, t, n):
    p = linalg._MODP_PRIMES[0]
    exact = engine._node_expansions(r, s, RationalPointContext(t, n), 0)
    modular = engine._node_expansions(r, s, RationalPointContext(t, n, p), 0)
    want = {}
    for key, vec in exact.items():
        assert all(isinstance(v, Fraction) for v in vec.values())
        reduced = {c: _residue(v, p) for c, v in vec.items()
                   if _residue(v, p)}
        if reduced:
            want[key] = reduced
    # every residue is an int in range(p), reduced where it was written
    assert all(type(v) is int and 0 <= v < p
               for vec in modular.values() for v in vec.values())
    assert modular == want


def test_a_modular_point_keys_its_letter_constants_apart(monkeypatch):
    # residues and Fractions at the same (t, n), in both orders
    p = linalg._MODP_PRIMES[0]
    letters = [words.E1, ("g", 1), ("gs", 1)]
    for first_prime, then in ((p, None), (None, p)):
        monkeypatch.setattr(tensor, "_LETTER_CONSTANTS", {})
        for prime in (first_prime, then):
            ctx = RationalPointContext(3, 4, prime)
            vec = tensor.TensorVector.basis(ctx, (1, 2, 1, 2))
            image = tensor.act_letters(vec, letters, 4, 2, 2)
            assert image.entries
            kind = Fraction if prime is None else type(ctx.one())
            assert all(type(v) is kind for v in image.entries.values())
    exact = tensor.act_letters(tensor.TensorVector.basis(
        RationalPointContext(3, 4), (1, 2, 1, 2)), letters, 4, 2, 2)
    assert {idx: int(v) for idx, v in image.entries.items()} == {
        idx: _residue(v, p) for idx, v in exact.entries.items()}


def _reject_once(monkeypatch):
    """Make ``certify`` reject the first table it sees."""
    original = engine.StructureConstants.certify
    seen = []

    def certify(table):
        seen.append(table)
        if len(seen) == 1:
            raise engine.OracleMismatch("rejected for the test")
        original(table)

    monkeypatch.setattr(engine.StructureConstants, "certify", certify)
    return seen


@pytest.mark.parametrize("first,reason", [
    (67, "reconstruction failed"), (73, "nodes agree mod 73"),
    (None, "certification rejected")])
def test_a_failing_first_prime_moves_on_to_the_next(first, reason,
                                                    monkeypatch):
    # mod 67 every residue is right but too large to lift; mod 73 the
    # rho-nodes 2^n collide (2 has order 9); without a prime of its own,
    # the certify() gate refuses the lift of the usual first prime
    primes = linalg._MODP_PRIMES
    if first is None:
        seen = _reject_once(monkeypatch)
        tried = primes[:1]
    else:
        tried = (first,)
        primes = tried + primes
    monkeypatch.setattr(linalg, "_MODP_PRIMES", tried)
    with pytest.raises(engine.InterpolationUnstable, match=reason):
        engine._build_generic_attempt(1, 1, 0, 4, None)
    monkeypatch.setattr(linalg, "_MODP_PRIMES", primes)
    if first is None:
        seen.clear()
    messages = []
    table = engine.build_generic_table(1, 1, progress=messages.append)
    assert _serialised(table) == _bundled_bytes(1, 1)
    # the next prime serves the same rho window: no doubled retry
    assert table.depth == 4
    if first is None:
        assert len(seen) == 2
        assert messages.count("certifying the interpolated table") == 2


def test_lift_needs_enough_primes():
    p0, p1 = linalg._MODP_PRIMES[:2]
    small = {0: Fraction(-3, 7), 1: Fraction(0), 2: Fraction(5)}
    large = Fraction(10 ** 6 + 3, 10 ** 5 + 7)  # beyond sqrt(p0 / 2)
    residues = {k: _residue(v, p0) for k, v in small.items()}
    assert engine._lift(residues, p0) == {0: Fraction(-3, 7), 2: 5}
    assert engine._lift({0: _residue(large, p0)}, p0) != {0: large}
    both, modulus = engine._crt({0: _residue(large, p0)}, p0,
                                {0: _residue(large, p1)}, p1)
    assert modulus == p0 * p1
    assert engine._lift(both, modulus) == {0: large}


def test_generic_table_certifies_and_caches_bit_identically(table_21):
    table = table_21
    table.certify()
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "a.json")
        second = os.path.join(tmp, "b.json")
        engine.save_table(table, first)
        reloaded = engine.load_table(first, 2, 1)
        engine.save_table(reloaded, second)
        with open(first, "rb") as fh:
            blob1 = fh.read()
        with open(second, "rb") as fh:
            blob2 = fh.read()
        assert blob1 == blob2
        for a in range(table.size):
            for b in range(table.size):
                assert table.product(a, b) == reloaded.product(a, b)


def test_structure_constants_cache_file_lifecycle(tmp_path, monkeypatch):
    # a query reads a cache file or a bundled file and never builds
    def build(*args, **kw):
        raise AssertionError("a query started a table build")

    monkeypatch.setattr(engine, "build_generic_table", build)
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    tmp = str(tmp_path)
    with pytest.raises(FileNotFoundError, match=re.escape(
            "`wbq cache build --r 3 --s 2 --cache-dir %s`" % tmp)):
        engine.structure_constants(3, 2, cache_dir=tmp)
    table = engine.load_table(engine.bundled_path(1, 1), 1, 1)
    monkeypatch.setattr(engine, "bundled_path",
                        lambda r, s: str(tmp_path / "missing.json"))
    with pytest.raises(FileNotFoundError):
        engine.structure_constants(1, 1, cache_dir=tmp)
    engine.save_table(table, engine.cache_path(1, 1, tmp))
    t1 = engine.structure_constants(1, 1, cache_dir=tmp)
    assert t1.to_json_dict() == table.to_json_dict()
    engine._TABLE_MEMO.clear()
    t2 = engine.structure_constants(1, 1, cache_dir=tmp)
    assert t1.product(0, 0) == t2.product(0, 0)


@pytest.mark.parametrize("default_first", [True, False])
def test_table_memo_is_keyed_by_the_cache_file(
        default_first, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path / "empty"))
    other = str(tmp_path / "other")
    table = engine.load_table(engine.bundled_path(1, 1), 1, 1)
    table.seed = 99
    engine.save_table(table, engine.cache_path(1, 1, other))
    calls = [(None, 0), (other, 99)]
    for cache_dir, seed in calls if default_first else calls[::-1]:
        assert engine.generic_table(1, 1, cache_dir=cache_dir).seed == seed


def test_load_table_rejects_a_table_that_is_not_generic(tmp_path):
    # the package writes generic tables only; a stored qpow table would
    # otherwise load as the generic one
    with open(engine.bundled_path(1, 1)) as handle:
        data = json.load(handle)
    data["mode"] = "qpow:3"
    path = tmp_path / "qpow.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="mode 'qpow:3'"):
        engine.load_table(str(path), 1, 1)


BUNDLED_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


def _counting(monkeypatch, module, name):
    """Calls to ``module.name`` from now on, as a list of argument tuples."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("r, s", BUNDLED_SHAPES)
def test_bundled_tables_reserialise_byte_for_byte_without_sympy(
        r, s, tmp_path, monkeypatch):
    # every value is read from its canonical terms without normalising
    normalised = _counting(monkeypatch, scalars, "_qrho_normal")
    kept = _counting(monkeypatch, scalars, "generic_from_terms")
    path = engine.bundled_path(r, s)
    copy = str(tmp_path / "copy.json")
    engine.save_table(engine.load_table(path, r, s), copy)
    with open(path, "rb") as bundled, open(copy, "rb") as saved:
        assert saved.read() == bundled.read()
    assert kept and not normalised


@pytest.mark.parametrize("r, s", BUNDLED_SHAPES)
def test_cell_layout_addresses_every_basis_record(r, s):
    # checked against the records of words.cell_basis, which place each
    # word without the address book
    basis = engine.cell_basis(r, s)
    layout = engine.cell_layout(r, s)
    assert list(layout) == list(combinat.enumerate_labels(r, s))
    assert sum(dim * dim for _, dim, _ in layout.values()) == len(basis)
    for label, (start, dim, frame) in layout.items():
        index_set = words.cell_index_set(label, r, s)
        assert len(index_set) == dim
        assert index_set[frame] == words.initial_cell_index(label, r, s)
        for i in range(dim):
            for j in range(dim):
                rec = basis[start + i * dim + j]
                assert rec.label == label
                assert (rec.left, rec.right) == (index_set[i], index_set[j])
    table = engine.structure_constants(r, s)
    for a in (-1, table.size):
        with pytest.raises(IndexError):
            table.sigma_position(a)


def test_generic_specializes_to_directly_computed_constants(table_21):
    # independently recompute the table inside the tensor model at rho=q^4
    table = table_21
    spec = FieldSpec.qpower(4)
    seen = table.specialize(spec)
    direct = engine.direct_structure_constants(2, 1, spec)
    for a in range(table.size):
        for b in range(table.size):
            assert seen.product(a, b) == direct.product(a, b)
    assert seen.unit_expansion() == direct.unit_expansion()
    for key in ("e", "g1"):
        assert seen.generator_expansion(key) == direct.generator_expansion(key)


@pytest.mark.parametrize("r, s", [(2, 1), (1, 2)])
@pytest.mark.parametrize("field, n", [
    ("cyclo:5,rho=zeta^3", 3), ("cyclo:7,rho=zeta^4", 4),
    ("cyclo:4,rho=zeta^3", 3)])
def test_cyclotomic_coordinate_systems_agree_with_the_bundled_tables(
        r, s, field, n):
    # the tensor model at q = zeta, rho = zeta^n, certified through the
    # field's ring map to Z/p, against the interpolated table specialised
    # to that root of unity; cyclo:4 has e = 2
    spec = FieldSpec.from_string(field)
    system = engine.CoordinateSystem.build(r, s, ctx=FieldContext(spec), n=n)
    assert system.rank == 6
    view = engine.structure_constants(r, s).specialize(spec)
    want = {}
    for a in range(view.size):
        for b in range(view.size):
            vec = {c: v for c, v in view.product(a, b).items() if v}
            if vec:
                want[(a, b)] = vec
    assert system.products() == want


def _eager_images(vec, spec):
    """The eager map that the lazy vector views replace: every value
    specialised, and the zero images dropped."""
    images = {c: scalars.specialize(v, spec) for c, v in vec.items()}
    return {c: x for c, x in images.items() if x}


@pytest.mark.parametrize("field, zero_images", [
    ("qpow:2", 0), ("cyclo:4,rho=zeta^1", 417), ("cyclo:3,rho=free", 2)])
def test_lazy_vectors_match_the_eager_map(field, zero_images):
    # every stored product, generator and unit vector of every bundled
    # table; a value whose image is zero reads as absent, except to get
    spec = FieldSpec.from_string(field)
    zero = scalars.zero(spec)
    seen_zeros = 0
    for r, s in BUNDLED_SHAPES:
        generic = engine.structure_constants(r, s)
        view = generic.specialize(spec)
        pairs = [(generic.product(a, b), view.product(a, b))
                 for a, b in generic._products]
        pairs += [(generic.generator_expansion(key),
                   view.generator_expansion(key))
                  for key in generic._generators]
        pairs.append((generic.unit_expansion(), view.unit_expansion()))
        for vec, lazy in pairs:
            want = _eager_images(vec, spec)
            assert dict(lazy.items()) == want
            assert lazy == want and want == lazy
            assert list(lazy) == list(want) and len(lazy) == len(want)
            for c in list(vec) + [-1, generic.size]:
                assert (c in lazy) == (c in want)
                if c in vec and c not in want:
                    seen_zeros += 1
                    assert lazy.get(c) == zero
                    assert lazy.get(c, zero) == zero
                    with pytest.raises(KeyError):
                        lazy[c]
            assert lazy.get(-1) is None
    assert seen_zeros == zero_images


def test_triangularity_and_symmetry_exhaustive_21():
    table = engine.structure_constants(2, 1)
    table.check_triangularity()
    table.check_sigma_symmetry()
    # the lowest cell layer multiplies into itself and above, never below
    top_label, (top_start, _, _) = next(iter(engine.cell_layout(2, 1).items()))
    assert top_label.f == 1
    vec = table.product(top_start, top_start)
    for c in vec:
        assert combinat.label_order(
            table.basis[c].label, top_label) in ("eq", "gt")


def _mult(table, x, y):
    ctx = table.ctx
    out = {}
    for a, ca in x.items():
        if not ca:
            continue
        for b, cb in y.items():
            if not cb:
                continue
            for c, value in table.product(a, b).items():
                out[c] = out.get(c, ctx.zero()) + ca * cb * value
    return {c: v for c, v in out.items() if v}


def test_associativity_on_random_triples():
    rng = random.Random(7)
    shapes = [(1, 1), (2, 1), (1, 2), (2, 2)]
    checked = 0
    for r, s in shapes:
        table = engine.structure_constants(r, s)
        n = table.size
        count = 10 if (r, s) != (2, 2) else 70
        for _ in range(count):
            a, b, c = (rng.randrange(n) for _ in range(3))
            left = _mult(table, _mult(table, {a: table.ctx.one()},
                                      {b: table.ctx.one()}),
                         {c: table.ctx.one()})
            right = _mult(table, {a: table.ctx.one()},
                          _mult(table, {b: table.ctx.one()},
                                {c: table.ctx.one()}))
            keys = set(left) | set(right)
            for k in keys:
                lv = left.get(k, table.ctx.zero())
                rv = right.get(k, table.ctx.zero())
                assert lv == rv
            checked += 1
    assert checked == 100


def test_relations_hold_on_the_21_table():
    table = engine.structure_constants(2, 1)
    table.check_relations()
    table.check_unit_expansions()


def test_direct_route_needs_a_large_exponent():
    caught = False
    try:
        engine.direct_structure_constants(2, 1, FieldSpec.qpower(2))
    except ValueError:
        caught = True
    assert caught


def test_rank_certificates_at_numeric_points():
    # exact: a modular rank at a sample point bounds the true rank from
    # below, and the number of basis words bounds it from above
    for r, s in [(2, 2), (3, 1)]:
        n = r + s
        ctx = RationalPointContext(2, n)
        support = engine._support_indices(n, r, s)
        system = engine.CoordinateSystem.build(r, s, ctx=ctx, n=n,
                                               support=support)
        assert system.rank == len(system.basis)
