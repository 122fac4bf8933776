"""The letter matrices of a coordinate system, read at the pivot
coordinates only, against the dense reference they replace: every stored
image acted on in full, flattened over the support and solved with its
residual checked.  Each system is built on the one support of
``CoordinateSystem.build``, the weight space of (1..r | 1..s), at a
residue node, at a ``Fraction`` point or over a q-power field."""

import functools
from fractions import Fraction

import pytest

from wbq import engine, linalg, tensor
from wbq.linalg import FieldContext, RationalPointContext
from wbq.scalars import FieldSpec

SHAPES = [(1, 1), (2, 1), (1, 2)]
PRIME = linalg._MODP_PRIMES[0]


def _letters(r, s):
    """Every positive and every inverse generating letter."""
    out = engine.generator_letters(r, s)
    return out + [(kind + "i", idx) for kind, idx in out[1:]]


def _dense_letter_columns(system, letter):
    cols = []
    for images in system.tensor_images:
        acted = [tensor.act_letters(img, [letter], system.n, system.r,
                                    system.s) for img in images]
        coords = system._flatten(system.ctx, acted, system.support)
        cols.append(system._solve(coords, check=True))
    return [list(row) for row in zip(*cols)]


@functools.lru_cache(maxsize=None)
def _system(r, s, point):
    """A coordinate system of B_{r,s} at one kind of point: a residue node
    ``("residue", t, n)``, a ``Fraction`` point ``("fraction", t)`` at
    n = r+s, or the field ``("qpow", n)``."""
    kind = point[0]
    if kind == "residue":
        _, t, n = point
        ctx = RationalPointContext(t, n, PRIME)
    elif kind == "fraction":
        n = r + s
        ctx = RationalPointContext(point[1], n)
    else:
        n = point[1]
        ctx = FieldContext(FieldSpec.qpower(n))
    return engine.CoordinateSystem.build(r, s, ctx=ctx, n=n)


RESIDUE_NODES = [(2, 0), (3, 2), (5, 5)]  # (t, n - (r + s))


def _cases():
    """``(r, s, point)`` and its test id.  The ids keep the numbering of a
    list that also built every residue node on the full tensor space (the
    odd numbers of the residue ids), so that a case keeps its id."""
    number = 0
    for r, s in SHAPES:
        for t, dn in RESIDUE_NODES:
            yield (r, s, ("residue", t, r + s + dn)), \
                "%d-%d-point%d-weight" % (r, s, number)
            number += 2
        for point in (("fraction", Fraction(3, 2)), ("qpow", r + s)):
            yield (r, s, point), "%d-%d-point%d-None" % (r, s, number)
            number += 1
    yield (2, 1, ("qpow", 4)), "2-1-point%d-None" % number


CASES, IDS = map(list, zip(*_cases()))


@pytest.mark.parametrize("r,s,point", CASES, ids=IDS)
def test_pivot_read_matches_the_dense_reference(r, s, point):
    system = _system(r, s, point)
    for letter in _letters(r, s):
        assert system._letter_columns(letter) == \
            _dense_letter_columns(system, letter), letter


def test_the_residue_cases_include_several_seeds():
    # the seed block of a pivot column is read, so some case must have
    # more than one seed
    assert any(len(_system(r, s, point).seeds) > 1
               for r, s, point in CASES if point[0] == "residue")


def test_one_kernel_call_per_letter_and_no_flatten(monkeypatch):
    systems = [_system(r, s, point) for r, s, point in CASES]
    systems.append(_system(2, 2, ("residue", 3, 6)))
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    def flatten(*args):
        raise AssertionError("_letter_columns flattened an image")

    monkeypatch.setattr(engine, "act_letters",
                        counted("act_letters", engine.act_letters))
    monkeypatch.setattr(engine, "act_word",
                        counted("act_word", engine.act_word))
    monkeypatch.setattr(tensor, "_act", counted("_act", tensor._act))
    monkeypatch.setattr(engine.CoordinateSystem, "_flatten",
                        staticmethod(flatten))
    for system in systems:
        for letter in _letters(system.r, system.s):
            del calls[:]
            system._letter_columns(letter)
            assert calls == ["act_letters", "_act"], (
                system.r, system.s, len(system.basis), len(system.seeds),
                letter)
