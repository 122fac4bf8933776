"""The letter matrices of a coordinate system, read at the pivot
coordinates only, against the dense reference they replace: every stored
image acted on in full, flattened over the support and solved with its
residual checked."""

import functools
from fractions import Fraction

import pytest

from wbq import engine, linalg, repthy, tensor
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
def _system(r, s, point, support):
    """A coordinate system of B_{r,s} at one kind of point: a residue node
    ``("residue", t, n)`` on the weight-space support of the generic build
    (``support`` "weight") or on the full space ("full"), a ``Fraction``
    point ``("fraction", t)`` on ``repthy._faithful_support``, or the field
    ``("qpow", n)``."""
    kind = point[0]
    if kind == "residue":
        _, t, n = point
        ctx = RationalPointContext(t, n, PRIME)
        chosen = engine._support_indices(n, r, s) if support == "weight" \
            else None
        return engine.CoordinateSystem.build(r, s, ctx=ctx, n=n,
                                             support=chosen)
    if kind == "fraction":
        n = r + s
        return engine.CoordinateSystem.build(
            r, s, ctx=RationalPointContext(point[1], n), n=n,
            support=repthy._faithful_support(n, r, s), max_seeds=8)
    n = point[1]
    return engine.CoordinateSystem.build(
        r, s, ctx=FieldContext(FieldSpec.qpower(n)), n=n)


RESIDUE_NODES = [(2, 0), (3, 2), (5, 5)]  # (t, n - (r + s))


def _cases():
    for r, s in SHAPES:
        for t, dn in RESIDUE_NODES:
            for support in ("weight", "full"):
                yield r, s, ("residue", t, r + s + dn), support
        yield r, s, ("fraction", Fraction(3, 2)), None
        yield r, s, ("qpow", r + s), None
    yield 2, 1, ("qpow", 4), None


CASES = list(_cases())


@pytest.mark.parametrize("r,s,point,support", CASES)
def test_pivot_read_matches_the_dense_reference(r, s, point, support):
    system = _system(r, s, point, support)
    for letter in _letters(r, s):
        assert system._letter_columns(letter) == \
            _dense_letter_columns(system, letter), letter


def test_the_residue_cases_include_several_seeds():
    # the seed block of a pivot column is read, so some case must have
    # more than one seed
    assert any(len(_system(r, s, point, support).seeds) > 1
               for r, s, point, support in CASES if point[0] == "residue")


def test_one_kernel_call_per_letter_and_no_flatten(monkeypatch):
    systems = [_system(r, s, point, support)
               for r, s, point, support in CASES]
    systems.append(_system(2, 2, ("residue", 3, 6), "weight"))
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
