"""Tests for the binomial change of basis between models."""

from itertools import product

import pytest

from qmzv import transforms
from qmzv.errors import ParameterError
from qmzv.transforms import (
    DAGGER_FROM_SZ,
    SZ_FROM_DAGGER,
    coeff,
    expand,
    roundtrip,
    verify_transform,
)
from qmzv.words import BAR1, BarIndex, bar_from_pairs, interleave_pairs, sz_from_pairs


def test_coeff_examples():
    assert coeff("b", (3,), (2,)) == 2
    assert coeff("bbar", (3,), (2,)) == -2
    assert coeff("b", (4, 3), (2, 2)) == 3 * 2
    assert coeff("bbar", (4, 3), (2, 2)) == -6
    assert coeff("b", (2,), (3,)) == 0
    assert coeff("bbar", (1, 5), (1, 6)) == 0


def test_coeff_diagonal_is_one():
    for m in ((1,), (4,), (2, 3), (5, 1, 2)):
        assert coeff("b", m, m) == 1
        assert coeff("bbar", m, m) == 1


def test_coeff_validation():
    with pytest.raises(ParameterError):
        coeff("c", (1,), (1,))
    with pytest.raises(ParameterError):
        coeff("b", (1, 2), (1,))
    with pytest.raises(ParameterError):
        coeff("b", (0,), (1,))


def test_expand_plain_examples():
    assert expand(DAGGER_FROM_SZ, False, None, (2,)) == [(1, (1,)), (1, (2,))]
    assert expand(SZ_FROM_DAGGER, False, None, (2,)) == [
        (-1, BarIndex((1,))),
        (1, BarIndex((2,))),
    ]
    assert expand(SZ_FROM_DAGGER, False, None, ()) == [(1, BarIndex(()))]
    assert expand(DAGGER_FROM_SZ, False, None, ()) == [(1, ())]


def test_expand_barred_targets():
    terms = dict(
        (target, c) for c, target in expand(SZ_FROM_DAGGER, True, (2,), (1,))
    )
    # l' = 1 carries the sign (-1)^(2-1), l' = 2 sits on the diagonal
    assert terms == {
        BarIndex((1,)): -1,
        BarIndex((BAR1, 1)): 1,
    }
    sz_terms = dict(
        (target, c) for c, target in expand(DAGGER_FROM_SZ, True, (2,), (1,))
    )
    assert sz_terms == {(1,): 1, (0, 1): 1}


def test_expand_validation():
    with pytest.raises(ParameterError):
        expand("sideways", False, None, (1,))
    with pytest.raises(ParameterError):
        expand(DAGGER_FROM_SZ, False, (1,), (1,))
    with pytest.raises(ParameterError, match=r"^l and k must have equal length, got \(1, 2\)"):
        expand(DAGGER_FROM_SZ, True, (1, 2), (1,))
    with pytest.raises(ParameterError, match="^l must be"):
        expand(DAGGER_FROM_SZ, True, None, (1,))


def test_expand_targets_match_the_checked_builders():
    # expand builds its targets unchecked; each equals the checked codec's
    for l, k in (((), ()), ((1,), (3,)), ((2, 1), (1, 2)), ((3, 2), (2, 4)),
                 ((1, 1, 2), (2, 1, 1))):
        points = [(lp, kp) for lp in product(*(range(1, a + 1) for a in l))
                  for kp in product(*(range(1, a + 1) for a in k))]
        for direction, build in ((SZ_FROM_DAGGER, bar_from_pairs),
                                 (DAGGER_FROM_SZ, sz_from_pairs)):
            targets = [t for _, t in expand(direction, True, l, k)]
            assert targets == [build(interleave_pairs(*p)) for p in points], (l, k)
            assert all(hash(t) == hash(build(interleave_pairs(*p)))
                       for t, p in zip(targets, points))


def test_expand_support_bound():
    for c, target in expand(SZ_FROM_DAGGER, True, (3, 2), (2, 4)):
        assert isinstance(target, BarIndex)
        assert c != 0
        assert target.weight() <= BarIndex((BAR1, BAR1, 2, BAR1, 4)).weight()
    for c, target in expand(DAGGER_FROM_SZ, False, None, (4, 2)):
        assert all(tp <= t for tp, t in zip(target, (4, 2)))


def test_verify_transform_examples():
    assert verify_transform(4, None, (2,), 20).passed
    assert verify_transform(3, (2,), (1,), 20).passed
    assert verify_transform(2, None, (1,), 20).passed


def test_verify_transform_grid():
    order = 20
    for k in range(1, 5):
        for l in range(1, 5):
            assert verify_transform(1, (l,), (k,), order).passed, (l, k)
            assert verify_transform(3, (l,), (k,), order).passed, (l, k)
        assert verify_transform(2, None, (k,), order).passed, k
        assert verify_transform(4, None, (k,), order).passed, k
    for l1, k1, l2, k2 in product((1, 2), repeat=4):
        assert verify_transform(1, (l1, l2), (k1, k2), order).passed
        assert verify_transform(3, (l1, l2), (k1, k2), order).passed


def test_verify_transform_validation():
    with pytest.raises(ParameterError):
        verify_transform(5, None, (1,), 10)
    with pytest.raises(ParameterError):
        verify_transform(2, (1,), (1,), 10)
    with pytest.raises(ParameterError):
        verify_transform(1, None, (1,), 10)


def test_verify_transform_length_mismatch_evaluates_nothing(monkeypatch):
    def evaluate(*args, **kwargs):
        raise AssertionError("a truncated index was evaluated")

    monkeypatch.setattr(transforms, "zeta_infinite", evaluate)
    for which in (1, 3):
        for l, k in (((1, 2), (1,)), ((2,), (1, 3))):
            with pytest.raises(ParameterError):
                verify_transform(which, l, k, 10)


def test_roundtrip_is_identity():
    for k in range(1, 6):
        assert roundtrip(False, None, (k,)) == {(k,): 1}
    assert roundtrip(False, None, (3, 2)) == {(3, 2): 1}
    assert roundtrip(False, None, (2, 1, 2)) == {(2, 1, 2): 1}
    for l in range(1, 5):
        for k in range(1, 7 - l):
            assert roundtrip(True, (l,), (k,)) == {(l, k): 1}
    assert roundtrip(True, (2, 1), (1, 2)) == {(2, 1, 1, 2): 1}
    assert roundtrip(True, (1, 2), (2, 2)) == {(1, 2, 2, 2): 1}
