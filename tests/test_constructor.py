"""Tests for the recursive word constructors."""

from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st
import pytest

from qmzv import constructor
from qmzv.combinat import (
    eo_count,
    index_surgery,
    kappa,
    oe_count,
    sigma_image,
    split_ones,
    tilings,
)
from qmzv.constructor import (
    bz_word,
    classical_expansion_word,
    dagger_word,
    expansion_word,
    reverse_pairs,
)
from qmzv.errors import ParameterError
from qmzv.words import H1, HGEQ2, AlgebraElement, index_from_word, pair_weight


def flat_indices(max_weight):
    """All flattened pair indices (even length, entries >= 1) with sum <= max_weight."""
    out = [()]

    def extend(prefix, budget):
        for l in range(1, budget):
            for k in range(1, budget - l + 1):
                cur = prefix + (l, k)
                out.append(cur)
                extend(cur, budget - l - k)

    extend((), max_weight)
    return out


def test_flat_indices_counts():
    assert len(flat_indices(5)) == 16
    assert len(flat_indices(6)) == 32
    assert len(flat_indices(7)) == 64


def test_base_case_is_one():
    one = AlgebraElement.one()
    assert expansion_word(0, ()) == one
    assert expansion_word(1, ()) == one
    assert bz_word(()) == one
    assert classical_expansion_word(0, ()) == one
    assert classical_expansion_word(1, ()) == one


def test_hand_unrolled_values():
    y = AlgebraElement.word("y")
    yx = AlgebraElement.word("yx")
    yxx = AlgebraElement.word("yxx")
    assert expansion_word(0, (1, 1)) == y
    assert expansion_word(0, (2, 1)) == yx
    assert expansion_word(1, (1, 1)) == yx
    assert expansion_word(1, (2, 1)) == yxx
    assert expansion_word(0, (1, 1, 1, 1)) == AlgebraElement.word("yy")
    assert dagger_word((2, 1)) == yx


def test_bz_word_hand_values():
    # sign (-1)^(sum c) composed with the length-sign twist
    assert bz_word((1, 1)) == AlgebraElement.word("yx")
    assert bz_word((2, 1)) == AlgebraElement.word("yxx")


def test_classical_hand_values():
    assert classical_expansion_word(0, (1, 1)) == AlgebraElement.word("y")
    assert classical_expansion_word(0, (2, 1)) == AlgebraElement.word("yx")
    assert classical_expansion_word(1, (1, 1)) == AlgebraElement.word("yx")
    assert classical_expansion_word(1, (2, 1)) == AlgebraElement.word("yxx")


def test_invalid_indices_rejected():
    for bad in ((1,), (1, 2, 3), (0, 1), (1, -2), (1.5, 1)):
        with pytest.raises(ParameterError):
            expansion_word(0, bad)
        with pytest.raises(ParameterError):
            classical_expansion_word(1, bad)
    with pytest.raises(ParameterError):
        expansion_word(2, (1, 1))
    with pytest.raises(ParameterError):
        classical_expansion_word(-1, (1, 1))


def test_reverse_pairs_examples():
    assert reverse_pairs((2, 1)) == (1, 2)
    assert reverse_pairs((1, 2, 3, 4)) == (4, 3, 2, 1)
    assert reverse_pairs(()) == ()
    with pytest.raises(ParameterError):
        reverse_pairs((1, 2, 3))


@given(
    st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=4
    ).map(lambda ps: tuple(e for p in ps for e in p))
)
def test_reverse_pairs_involution(c):
    assert reverse_pairs(reverse_pairs(c)) == c


def test_membership_up_to_weight_seven():
    for c in flat_indices(7):
        e0 = expansion_word(0, c)
        e1 = expansion_word(1, c)
        d = bz_word(c)
        assert e0.in_space(H1), c
        assert e1.in_space(HGEQ2), c
        assert d.in_space(HGEQ2), c
        for w, _ in d.terms():
            if w:
                assert all(e >= 2 for e in index_from_word(w)), (c, w)
        assert classical_expansion_word(0, c).in_space(H1), c
        assert classical_expansion_word(1, c).in_space(HGEQ2), c


def test_symmetry_under_pair_reversal():
    for c in flat_indices(7):
        for eps in (0, 1):
            assert expansion_word(eps, c) == expansion_word(
                eps, reverse_pairs(c)
            ), (eps, c)


def _length_grade(u: AlgebraElement, length: int) -> AlgebraElement:
    return AlgebraElement({w: co for w, co in u.terms() if len(w) == length})


def _subsets(positions):
    for n in range(len(positions) + 1):
        yield from combinations(positions, n)


_REFERENCE_MEMO: dict = {}


def classical_reference(eps: int, c: tuple) -> AlgebraElement:
    """The paper's explicit classical recursion, kept apart from the library.

    Only domino-free B survive in the peeling term, and in the deletion term
    only tilings A whose renumbered B is domino-free, each with one word of
    top length.
    """
    key = (eps, c)
    if key in _REFERENCE_MEMO:
        return _REFERENCE_MEMO[key]
    if not c:
        return AlgebraElement.one()
    ones, gt1 = split_ones(c)
    total = AlgebraElement.zero()
    for B in _subsets(gt1):
        if not B or eo_count(B) != 0:
            continue
        sub = classical_reference(eps, index_surgery(c, (), B))
        sign = (-1) ** len(B)
        total = total - sign * (sub * AlgebraElement.word("x" * len(B)))
        if len(B) >= 2:
            total = total - sign * (sub * AlgebraElement.word("y" + "x" * (len(B) - 1)))
    for A in tilings(len(c) // 2):
        if not set(A) <= set(ones):
            continue
        kap = kappa(A)
        for B in _subsets(gt1):
            if len(A) + len(B) < 2 or oe_count(sigma_image(A, B)) != 0:
                continue
            sub = classical_reference(eps, index_surgery(c, A, B))
            coeff = (-1) ** (eo_count(A) + len(B))
            top = (1 + eps) * kap + len(B) - 1
            total = total + coeff * (sub * AlgebraElement.word("y" + "x" * top))
    _REFERENCE_MEMO[key] = total
    return total


def test_classical_is_top_length_grade():
    # eps=1 words carry one extra letter per surviving pair
    for c in flat_indices(8):
        for eps in (0, 1):
            top = pair_weight(c) + eps * (len(c) // 2)
            full = expansion_word(eps, c)
            classical = classical_expansion_word(eps, c)
            lengths = {len(w) for w, _ in full.terms()}
            assert max(lengths, default=0) == top, (eps, c)
            assert _length_grade(full, top) == classical, (eps, c)
            assert all(len(w) == top for w, _ in classical.terms()), (eps, c)
            assert classical == classical_reference(eps, c), (eps, c)


def test_integer_coefficients():
    for c in flat_indices(6):
        for u in (expansion_word(0, c), expansion_word(1, c), bz_word(c)):
            assert all(isinstance(co, int) for _, co in u.terms()), c


def test_cache_is_transparent():
    constructor.clear_cache()
    first = expansion_word(0, (1, 2, 2, 1))
    again = expansion_word(0, (1, 2, 2, 1))
    assert first == again
    constructor.clear_cache()
    assert expansion_word(0, (1, 2, 2, 1)) == first
    classical = classical_expansion_word(1, (1, 2, 2, 1))
    constructor.clear_cache()
    assert classical_expansion_word(1, (1, 2, 2, 1)) == classical
    assert classical == classical_reference(1, (1, 2, 2, 1))


def test_sign_knob_changes_output():
    constructor.clear_cache()
    original = constructor._TERM1_SIGN
    constructor._TERM1_SIGN = -original
    try:
        assert expansion_word(0, (2, 1)) != AlgebraElement.word("yx")
    finally:
        constructor._TERM1_SIGN = original
        constructor.clear_cache()
    assert expansion_word(0, (2, 1)) == AlgebraElement.word("yx")


def test_bz_word_applies_length_sign():
    constructor.clear_cache()
    original = constructor.theta
    constructor.theta = lambda u: u
    try:
        assert bz_word((2, 1)) == -AlgebraElement.word("yxx")
    finally:
        constructor.theta = original
    assert bz_word((2, 1)) == AlgebraElement.word("yxx")
