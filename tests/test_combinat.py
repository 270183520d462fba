import itertools

import pytest

from qmzv.errors import ParameterError
from qmzv.combinat import (
    _alpha,
    _beta,
    _beta_after,
    _dominoes,
    _index_surgery,
    _split_ones,
    alpha,
    beta,
    beta_after,
    eo_count,
    index_surgery,
    kappa,
    oe_count,
    sigma_image,
    sigma_map,
    split_ones,
    tilings,
)

# frozen from the brute-force oracle below
TILING_COUNTS = {0: 1, 1: 2, 2: 4, 3: 10, 4: 24, 5: 58}


def brute_force_tilings(r):
    """Independent oracle: test every subset of [2r] for a decomposition."""
    found = []
    full = list(range(1, 2 * r + 1))
    for size in range(2 * r + 1):
        for sub in itertools.combinations(full, size):
            s = set(sub)
            decomps = []
            eo_js = [j for j in range(1, r) if {2 * j, 2 * j + 1} <= s]
            for pick in itertools.product((False, True), repeat=len(eo_js)):
                S = set()
                for use, j in zip(pick, eo_js):
                    if use:
                        S |= {2 * j, 2 * j + 1}
                rest = s - S
                js = sorted(j for j in range(1, r + 1) if {2 * j - 1, 2 * j} <= rest)
                covered = set()
                for j in js:
                    covered |= {2 * j - 1, 2 * j}
                if covered == rest and all(b - a != 1 for a, b in zip(js, js[1:])):
                    decomps.append((frozenset(S), frozenset(rest)))
            if decomps:
                found.append((sub, decomps))
    return found


@pytest.mark.parametrize("r", range(6))
def test_tiling_counts_match_brute_force(r):
    oracle = brute_force_tilings(r)
    assert len(oracle) == TILING_COUNTS[r]
    assert set(tilings(r)) == {sub for sub, _ in oracle}
    # unique decomposition for every member
    assert all(len(decomps) == 1 for _, decomps in oracle)


def test_small_tilings_explicit():
    assert tilings(0) == ((),)
    assert tilings(1) == ((), (1, 2))
    assert tilings(2) == ((), (1, 2), (2, 3), (3, 4))


def test_tilings_have_even_size_and_sorted_order():
    for r in range(5):
        ts = tilings(r)
        assert all(len(t) % 2 == 0 for t in ts)
        assert list(ts) == sorted(ts, key=lambda t: (len(t), t))


def test_domino_stats():
    assert eo_count((2, 3)) == 1
    assert eo_count((1, 2)) == 0
    assert oe_count((1, 2)) == 1
    assert oe_count((2, 3)) == 0
    assert eo_count((2, 3, 4, 5)) == 2
    assert oe_count((1, 2, 3, 4)) == 2
    assert kappa((1, 2, 5, 6)) == 2
    with pytest.raises(ParameterError):
        kappa((1, 2, 3))


def test_cover_counts():
    for B in [(), (1,), (1, 2), (2, 3), (1, 2, 3), (2, 3, 4, 5)]:
        assert alpha(B) == len(B) - eo_count(B)
        assert beta(B) == len(B) - oe_count(B)
    assert alpha((2, 3)) == 1
    assert beta((2, 3)) == 2
    assert alpha((1, 2)) == 2
    assert beta((1, 2)) == 1


def test_sigma_map():
    assert sigma_map((1, 2), 3) == 1
    assert sigma_map((1, 2), 5) == 3
    assert sigma_map((2, 3), 1) == 1
    assert sigma_map((2, 3), 4) == 2
    with pytest.raises(ParameterError):
        sigma_map((1, 2), 2)


def test_sigma_is_order_preserving_onto_initial_segment():
    for r in range(1, 4):
        n = 2 * r
        for A in tilings(r):
            outside = [i for i in range(1, n + 1) if i not in A]
            image = [sigma_map(A, i) for i in outside]
            assert image == list(range(1, n - len(A) + 1))


def test_beta_after():
    # deleting A renumbers B before counting odd-even dominoes
    assert sigma_image((1, 2), (3, 4)) == (1, 2)
    assert beta_after((1, 2), (3, 4)) == 1
    # renumbering by the deletion of {1} turns {2,3} into the domino {1,2}
    assert beta((2, 3)) == 2
    assert beta_after((1,), (2, 3)) == 1
    with pytest.raises(ParameterError):
        beta_after((1, 2), (2, 5))


def test_split_ones():
    assert split_ones((2, 1)) == ((2,), (1,))
    assert split_ones((1, 1, 3, 1)) == ((1, 2, 4), (3,))
    assert split_ones(()) == ((), ())


def test_index_surgery():
    assert index_surgery((2, 1), (), (1,)) == (1, 1)
    assert index_surgery((1, 1), (1, 2), ()) == ()
    assert index_surgery((1, 2, 1, 3), (1, 3), (2, 4)) == (1, 2)
    with pytest.raises(ParameterError):
        index_surgery((2, 1), (1,), ())  # position 1 carries entry 2
    with pytest.raises(ParameterError):
        index_surgery((2, 1), (), (2,))  # position 2 carries entry 1


def test_trusted_twins_match_literal_definitions():
    # the unchecked twins the constructor calls, on every pair of disjoint
    # position subsets of [6] and the index rows they cut, against literal
    # definitions of the domino counts, the renumbering and the surgery
    row = range(1, 7)
    subsets = [t for n in range(7) for t in itertools.combinations(row, n)]
    for t in subsets:
        s = set(t)
        eo = sum(1 for j in range(1, 4) if {2 * j, 2 * j + 1} <= s)
        oe = sum(1 for j in range(1, 4) if {2 * j - 1, 2 * j} <= s)
        assert (_dominoes(t, 0), _dominoes(t, 1)) == (eo, oe), t
        assert (_alpha(t), _beta(t)) == (len(t) - eo, len(t) - oe), t
        assert (alpha(t), beta(t), eo_count(t), oe_count(t)) == (
            len(t) - eo, len(t) - oe, eo, oe), t
    for a in subsets:
        for b in subsets:
            if set(a) & set(b):
                continue
            renumbered = tuple(p - len([x for x in a if x < p]) for p in b)
            want = len(renumbered) - sum(
                1 for p in renumbered if p % 2 and p + 1 in renumbered)
            assert _beta_after(a, b) == beta_after(a, b) == want, (a, b)
            c = tuple(1 if p in a else 2 + p % 2 if p in b else 1 + p % 2 for p in row)
            kept = [p for p in row if p not in a]
            cut = tuple(c[p - 1] - (p in b) for p in kept)
            assert _index_surgery(c, a, b) == index_surgery(c, a, b) == cut, (c, a, b)
            ones = tuple(p for p in row if c[p - 1] == 1)
            gt1 = tuple(p for p in row if c[p - 1] > 1)
            assert _split_ones(c) == split_ones(c) == (ones, gt1), c
