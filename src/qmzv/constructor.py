"""Recursive construction of expansion words.

expansion_word(eps, c) builds, for a flattened pair index c of even length,
the integer combination of words whose evaluation reproduces the nested sum
xi(eps, c).  The recursion peels entries of c: subsets B of positions with
entry > 1 lose one from each chosen entry, and position sets A of 1-entries
that form a partial domino tiling are deleted outright, with signs driven by
the even-odd domino counts and a binomial redistribution.  The classical
(q -> 1) version is not a second recursion: it keeps the words of
expansion_word(eps, c) of top length sum(c) - (1 - eps) * r, r = len(c) // 2.
The paper's explicit domino-free formula for it is the reference it is
checked against in tests/test_constructor.py.  expansion_word checks its
arguments once; the recursion memoizes every expansion in one lru_cache,
which clear_cache() empties.  The recursion runs on trusted paths: it calls
the unchecked twins of the combinat helpers on the pair tuples and position
subsets it builds, accumulates each expansion term by term in one dict, and
makes one element from it with the unchecked AlgebraElement._make.

The module-level sign constants exist so the test suite can flip exactly one
and watch identities fail; they are not configuration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .words import AlgebraElement, check_eps, check_pairs, theta
from .combinat import (
    _alpha,
    _beta,
    _beta_after,
    _dominoes,
    _index_surgery,
    _split_ones,
    tilings,
)

_TERM1_SIGN = -1
_EO_SIGN = -1
_D_PREFACTOR_SIGN = -1


def clear_cache():
    _expansion.cache_clear()


def reverse_pairs(c) -> tuple:
    """(l1,k1,...,lr,kr) -> (kr,lr,...,k1,l1): full reversal."""
    return tuple(reversed(check_pairs(c)))


def _subsets(positions):
    for n in range(len(positions) + 1):
        yield from combinations(positions, n)


def _add_times(total: dict, terms, coeff: int, suffix: str):
    """total += coeff * (the element with these terms) * suffix, in place."""
    for w, c in terms:
        w += suffix
        total[w] = total.get(w, 0) + coeff * c


def expansion_word(eps: int, c) -> AlgebraElement:
    """The recursive expansion; eps=0 targets the bar model, eps=1 the
    boundary-augmented one."""
    return _expansion(check_eps(eps), check_pairs(c))


@lru_cache(maxsize=None)
def _expansion(eps: int, c: tuple) -> AlgebraElement:
    # the recursion skips expansion_word's checks: _index_surgery builds only
    # valid pair tuples, and every position subset below is a sorted tuple
    if not c:
        return AlgebraElement.one()

    r = len(c) // 2
    ones, gt1 = _split_ones(c)
    total: dict[str, int] = {}

    for B in _subsets(gt1):
        if not B:
            continue
        sub = _expansion(eps, _index_surgery(c, (), B)).terms()
        sign = (-1) ** len(B)
        a, b = _alpha(B), _beta(B)
        _add_times(total, sub, _TERM1_SIGN * sign, "x" * a)
        # sum_{h=a+1}^{b} y x^(h-1), read backwards with a minus when a > b
        if a > b:
            a, b, sign = b, a, -sign
        for h in range(a + 1, b + 1):
            _add_times(total, sub, sign, "y" + "x" * (h - 1))

    ones_set = set(ones)
    for A in tilings(r):
        if not A or not set(A) <= ones_set:
            continue
        kap = len(A) // 2
        eo_sign = _EO_SIGN ** _dominoes(A, 0)
        for B in _subsets(gt1):
            sub = _expansion(eps, _index_surgery(c, A, B)).terms()
            tail = _beta_after(A, B)
            for h in range(1, kap + 1):
                coeff = (
                    eo_sign
                    * (-1) ** (len(B) + kap - h)
                    * comb(kap - 1, h - 1)
                )
                _add_times(total, sub, coeff, "y" + "x" * (h + eps * kap + tail - 1))
    return AlgebraElement._make({w: co for w, co in total.items() if co})


def dagger_word(c) -> AlgebraElement:
    """Expansion evaluated by the bar-model Z map; lands in H1."""
    return expansion_word(0, c)


def bz_word(c) -> AlgebraElement:
    """Signed theta twist of the eps=1 expansion; all entries end up >= 2."""
    c = check_pairs(c)
    return _D_PREFACTOR_SIGN ** sum(c) * theta(expansion_word(1, c))


def classical_expansion_word(eps: int, c) -> AlgebraElement:
    """Classical limit of expansion_word: its words of the top length
    sum(c) - (1 - eps) * r, the only terms that survive q -> 1."""
    check_eps(eps)
    c = check_pairs(c)
    top = sum(c) - (1 - eps) * (len(c) // 2)
    return AlgebraElement._make(
        {w: co for w, co in expansion_word(eps, c).terms() if len(w) == top}
    )
