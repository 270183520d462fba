"""Subset combinatorics on the position row [2r] = {1, ..., 2r}.

Position subsets are passed around as sorted tuples of 1-based ints, which
keeps every enumeration deterministic.  The central object is the family of
partial domino tilings of the row: unions S | S' where

* S is a union of even-odd dominoes {2j, 2j+1} (j = 1, ..., r-1),
* S' is a union of odd-even dominoes {2j-1, 2j} (j = 1, ..., r) no two of
  which are adjacent, i.e. the chosen j are pairwise non-consecutive,
* S and S' are disjoint.

Each member of the family has exactly one such decomposition, which the
enumerator checks as it goes.

Each public helper checks its arguments and calls an underscored twin that
trusts them: sorted tuples of positions >= 1 and entries >= 1.  The
constructor's recursion, which builds only such tuples, calls the twins.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .errors import ParameterError


def _check_subset(S) -> tuple:
    t = tuple(sorted(set(S)))
    for p in t:
        if not isinstance(p, int) or p < 1:
            raise ParameterError(f"positions must be ints >= 1, got {S!r}")
    return t


@lru_cache(maxsize=None)
def tilings(r: int):
    """All partial domino tilings of [2r], sorted by (size, lexicographic).

    Includes the empty tiling.  Sizes r = 0, 1, 2, 3 give 1, 2, 4, 10 members.
    """
    if r < 0:
        raise ParameterError(f"row half-length must be >= 0, got {r}")
    seen: dict[tuple, tuple] = {}
    for picks_eo in itertools.product((False, True), repeat=max(r - 1, 0)):
        S = []
        for j in range(1, r):
            if picks_eo[j - 1]:
                S.extend((2 * j, 2 * j + 1))
        for picks_oe in itertools.product((False, True), repeat=r):
            js = [j for j in range(1, r + 1) if picks_oe[j - 1]]
            if any(b - a == 1 for a, b in zip(js, js[1:])):
                continue
            Sp = []
            for j in js:
                Sp.extend((2 * j - 1, 2 * j))
            if set(S) & set(Sp):
                continue
            union = tuple(sorted(S + Sp))
            if union in seen and seen[union] != (tuple(S), tuple(Sp)):
                raise ParameterError(
                    f"tiling {union} of [2*{r}] decomposes two ways"
                )
            seen[union] = (tuple(S), tuple(Sp))
    return tuple(sorted(seen, key=lambda t: (len(t), t)))


def _dominoes(t: tuple, parity: int) -> int:
    """Dominoes {p, p+1} inside t whose first position p has this parity."""
    s = set(t)
    return sum(1 for p in t if p % 2 == parity and p + 1 in s)


def eo_count(S) -> int:
    """Number of even-odd dominoes {2j, 2j+1} contained in S."""
    return _dominoes(_check_subset(S), 0)


def oe_count(S) -> int:
    """Number of odd-even dominoes {2j-1, 2j} contained in S."""
    return _dominoes(_check_subset(S), 1)


def kappa(S) -> int:
    """Half the cardinality; subsets of odd size are rejected."""
    t = _check_subset(S)
    if len(t) % 2:
        raise ParameterError(f"kappa needs an even-size subset, got {t}")
    return len(t) // 2


def sigma_map(A, i: int) -> int:
    """Rank of i among positions outside A: #({1..i} minus A).  Needs i not in A."""
    t = _check_subset(A)
    if i in t:
        raise ParameterError(f"sigma is undefined on deleted position {i}")
    if i < 1:
        raise ParameterError(f"position must be >= 1, got {i}")
    return i - sum(1 for p in t if p <= i)


def sigma_image(A, B) -> tuple:
    """Apply sigma_map(A, .) elementwise to B; A and B must be disjoint."""
    a, b = _check_subset(A), _check_subset(B)
    if set(a) & set(b):
        raise ParameterError(f"subsets must be disjoint, got {a} and {b}")
    return tuple(sigma_map(a, p) for p in b)


def _alpha(t: tuple) -> int:
    return len(t) - _dominoes(t, 0)


def _beta(t: tuple) -> int:
    return len(t) - _dominoes(t, 1)


def _beta_after(a: tuple, b: tuple) -> int:
    return _beta(tuple(p - sum(1 for x in a if x <= p) for p in b))


def alpha(B) -> int:
    """len(B) minus the even-odd dominoes inside B."""
    return _alpha(_check_subset(B))


def beta(B) -> int:
    """len(B) minus the odd-even dominoes inside B."""
    return _beta(_check_subset(B))


def beta_after(A, B) -> int:
    """beta of B after renumbering by the deletion of A."""
    return _beta(sigma_image(A, B))


# -- index surgery -----------------------------------------------------------


def _split_ones(c: tuple) -> tuple:
    ones, gt1 = [], []
    for p, e in enumerate(c, start=1):
        (ones if e == 1 else gt1).append(p)
    return tuple(ones), tuple(gt1)


def _index_surgery(c: tuple, a: tuple, b: tuple) -> tuple:
    a, b = set(a), set(b)
    return tuple(e - 1 if p in b else e for p, e in enumerate(c, start=1) if p not in a)


def split_ones(c: Sequence[int]) -> tuple:
    """Positions with entry exactly 1 and positions with entry > 1, 1-based."""
    c = tuple(c)
    for e in c:
        if not isinstance(e, int) or e < 1:
            raise ParameterError(f"entries must be ints >= 1, got {c}")
    return _split_ones(c)


def index_surgery(c: Sequence[int], A, B) -> tuple:
    """Subtract one at positions B, then delete positions A.

    A must pick only entries equal to 1 and B only entries > 1, which also
    forces the two subsets to be disjoint.
    """
    c = tuple(c)
    a, b = _check_subset(A), _check_subset(B)
    ones, gt1 = split_ones(c)
    if not set(a) <= set(ones):
        raise ParameterError(f"deleted positions {a} must carry entry 1 in {c}")
    if not set(b) <= set(gt1):
        raise ParameterError(f"decremented positions {b} must carry entry > 1 in {c}")
    return _index_surgery(c, a, b)
