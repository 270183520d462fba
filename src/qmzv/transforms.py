"""Binomial change of basis between the strict and the barred weak model.

Values of one model expand into the other with coefficients that are products
of binomials, one per index position, optionally signed.  The two coefficient
families are mutually inverse lower-triangular matrices, so expansions
compose to the identity.  Expansions are returned symbolically as
(coefficient, target index) lists; series verification evaluates both sides
through the model evaluators.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .errors import ParameterError
from .models import zeta_infinite
from .report import Report, compare_series
from .series import QSeries
from .words import (
    BAR1,
    BarIndex,
    bar_from_pairs,
    check_index,
    interleave_pairs,
    pairs_from_bar,
    pairs_from_sz,
    sz_from_pairs,
)

SZ_FROM_DAGGER = "SZ_from_dagger"
DAGGER_FROM_SZ = "dagger_from_SZ"
DIRECTIONS = (SZ_FROM_DAGGER, DAGGER_FROM_SZ)


def coeff(kind: str, m, mp) -> int:
    """Product of per-position binomials C(m_j - 1, m'_j - 1).

    kind "b" is the plain product, "bbar" carries the sign
    (-1)^(sum m - sum m').  Zero outside the support m'_j <= m_j.
    """
    if kind not in ("b", "bbar"):
        raise ParameterError(f"kind must be 'b' or 'bbar', got {kind!r}")
    m = check_index(m, "m")
    mp = check_index(mp, "m'")
    if len(m) != len(mp):
        raise ParameterError(f"length mismatch: {m} vs {mp}")
    value = 1
    for a, b in zip(m, mp):
        if b > a:
            return 0
        value *= comb(a - 1, b - 1)
    if kind == "bbar" and (sum(m) - sum(mp)) % 2:
        value = -value
    return value


def _ranges(m):
    return product(*(range(1, a + 1) for a in m))


def expand(direction: str, with_bars: bool, l, k) -> list:
    """Symbolic expansion of one model's value in the other model's values.

    Returns (coefficient, target index) pairs.  Targets of SZ_from_dagger
    are BarIndex values, targets of dagger_from_SZ plain tuples.  With
    with_bars false, l must be omitted: every block has length one.
    """
    if direction not in DIRECTIONS:
        raise ParameterError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    kind = "bbar" if direction == SZ_FROM_DAGGER else "b"
    k = check_index(k, "k")
    if not with_bars:
        if l is not None:
            raise ParameterError("l only applies when with_bars is true")
        l = (1,) * len(k)
    l = check_index(l, "l")
    if len(l) != len(k):
        raise ParameterError(f"l and k must have equal length, got {l} and {k}")
    fill = BAR1 if direction == SZ_FROM_DAGGER else 0
    out = []
    for lp in _ranges(l):
        cl = coeff(kind, l, lp)
        for kp in _ranges(k):
            # lp and kp lie in checked ranges: the target ({fill}^(lp_1 - 1),
            # kp_1, ...) is built unchecked
            target = tuple(e for lj, kj in zip(lp, kp) for e in [fill] * (lj - 1) + [kj])
            if fill is BAR1:
                target = BarIndex._make(target)
            out.append((cl * coeff(kind, k, kp), target))
    return out


def _combine(model: str, expansion, order: int) -> QSeries:
    total = QSeries.zero(order)
    for c, target in expansion:
        total = total + zeta_infinite(model, target, order=order) * c
    return total


def verify_transform(which: int, l, k, order: int) -> Report:
    """Series check of one of the four expansion formulas.

    1: strict zero-padded value from barred weak values;
    2: strict plain value from plain weak values;
    3: barred weak value from strict zero-padded values;
    4: plain weak value from strict plain values.
    Formulas 2 and 4 take l = None.
    """
    if which not in (1, 2, 3, 4):
        raise ParameterError(f"which must be 1..4, got {which!r}")
    k = check_index(k, "k")
    params = {
        "which": which,
        "l": None if l is None else tuple(l),
        "k": k,
        "order": order,
    }
    if which in (2, 4):
        if l is not None:
            raise ParameterError(f"formula {which} takes l = None")
        l = (1,) * len(k)  # the plain formulas are 1 and 3 with blocks of length one
    pairs = interleave_pairs(l, k)
    if which in (1, 2):
        lhs = zeta_infinite("sz", sz_from_pairs(pairs), order=order)
        rhs = _combine("dagger", expand(SZ_FROM_DAGGER, True, l, k), order)
    else:
        lhs = zeta_infinite("dagger", bar_from_pairs(pairs), order=order)
        rhs = _combine("sz", expand(DAGGER_FROM_SZ, True, l, k), order)
    return compare_series("transform", params, lhs, rhs)


def roundtrip(with_bars: bool, l, k) -> dict:
    """Expand one way, re-expand every target back, and collect coefficients.

    Without bars the keys are plain indices; with bars they are flattened
    pair tuples.  The mutual-inverse property says the result is 1 on the
    input and 0 elsewhere.
    """
    k = check_index(k, "k")
    l = check_index(l, "l") if with_bars else (1,) * len(k)
    collected: dict[tuple, int] = {}
    for c1, mid in expand(SZ_FROM_DAGGER, True, l, k):
        pairs = pairs_from_bar(mid)
        for c2, back in expand(DAGGER_FROM_SZ, True, pairs[0::2], pairs[1::2]):
            # without bars every block has length one: key on the plain index
            key = pairs_from_sz(back) if with_bars else back
            collected[key] = collected.get(key, 0) + c1 * c2
    return {t: c for t, c in collected.items() if c}
