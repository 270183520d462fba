"""Nested-sum evaluators.

Every model here is a sum over tuples M < n_1 (<= or <) n_2 ... < N (finite
window) or 0 < n_1 < n_2 < ... (infinite, truncated at the series order) of a
product of one factor per position.  Every factor has one shape,

    q^(s x) / (1-q^x)^k,   x = n, or x = N - n at the top boundary,

with s and k fixed per position:

    s = 1       q^n / (1-q^n)^k           dagger entries
    s = k - 1   q^(n(k-1)) / (1-q^n)^k    bz entries
    s = k       q^(nk) / (1-q^n)^k        sz entries
    s = 0       1 / (1-q^(N-n))           bar entries (k = 1)
    s = 1       q^(N-n) / (1-q^(N-n))     boundary of the bz models (k = 1)

The infinite dagger sums weight an s = 1 factor by the run count
C(n-low+l-1, l-1), and zeta_poly replaces q^(s x) by a numerator
polynomial Q(q^n).

Every model is a tuple of slots (the factor choices at each position), a
range [low, top) for the variables, and a value ring; one walker, a suffix
recursion memoized on (position, lower bound), evaluates them all, so shared
tails are computed once.  A finite window has low = M + 1 and top = N; an
infinite sum is the same walker with low = 1 and top = order + 1.  In the
infinite dagger model each run of l - 1 bar entries before an entry k is one
run slot: the bar variables carry no factor there, so their weakly tied
values between the previous variable and n are only counted, by the binomial
weight.  The value rings are truncated integer/rational q-series, exact
rationals at a fixed rational q (|q| not 0 or 1), and the classical limits,
where every factor becomes 1/x^k.

Truncation of the infinite sums is exact: each admissible index puts a factor
of valuation >= n_r on the last variable, so every lattice point outside the
enumerated range contributes nothing below the truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from typing import NamedTuple

from .errors import AdmissibilityError, MembershipError, ParameterError
from .report import Report, compare_values
from .series import QSeries, kernel
from .words import (
    BAR1,
    H1,
    H0,
    AlgebraElement,
    BarIndex,
    bar_from_pairs,
    check_index,
    check_pairs,
    diamond_from_pairs,
    index_from_word,
    pairs_from_bar,
    pairs_from_sz,
    sz_from_pairs,
)


def check_window(M: int, N: int):
    if not (isinstance(M, int) and isinstance(N, int) and 0 <= M < N):
        raise ParameterError(f"need integers 0 <= M < N, got M={M}, N={N}")


def check_q_sample(q) -> Fraction:
    q = Fraction(q)
    if q in (0, 1, -1):
        raise ParameterError(f"q sample must avoid 0, 1 and -1, got {q}")
    return q


def _check_order(order: int) -> int:
    if not isinstance(order, int) or order < 0:
        raise ParameterError(f"truncation order must be an int >= 0, got {order!r}")
    return order


# -- value rings --------------------------------------------------------------
#
# A value ring gives the kernel q^a / (1-q^m)^k in its own values, plus the
# one and zero the walker sums with.


class _SeriesValues:
    def __init__(self, order: int):
        self.order = order
        self.one = QSeries.one(order)
        self.zero = QSeries.zero(order)

    def kernel(self, a, m, k):
        return kernel(a, m, k, self.order)


class _PointValues:
    def __init__(self, q: Fraction):
        self.q = q
        self.one = Fraction(1)
        self.zero = Fraction(0)

    def kernel(self, a, m, k):
        b = 1 - self.q**m
        if b == 0:
            raise ParameterError(f"1 - q^{m} vanishes at q = {self.q}")
        return self.q**a / b**k


class _ClassicalValues:
    one = Fraction(1)
    zero = Fraction(0)

    def kernel(self, a, m, k):
        return Fraction(1, m**k)


# -- the walker -------------------------------------------------------------------
#
# A slot per position holds the alternative factor choices at that position.
# Positions where an entry equal to 1 may flip to the boundary factor simply
# carry two choices, which replaces the outer sum over subsets.


class _Choice(NamedTuple):
    """The factor q^(s x) / (1-q^x)^k at a variable n, where x = top - n if
    reflected and x = n otherwise.  gap 1 forces the next variable strictly
    above n, gap 0 allows a tie.  l > 1 weights the factor by the run count
    C(n-low+l-1, l-1); a poly (c_0, c_1, ...) replaces q^(s x) by the
    numerator sum of c_t q^(t x)."""

    s: int
    k: int
    gap: int = 1
    reflected: bool = False
    l: int = 1
    poly: tuple | None = None


def _walk(slots, low, top, vals):
    """Sum over low <= n_1 (<= or <) n_2 ... < top of the slot factors."""
    r = len(slots)
    kern = vals.kernel
    memo = {}

    def suffix(j, low):
        if j == r:
            return vals.one
        key = (j, low)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = vals.zero
        for n in range(low, top):
            for s, k, gap, reflected, l, poly in slots[j]:
                x = top - n if reflected else n
                if poly is None:
                    f = kern(s * x, x, k)
                else:
                    terms = (c * kern(t * x, x, k) for t, c in enumerate(poly) if c)
                    f = sum(terms, vals.zero)
                if l > 1:
                    f = comb(n - low + l - 1, l - 1) * f
                total = total + f * suffix(j + 1, n + gap)
        memo[key] = total
        return total

    return suffix(0, low)


_BAR = _Choice(0, 1, gap=0, reflected=True)  # 1/(1-q^(top-n)), weak tie


def _dagger_slots(entries):
    return tuple((_BAR,) if e is BAR1 else (_Choice(1, e),) for e in entries)


def _run_slots(pairs):
    return tuple((_Choice(1, k, l=l),) for l, k in zip(pairs[0::2], pairs[1::2]))


def _strict_slots(shift, k):
    # q^(n(k+shift)) / (1-q^n)^k: shift -1 is the bz kernel, 0 the sz one
    return tuple((_Choice(e + shift, e),) for e in k)


def _diamond_slots(variant, k):
    # dagger: q^n/(1-q^n)^e, with 1/(1-q^(top-n)) for flipped ones;
    # bz: q^(n(e-1))/(1-q^n)^e, with q^(top-n)/(1-q^(top-n))
    bz = variant == "bz"
    aux = _Choice(int(bz), 1, gap=0, reflected=True)
    slots = []
    for e in k:
        main = _Choice(e - 1 if bz else 1, e)
        slots.append((aux, main) if e == 1 else (main,))
    return tuple(slots)


def _reflected_slots(k):
    # weak blocks of size k_j; the first variable of each block carries
    # q^(N-n)/(1-q^(N-n)), later ones 1/(1-q^n); strict step between blocks
    slots = []
    for kj in k:
        for t in range(1, kj + 1):
            gap = 1 if t == kj else 0
            if t == 1:
                slots.append((_Choice(1, 1, gap, reflected=True),))
            else:
                slots.append((_Choice(0, 1, gap),))
    return tuple(slots)


_SLOTS = {
    "dagger": _dagger_slots,
    "dagger-runs": _run_slots,
    "bz": partial(_strict_slots, -1),
    "sz": partial(_strict_slots, 0),
    "diamond-dagger": partial(_diamond_slots, "dagger"),
    "diamond-bz": partial(_diamond_slots, "bz"),
    "reflected": _reflected_slots,
}


@lru_cache(maxsize=None)
def _model_sum(family, entries, low, top, ring, param):
    return _walk(_SLOTS[family](entries), low, top, ring(param))


# -- index validation ----------------------------------------------------------


def _as_bar_index(k) -> BarIndex:
    return k if isinstance(k, BarIndex) else BarIndex(tuple(k))


def _check_admissible_plain(k) -> tuple:
    k = check_index(k)
    if k and k[-1] == 1:
        raise AdmissibilityError(f"index {k} must not end with entry 1")
    return k


# -- finite models ---------------------------------------------------------------


def zeta_dagger_finite(k, *, N: int, order: int, M: int = 0) -> QSeries:
    """Double-truncated weak sum over an admissible bar index."""
    k = _as_bar_index(k)
    if not k.is_admissible():
        raise AdmissibilityError(f"{k!r} ends with a bar entry")
    check_window(M, N)
    return _model_sum("dagger", k.entries, M + 1, N, _SeriesValues, _check_order(order))


def zeta_bz_finite(k, *, N: int, order: int) -> QSeries:
    """Truncated strict sum with factors q^(n(k-1))/(1-q^n)^k; any index."""
    k = check_index(k)
    check_window(0, N)
    return _model_sum("bz", k, 1, N, _SeriesValues, _check_order(order))


def zeta_diamond_finite(variant: str, k, *, N: int, order: int, M: int = 0) -> QSeries:
    """Boundary-augmented finite sums; entries equal to 1 may flip to the
    q^(N-n)-type factor with a weak tie.  The index must not end in 1."""
    if variant not in ("dagger", "bz"):
        raise ParameterError(f"variant must be 'dagger' or 'bz', got {variant!r}")
    k = _check_admissible_plain(k)
    check_window(M, N)
    if variant == "bz" and M != 0:
        raise ParameterError("the bz variant is only defined with M = 0")
    return _model_sum(
        f"diamond-{variant}", k, M + 1, N, _SeriesValues, _check_order(order)
    )


def zeta_reflected_blocks(k, *, N: int, order: int) -> QSeries:
    """Weak-block sum whose first block variables carry q^(N-n)/(1-q^(N-n))."""
    k = check_index(k)
    check_window(0, N)
    return _model_sum("reflected", k, 1, N, _SeriesValues, _check_order(order))


def xi_value(eps: int, c, *, N: int, order: int, M: int = 0) -> QSeries:
    """The two-parameter family interpolating the finite models.

    eps = 0 reads the pairs (l_j, k_j) as l_j - 1 bar entries before k_j;
    eps = 1 reads them as l_j - 1 ones before k_j + 1 in the diamond model.
    """
    c = check_pairs(c)
    if eps == 0:
        return zeta_dagger_finite(bar_from_pairs(c), N=N, order=order, M=M)
    if eps == 1:
        return zeta_diamond_finite(
            "dagger", diamond_from_pairs(c), N=N, order=order, M=M
        )
    raise ParameterError(f"eps must be 0 or 1, got {eps!r}")


# -- infinite models --------------------------------------------------------------


def zeta_infinite(model: str, k, *, order: int) -> QSeries:
    """Truncated value of the untruncated sum; the index must be admissible."""
    _check_order(order)
    if model == "dagger":
        k = _as_bar_index(k)
        if not k.is_admissible():
            raise AdmissibilityError(f"{k!r} ends with a bar entry")
        family, k = "dagger-runs", pairs_from_bar(k)
    elif model == "bz":
        k = check_index(k)
        if k and k[-1] < 2:
            raise AdmissibilityError(f"index {k} must end with an entry >= 2")
        family = "bz"
    elif model == "sz":
        family, k = "sz", sz_from_pairs(pairs_from_sz(k))
    else:
        raise ParameterError(f"unknown infinite model {model!r}")
    return _model_sum(family, k, 1, order + 1, _SeriesValues, order)


def zeta_poly(k, polys, *, order: int) -> QSeries:
    """Strict sum of Q_j(q^n) / (1-q^n)^(k_j) for numerator polynomials Q_j.

    deg Q_j <= k_j is required, and the last polynomial must vanish at 0 so
    the sum converges.  Polynomials are coefficient sequences, low degree
    first, with int or Fraction entries.
    """
    k = check_index(k)
    _check_order(order)
    if len(polys) != len(k):
        raise ParameterError(f"need {len(k)} polynomials, got {len(polys)}")
    coeffs = []
    for j, poly in enumerate(polys):
        cs = tuple(poly)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise ParameterError(f"polynomial coefficient {c!r} is not exact")
        if len(cs) > k[j] + 1:
            raise ParameterError(
                f"polynomial {j + 1} has degree {len(cs) - 1} > k_{j + 1} = {k[j]}"
            )
        coeffs.append(cs)
    if k and (not coeffs[-1] or coeffs[-1][0] != 0):
        raise ParameterError("the last polynomial must have zero constant term")
    slots = tuple((_Choice(0, kj, poly=cs),) for kj, cs in zip(k, coeffs))
    return _walk(slots, 1, order + 1, _SeriesValues(order))


# -- classical limits -------------------------------------------------------------


@lru_cache(maxsize=None)
def classical_zeta(k, N: int) -> Fraction:
    """Strict truncated harmonic sum of 1/(n_1^(k_1) ... n_r^(k_r))."""
    k = check_index(k)
    check_window(0, N)
    return _walk(_SLOTS["bz"](k), 1, N, _ClassicalValues())


@lru_cache(maxsize=None)
def classical_zeta_blocks(c, N: int) -> Fraction:
    """Block sums with l_j - 1 leading factors 1/(N-n) per block."""
    c = check_pairs(c)
    check_window(0, N)
    entries = bar_from_pairs(c).entries
    return _walk(_dagger_slots(entries), 1, N, _ClassicalValues())


@lru_cache(maxsize=None)
def classical_zeta_diamond(k, N: int) -> Fraction:
    """Classical boundary-augmented sum; ones may flip to 1/(N-n) with a tie."""
    k = _check_admissible_plain(k)
    check_window(0, N)
    return _walk(_diamond_slots("dagger", k), 1, N, _ClassicalValues())


# -- linear extension over words ---------------------------------------------------


def as_element(u) -> AlgebraElement:
    if isinstance(u, AlgebraElement):
        return u
    if isinstance(u, str):
        return AlgebraElement.word(u)
    raise ParameterError(f"expected a word or an element, got {u!r}")


Z_MODELS = ("dagger_finite", "bz_finite", "dagger_inf", "bz_inf", "classical")


def z_map(model: str, u, *, N: int | None = None, order: int | None = None,
          M: int = 0):
    """Evaluate a word or integer combination of words, linearly.

    Words must lie in H1; the infinite bz model further requires H0 so that
    its sums converge.  Returns a QSeries, or a Fraction for 'classical'.
    """
    if model not in Z_MODELS:
        raise ParameterError(f"unknown model {model!r}; choose one of {Z_MODELS}")
    u = as_element(u)
    if not u.in_space(H1):
        raise MembershipError("element must lie in H1 (words empty or y-headed)")
    if model == "bz_inf" and not u.in_space(H0):
        raise MembershipError("infinite bz evaluation needs H0 (words ending in x)")
    if model == "classical":
        if N is None:
            raise ParameterError("classical evaluation needs N")
        return sum(
            (c * classical_zeta(index_from_word(w), N) for w, c in u.terms()),
            Fraction(0),
        )
    if order is None:
        raise ParameterError(f"model {model!r} needs a truncation order")
    if model in ("dagger_finite", "bz_finite") and N is None:
        raise ParameterError(f"model {model!r} needs N")
    total = QSeries.zero(order)
    for w, c in u.terms():
        k = index_from_word(w)
        if model == "dagger_finite":
            val = zeta_dagger_finite(BarIndex(k), N=N, order=order, M=M)
        elif model == "bz_finite":
            val = zeta_bz_finite(k, N=N, order=order)
        elif model == "dagger_inf":
            val = zeta_infinite("dagger", BarIndex(k), order=order)
        else:
            val = zeta_infinite("bz", k, order=order)
        total = total + c * val
    return total


# -- rational points ----------------------------------------------------------------


_POINT_FAMILIES = ("dagger", "bz", "diamond-dagger", "diamond-bz")


def eval_at_rational_q(model: str, k, q, *, N: int, M: int = 0) -> Fraction:
    """Exact value of a finite model at a rational q with |q| not 0 or 1."""
    if model not in _POINT_FAMILIES:
        raise ParameterError(
            f"unknown model {model!r}; choose one of {_POINT_FAMILIES}"
        )
    q = check_q_sample(q)
    check_window(M, N)
    if model == "dagger":
        entries = _as_bar_index(k).entries
    elif model == "bz":
        entries = check_index(k)
        if M != 0:
            raise ParameterError("the bz model is only defined with M = 0")
    else:
        entries = _check_admissible_plain(k)
        if model == "diamond-bz" and M != 0:
            raise ParameterError("the diamond-bz model is only defined with M = 0")
    return _model_sum(model, entries, M + 1, N, _PointValues, q)


def z_map_at_q(model: str, u, q, *, N: int, M: int = 0) -> Fraction:
    """Linear extension of the finite dagger/bz models at a rational q."""
    if model not in ("dagger", "bz"):
        raise ParameterError(f"model must be 'dagger' or 'bz', got {model!r}")
    u = as_element(u)
    if not u.in_space(H1):
        raise MembershipError("element must lie in H1 (words empty or y-headed)")
    q = check_q_sample(q)
    total = Fraction(0)
    for w, c in u.terms():
        total += c * eval_at_rational_q(model, index_from_word(w), q, N=N, M=M)
    return total


def verify_bridge(w: str, N: int, q) -> Report:
    """Check the substitution law tying the two finite models on one word:
    the dagger value at 1/q equals (-1)^len(w) times the bz value at q."""
    if not isinstance(w, str):
        raise ParameterError("verify_bridge takes a single word")
    q = check_q_sample(q)
    lhs = z_map_at_q("dagger", w, Fraction(1) / q, N=N)
    rhs = (-1) ** len(w) * z_map_at_q("bz", w, q, N=N)
    return compare_values("bridge", {"word": w, "N": N, "q": str(q)}, lhs, rhs)
