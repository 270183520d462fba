"""Nested-sum evaluators.

Every model here is a sum over tuples M < n_1 (<= or <) n_2 ... < N (finite
window) or 0 < n_1 < n_2 < ... (infinite, truncated at the series order) of a
product of one factor per position.  Every factor has one shape,

    c q^(s x) / (1-q^x)^k,   x = n, or x = N - n at the top boundary,

with s and k fixed per position and c = 1 but in zeta_poly:

    s = 1       q^n / (1-q^n)^k           dagger entries
    s = k - 1   q^(n(k-1)) / (1-q^n)^k    bz entries
    s = k       q^(nk) / (1-q^n)^k        sz entries
    s = 0       1 / (1-q^(N-n))           bar entries, finite sums (k = 1)
    s = 1       q^(N-n) / (1-q^(N-n))     boundary of the bz models (k = 1)
    s = 0       1                         bar entries, infinite sums (k = 0)
    s = t       c q^(nt) / (1-q^n)^k      zeta_poly, a numerator term c q^(nt)

Every model is a tuple of slots (the factor choices at each position), a
range [low, top) for the variables, and a value ring.  A finite window has
low = M + 1 and top = N; an infinite sum has low = 1 and top = order + 1.  In
the infinite dagger sums a bar entry carries the factor 1 and ties weakly to
the next variable, so a run of l - 1 bars before an entry k is l - 1
factor-one slots, which count the C(n - low + l - 1, l - 1) weak chains below
n one value at a time.

One walker evaluates every model, bottom up.  Write S_j(lo) for the sum over
the positions j, j+1, ... with lower bound lo.  It telescopes,

    S_j(lo) = S_j(lo + 1) + sum over the choices of f(lo) S_(j+1)(lo + gap),

so S_j depends only on the suffix of slots j, j+1, ..., and the walker fills
it from lo = top - 1 down, from the last slot to the first.  The choices of
one gap add their factors first, so each gap costs one product per lo,
however many numerator terms it holds.  It takes many
slot tuples at once and keeps their suffixes as a trie keyed by slot, from
the last slot to the first; a single model is the call with one tuple.
Depth first from the empty tail, on an explicit stack with no recursion, it
fills each distinct suffix's S once, for lo from its last value,
top - 1 - (the strict steps of the suffix's slots but its last), down to its
first, low + (the fewest strict steps before it in any tuple through it).
Above last S is zero, and below first no tuple reads it.  Each call keeps a
table of the kernels q^a/(1-q^m)^k it has built and of their multiples by
each c, dropped when the call returns, so a kernel shared by slots, suffixes,
tuples and coefficients is built once per call.

The value rings are exact rationals at a fixed rational q (|q| not 0 or 1),
the classical limits, where every factor c/x^k is held as the integer
c (L/x)^k with L = lcm(1, ..., top - 1) and a walk is divided once by L^K, K
the sum of the slots' k (one per slot), and integer q-series packed by
series.pack: add is an int add, mul one bigint multiply (Kronecker
substitution), and each stored S_j(lo) is cut back to order + 1 digits by a
mask.  The walk decodes exactly while every coefficient lies below
2^(bits-1) in absolute value.  The bound that fixes bits: coefficientwise
|c q^a/(1-q^m)^k| <= |c|/(1-q)^k and each variable takes at most
top - low values, so no suffix coefficient exceeds prod_j (top - low) w_j *
C(order + K, K), with w_j the sum of |c| over slot j's choices (their number
when every c is 1) and K the sum of the largest k per slot.  A call with
many tuples walks at the largest of their widths, which holds every suffix
of each.

zeta_poly is linear in each numerator Q_j, so its slot j holds one choice
c q^(n t)/(1-q^n)^(k_j) per nonzero term c q^t of Q_j, with the numerators'
denominators cleared first and divided out once at the end; w_j is then the
L1 norm of the cleared Q_j.

The finite and infinite entry points check their arguments and call
_model_sum, one cached walk per family, index, range and ring.  Two tables
alone list the models: _FINITE each finite model's index check and M rule,
_INFINITE each infinite model's walker family and index check.  _XI gives
the finite model of each xi(eps, c) and the entries it reads from c.  The
command line takes its model names from these tables.  The word maps z_map
and z_map_at_q check the model, the element, the window, the order and q
once per call and then walk the index of every word of the element.

Truncation of the infinite sums is exact: each admissible index puts a factor
of valuation >= n_r on the last variable, so every lattice point outside the
enumerated range contributes nothing below the truncation order.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, lcm, prod
from numbers import Rational
from typing import NamedTuple

from .errors import AdmissibilityError, MembershipError, ParameterError
from .report import Report, compare_values
from .series import QSeries, layout, packed_kernel, unpack
from .words import (
    BAR1,
    H1,
    H0,
    AlgebraElement,
    BarIndex,
    _index_from_word,
    bar_from_pairs,
    check_count,
    check_eps,
    check_index,
    check_pairs,
    diamond_from_pairs,
    pairs_from_sz,
    sz_from_pairs,
    word_in,
)


def check_window(M: int, N: int, least: int = 0):
    """Integers least <= M < N (a bool is refused); ParameterError otherwise."""
    if isinstance(M, bool) or isinstance(N, bool) or not (
        isinstance(M, int) and isinstance(N, int) and least <= M < N
    ):
        raise ParameterError(f"need integers {least} <= M < N, got M={M}, N={N}")


def check_q_sample(q) -> Fraction:
    """An int, a rational or a finite Decimal q as an exact Fraction, away
    from 0, 1 and -1; a float, a string, a NaN or infinite Decimal or
    anything else is refused with ParameterError."""
    if isinstance(q, float):
        raise ParameterError(f"q sample must be exact, got the float {q!r}")
    if not isinstance(q, (Rational, Decimal)) or isinstance(q, Decimal) and not q.is_finite():
        raise ParameterError("q sample must be an int, a rational or a finite Decimal, "
                             f"got {q!r}")
    q = Fraction(q)
    if q in (0, 1, -1):
        raise ParameterError(f"q sample must avoid 0, 1 and -1, got {q}")
    return q


def check_order(order: int) -> int:
    return check_count(order, "truncation order")


# -- value rings --------------------------------------------------------------
#
# A value ring gives the kernel q^a / (1-q^m)^k in its own values, the one and
# zero the walker sums with, and trunc(), which the walker applies to every
# suffix value it stores.


def _same(value):
    return value


class _PackedValues:
    """Truncated integer q-series as series.pack residues of `bits` bits per
    coefficient; trunc() drops every digit above the order."""

    one = 1
    zero = 0

    def __init__(self, order: int, bits: int):
        self.order = order
        self.bits = bits
        self.mask = layout(bits, order)[0]

    def kernel(self, a, m, k):
        return packed_kernel(a, m, k, self.order, self.bits)

    def trunc(self, value):
        return value & self.mask


def _packed_bits(tuples, low, top, order) -> int:
    """Bits per coefficient that hold every suffix value of the walks of
    these slot tuples.

    For each tuple 2^(bits - 1) lies above
    prod_j max(top - low, 1) w_j * C(order + K, K), the bound of the module
    docstring, with w_j >= 1 the sum of |c| over slot j's choices; no factor
    is below one, so it also bounds every shorter suffix and the empty tail,
    whose value is one (two bits)."""
    width, bits = max(top - low, 1), 2
    for slots in tuples:
        bound, K = 1, 0
        for slot in slots:
            weight, k, _, _ = _plan(slot)
            bound *= width * weight
            K += k
        bits = max(bits, (bound * comb(order + K, K)).bit_length() + 1)
    return bits


def _packed_walk(tuples, low, top, order) -> tuple:
    """(bits, walks): the walk of every slot tuple on the packed ring, at the
    one width that holds them all."""
    bits = _packed_bits(tuples, low, top, order)
    return bits, _walk(tuples, low, top, _PackedValues(order, bits))


def _series_walk(slots, low, top, order) -> QSeries:
    """The walk of one slot tuple on the packed ring, unpacked to a QSeries."""
    bits, (walk,) = _packed_walk((slots,), low, top, order)
    return QSeries(order, unpack(walk, bits, order))


class _PointValues:
    trunc = staticmethod(_same)

    def __init__(self, q: Fraction):
        self.q = q
        self.one = Fraction(1)
        self.zero = Fraction(0)

    def kernel(self, a, m, k):
        # with q = n/d: q^a / (1-q^m)^k = n^a d^(mk) / (d^a (d^m - n^m)^k), one
        # Fraction built from integer powers; d^m != n^m, as m >= 1 and |q| != 1
        n, d = self.q.numerator, self.q.denominator
        return Fraction(n**a * d ** (m * k), d**a * (d**m - n**m) ** k)


class _ClassicalValues:
    """The classical limit 1/m^k times scale^k, for m dividing scale."""

    trunc = staticmethod(_same)
    one = 1
    zero = 0

    def __init__(self, scale: int):
        self.scale = scale

    def kernel(self, a, m, k):
        return (self.scale // m) ** k


def _classical_walk(slots, low, top) -> Fraction:
    """The classical value of one slot tuple, from its walk on the ring
    scaled by L = lcm(1, ..., top - 1), which every x of the walk divides."""
    ks = [{choice.k for choice in slot} for slot in slots]
    assert all(len(k) == 1 for k in ks), f"a classical slot mixes k: {slots}"
    scale = lcm(*range(1, top))
    walk = _walk((slots,), low, top, _ClassicalValues(scale))[0]
    return Fraction(walk, scale ** sum(k for (k,) in ks))


# -- the walker -------------------------------------------------------------------
#
# A slot per position holds the alternative factor choices at that position.
# Positions where an entry equal to 1 may flip to the boundary factor simply
# carry two choices, which replaces the outer sum over subsets.


class _Choice(NamedTuple):
    """The factor c q^(s x) / (1-q^x)^k at a variable n, where x = top - n
    if reflected and x = n otherwise.  gap 1 forces the next variable
    strictly above n, gap 0 allows a tie.  It is the one factor shape of the
    walker: a numerator polynomial enters as one choice per nonzero term
    c q^(s n) (zeta_poly)."""

    s: int
    k: int
    gap: int = 1
    reflected: bool = False
    c: int = 1


@lru_cache(maxsize=4096)
def _plan(slot) -> tuple:
    """(sum of |c|, largest k, least gap, choices by gap) of a slot, the last
    as ((gap, ((s, k, reflected, c), ...)), ...)."""
    gaps = sorted({choice.gap for choice in slot})
    parts = tuple((g, tuple((s, k, r, c) for s, k, gap, r, c in slot if gap == g)) for g in gaps)
    return sum(abs(choice.c) for choice in slot), max(choice.k for choice in slot), gaps[0], parts


def _walk(tuples, low, top, vals) -> list:
    """For each slot tuple, the sum over low <= n_1 (<= or <) n_2 ... < top of
    its slot factors, by the bottom-up telescoping of the suffix sums S_j(lo)
    over the trie of the tuples' suffixes (module docstring)."""
    kern, trunc, zero, one = vals.kernel, vals.trunc, vals.zero, vals.one
    width = top - low + 1
    # A trie node is one suffix: [children by slot, last n, first n, tuples
    # it completes, strict step of its slot, its slot's choices by gap].
    # Strict steps confine n_j to [low + steps before j, top - 1 - steps from
    # j to the last slot], so a node's last n is fixed by its suffix, and its
    # first n is the least over the tuples through it.
    root = [{}, top - 1, low, [], 0, ()]
    for i, slots in enumerate(tuples):
        path, node = [], root
        for slot in reversed(slots):
            child = node[0].get(slot)
            if child is None:
                _, _, step, parts = _plan(slot)
                last = top - 1 if node is root else node[1] - step
                child = node[0][slot] = [{}, last, top, [], step, parts]
            path.append(child)
            node = child
        node[3].append(i)
        first = low
        for node in reversed(path):
            if first < node[2]:
                node[2] = first
            first += node[4]
    out = [one] * len(tuples)  # the empty tuple sums to one
    kernels = {}  # (a, m, k, c) -> c times the kernel, for this call only
    get = kernels.get
    # depth first from the empty tail: above last S_j is zero, below first it
    # is never read; the choices of one gap share one product per n
    stack = [(child, [one] * width) for child in root[0].values()]
    while stack:
        (children, last, first, ends, _, parts), below = stack.pop()
        here = [zero] * width  # S_j(top) is the empty sum
        total = zero
        for n in range(last, first - 1, -1):
            for gap, choices in parts:
                f = None
                for s, k, reflected, c in choices:
                    x = top - n if reflected else n
                    key = (s * x, x, k, c)
                    g = get(key)
                    if g is None:  # build the kernel once, scale it per c
                        one_key = (s * x, x, k, 1)
                        g = get(one_key)
                        if g is None:
                            g = kernels[one_key] = kern(s * x, x, k)
                        if c != 1:
                            g = kernels[key] = c * g
                    f = g if f is None else f + g
                total = total + f * below[n - low + gap]
            here[n - low] = total = trunc(total)
        for i in ends:
            out[i] = here[0]
        stack.extend((child, here) for child in children.values())
    return out


_BAR = _Choice(0, 1, gap=0, reflected=True)  # 1/(1-q^(top-n)), weak tie
_ONE = _Choice(0, 0, gap=0)  # the factor 1, weak tie: a bar of an infinite sum


def _dagger_slots(entries, bar=_BAR):
    return tuple((bar,) if e is BAR1 else (_Choice(1, e),) for e in entries)


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
    "dagger-inf": partial(_dagger_slots, bar=_ONE),
    "bz": partial(_strict_slots, -1),
    "sz": partial(_strict_slots, 0),
    "diamond-dagger": partial(_diamond_slots, "dagger"),
    "diamond-bz": partial(_diamond_slots, "bz"),
    "reflected": _reflected_slots,
}


@lru_cache(maxsize=None)
def _model_sum(family, entries, low, top, ring, param):
    slots = _SLOTS[family](entries)
    if ring is _PackedValues:
        return _series_walk(slots, low, top, param)
    if ring is _ClassicalValues:
        return _classical_walk(slots, low, top)
    return _walk((slots,), low, top, ring(param))[0]


# -- the model tables ------------------------------------------------------------


def _check_admissible_bar(k) -> tuple:
    k = k if isinstance(k, BarIndex) else BarIndex(k)
    if not k.is_admissible():
        raise AdmissibilityError(f"{k!r} ends with a bar entry")
    return k.entries


def _check_admissible_plain(k) -> tuple:
    k = check_index(k)
    if k and k[-1] == 1:
        raise AdmissibilityError(f"index {k} must not end with entry 1")
    return k


# family -> (index check giving the walker's entries, whether M > 0 is allowed)
_FINITE = {
    "dagger": (_check_admissible_bar, True),
    "bz": (check_index, False),
    "diamond-dagger": (_check_admissible_plain, True),
    "diamond-bz": (_check_admissible_plain, False),
    "reflected": (check_index, False),
}

# model -> (walker family, index check giving the walker's entries)
_INFINITE = {
    "dagger": ("dagger-inf", _check_admissible_bar),
    "bz": ("bz", _check_admissible_plain),
    "sz": ("sz", lambda k: sz_from_pairs(pairs_from_sz(k))),
}

# eps -> (finite model of xi, pair index -> that model's walker entries)
_XI = (
    ("dagger", lambda c: bar_from_pairs(c).entries),
    ("diamond-dagger", diamond_from_pairs),
)


# -- finite models ---------------------------------------------------------------


def _finite_window(model: str, N: int, M: int) -> tuple:
    """The walker range (low, top) of a finite model's window (M, N), after
    the window and M rules."""
    check_window(M, N)
    if M and not _FINITE[model][1]:
        raise ParameterError(f"the {model} model is only defined with M = 0")
    return M + 1, N


def _finite_entries(model: str, k, N: int, M: int) -> tuple:
    """A finite model's walker entries, after its index, window and M rules."""
    if model not in _FINITE:
        raise ParameterError(f"unknown model {model!r}; choose one of {tuple(_FINITE)}")
    entries = _FINITE[model][0](k)
    _finite_window(model, N, M)
    return entries


def _finite(model: str, k, N: int, M: int, ring, param):
    """A finite model on the window (M, N) in one value ring."""
    return _model_sum(model, _finite_entries(model, k, N, M), M + 1, N, ring, param)


def zeta_finite(model: str, k, *, N: int, order: int, M: int = 0) -> QSeries:
    """A finite model ('dagger', 'bz', 'diamond-dagger', 'diamond-bz' or
    'reflected') as a truncated q-series; the series twin of
    eval_at_rational_q."""
    return _finite(model, k, N, M, _PackedValues, check_order(order))


def zeta_dagger_finite(k, *, N: int, order: int, M: int = 0) -> QSeries:
    """Double-truncated weak sum over an admissible bar index."""
    return _finite("dagger", k, N, M, _PackedValues, check_order(order))


def zeta_bz_finite(k, *, N: int, order: int) -> QSeries:
    """Truncated strict sum with factors q^(n(k-1))/(1-q^n)^k; any index."""
    return _finite("bz", k, N, 0, _PackedValues, check_order(order))


def zeta_diamond_finite(variant: str, k, *, N: int, order: int, M: int = 0) -> QSeries:
    """Boundary-augmented finite sums (variant 'dagger' or 'bz'); entries
    equal to 1 may flip to the q^(N-n)-type factor with a weak tie.  The
    index must not end in 1, and the bz variant needs M = 0."""
    return _finite(f"diamond-{variant}", k, N, M, _PackedValues, check_order(order))


def zeta_reflected_blocks(k, *, N: int, order: int) -> QSeries:
    """Weak-block sum whose first block variables carry q^(N-n)/(1-q^(N-n))."""
    return _finite("reflected", k, N, 0, _PackedValues, check_order(order))


def xi_value(eps: int, c, *, N: int, order: int, M: int = 0) -> QSeries:
    """The two-parameter family interpolating the finite models.

    eps = 0 reads the pairs (l_j, k_j) as l_j - 1 bar entries before k_j;
    eps = 1 reads them as l_j - 1 ones before k_j + 1 in the diamond model.
    """
    model, index = _XI[check_eps(eps)]
    return _finite(model, index(c), N, M, _PackedValues, check_order(order))


def xi_packed(eps: int, cs, *, N: int, order: int, M: int = 0) -> tuple:
    """(bits, walks): xi(eps, c) for every pair index c in cs, after the checks
    of xi_value, as packed residues from one walk of the trie, at a width
    that is a multiple of 32 and holds each walk's L1 norm below
    2^(bits - 1).  The slots of each pair (l, k) are built once per call;
    every pair ends in its k-entry, so every index is admissible."""
    model, index = _XI[check_eps(eps)]
    check_order(order)
    _finite_window(model, N, M)
    blocks = {}  # (l, k) -> the slots of that one pair
    tuples = []
    for c in cs:
        c = check_pairs(c)
        slots = ()
        for j in range(0, len(c), 2):
            pair = c[j : j + 2]
            block = blocks.get(pair)
            if block is None:
                block = blocks[pair] = _SLOTS[model](index(pair))
            slots += block
        tuples.append(slots)
    bits = -(-_packed_bits(tuples, M + 1, N, order) // 32) * 32
    return bits, _walk(tuples, M + 1, N, _PackedValues(order, bits))


# -- infinite models --------------------------------------------------------------


def zeta_infinite(model: str, k, *, order: int) -> QSeries:
    """Truncated value of the untruncated sum ('dagger', 'bz' or 'sz'); the
    index must be admissible."""
    check_order(order)
    if model not in _INFINITE:
        raise ParameterError(f"unknown infinite model {model!r}; choose one of {tuple(_INFINITE)}")
    family, check = _INFINITE[model]
    return _model_sum(family, check(k), 1, order + 1, _PackedValues, order)


def zeta_poly(k, polys, *, order: int) -> QSeries:
    """Strict sum of Q_j(q^n) / (1-q^n)^(k_j) for numerator polynomials Q_j.

    deg Q_j <= k_j is required, and the last polynomial must vanish at 0 so
    the sum converges.  Polynomials are coefficient sequences, low degree
    first, with int or Fraction entries (a bool is refused).  Each nonzero
    term c q^t of Q_j is one choice c q^(n t)/(1-q^n)^(k_j) of slot j, so
    the sum is one walk (module docstring).
    """
    k = check_index(k)
    check_order(order)
    try:
        polys = [tuple(poly) for poly in polys]
    except TypeError:
        raise ParameterError(
            f"polys must be a sequence of coefficient sequences, got {polys!r}"
        ) from None
    if len(polys) != len(k):
        raise ParameterError(f"need {len(k)} polynomials, got {len(polys)}")
    for j, cs in enumerate(polys):
        for c in cs:
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise ParameterError(f"polynomial coefficient {c!r} is not exact")
        if len(cs) > k[j] + 1:
            raise ParameterError(
                f"polynomial {j + 1} has degree {len(cs) - 1} > k_{j + 1} = {k[j]}"
            )
    if k and (not polys[-1] or polys[-1][0] != 0):
        raise ParameterError("the last polynomial must have zero constant term")
    # clear each numerator's denominators, walk over the integers, divide once
    scales = [lcm(*(c.denominator for c in cs)) for cs in polys]
    slots = tuple(
        tuple(_Choice(t, kj, c=int(c * scale)) for t, c in enumerate(cs) if c)
        for kj, cs, scale in zip(k, polys, scales)
    )
    if not all(slots):  # a zero numerator
        return QSeries.zero(order)
    walk, scale = _series_walk(slots, 1, order + 1, order), prod(scales)
    return walk if scale == 1 else QSeries(order, [Fraction(c, scale) for c in walk.coeffs])


# -- classical limits -------------------------------------------------------------


def classical_zeta(k, N: int) -> Fraction:
    """Strict truncated harmonic sum of 1/(n_1^(k_1) ... n_r^(k_r))."""
    return _finite("bz", k, N, 0, _ClassicalValues, None)


def classical_zeta_blocks(c, N: int) -> Fraction:
    """Block sums with l_j - 1 leading factors 1/(N-n) per block."""
    return _finite("dagger", bar_from_pairs(c), N, 0, _ClassicalValues, None)


def classical_zeta_diamond(k, N: int) -> Fraction:
    """Classical boundary-augmented sum; ones may flip to 1/(N-n) with a tie."""
    return _finite("diamond-dagger", k, N, 0, _ClassicalValues, None)


# -- linear extension over words ---------------------------------------------------


def as_element(u) -> AlgebraElement:
    if isinstance(u, AlgebraElement):
        return u
    if isinstance(u, str):
        return AlgebraElement.word(u)
    raise ParameterError(f"expected a word or an element, got {u!r}")


# Z-map model -> walker family; the finite ones are rows of _FINITE
_Z_FAMILIES = {
    "dagger_finite": "dagger",
    "bz_finite": "bz",
    "dagger_inf": "dagger-inf",
    "bz_inf": "bz",
    "classical": "bz",
}
Z_MODELS = tuple(_Z_FAMILIES)
FINITE_Z_MODELS = tuple(model for model in Z_MODELS if model.endswith("_finite"))


def _word_sum(u: AlgebraElement, total, family, low, top, ring, param):
    """total plus sum c * (the model value of w) over the terms c w of u, whose
    checks the caller ran once.  Every index of a word in H1 has entries >= 1,
    which every family takes as it is."""
    for w, c in u.terms():
        total = total + c * _model_sum(family, _index_from_word(w), low, top, ring, param)
    return total


def z_map(model: str, u, *, N: int | None = None, order: int | None = None,
          M: int = 0):
    """Evaluate a word or integer combination of words, linearly.

    Words must lie in H1; the infinite bz model further requires H0 so that
    its sums converge.  Returns a QSeries, or a Fraction for 'classical'.
    Only dagger_finite takes a window M, the infinite models take no N, and
    'classical' takes no truncation order.  The model, the element, the
    window and the order are checked once per call, the zero element too.
    """
    if model not in Z_MODELS:
        raise ParameterError(f"unknown model {model!r}; choose one of {Z_MODELS}")
    if M != 0 and model != "dagger_finite":
        raise ParameterError(f"model {model!r} takes no window M, got M={M!r}")
    infinite = model in ("dagger_inf", "bz_inf")
    if N is not None and infinite:
        raise ParameterError(f"model {model!r} takes no N, got N={N!r}")
    if order is not None and model == "classical":
        raise ParameterError(f"model 'classical' takes no truncation order, got order={order!r}")
    u = as_element(u)
    if not u.in_space(H1):
        raise MembershipError("element must lie in H1 (words empty or y-headed)")
    if model == "bz_inf" and not u.in_space(H0):
        raise MembershipError("infinite bz evaluation needs H0 (words ending in x)")
    if model == "classical":
        ring, param, total = _ClassicalValues, None, Fraction(0)
    elif order is None:
        raise ParameterError(f"model {model!r} needs a truncation order")
    else:
        ring, param, total = _PackedValues, check_order(order), QSeries.zero(order)
    family = _Z_FAMILIES[model]
    low, top = (1, order + 1) if infinite else _finite_window(family, N, M)
    return _word_sum(u, total, family, low, top, ring, param)


# -- rational points ----------------------------------------------------------------


def eval_at_rational_q(model: str, k, q, *, N: int, M: int = 0) -> Fraction:
    """Exact value of a finite model ('dagger', 'bz', 'diamond-dagger',
    'diamond-bz' or 'reflected') at a rational q with |q| not 0 or 1."""
    return _finite(model, k, N, M, _PointValues, check_q_sample(q))


def z_map_at_q(model: str, u, q, *, N: int, M: int = 0) -> Fraction:
    """Linear extension of the finite dagger/bz models at a rational q."""
    if model not in ("dagger", "bz"):
        raise ParameterError(f"model must be 'dagger' or 'bz', got {model!r}")
    u = as_element(u)
    if not u.in_space(H1):
        raise MembershipError("element must lie in H1 (words empty or y-headed)")
    q = check_q_sample(q)
    low, top = _finite_window(model, N, M)
    return _word_sum(u, Fraction(0), model, low, top, _PointValues, q)


def verify_bridge(w: str, N: int, q) -> Report:
    """Check the substitution law tying the two finite models on one word:
    the dagger value at 1/q equals (-1)^len(w) times the bz value at q."""
    if not isinstance(w, str):
        raise ParameterError("verify_bridge takes a single word")
    q = check_q_sample(q)
    if not word_in(w, H1):
        raise MembershipError("element must lie in H1 (words empty or y-headed)")
    low, top = _finite_window("bz", N, 0)  # the dagger window too, at M = 0
    k = _index_from_word(w)
    lhs = _model_sum("dagger", k, low, top, _PointValues, Fraction(1) / q)
    rhs = (-1) ** len(w) * _model_sum("bz", k, low, top, _PointValues, q)
    return compare_values("bridge", {"word": w, "N": N, "q": str(q)}, lhs, rhs)
