"""Evaluator tests.

Frozen expected series were derived by hand or by the brute-force lattice
oracles defined at the top of this file; the oracles enumerate lattice points
directly with itertools and never touch the suffix-memoized walkers under
test.
"""

import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmzv.errors import AdmissibilityError, MembershipError, ParameterError
from qmzv.series import (
    QSeries,
    bracket,
    inv_bracket_pow,
    invert_unit,
    kernel,
    pow_kernel,
    unpack,
)
from qmzv.words import (
    BAR1,
    AlgebraElement,
    BarIndex,
    bar_from_pairs,
    diamond_from_pairs,
    index_from_word,
    word_from_index,
)
from qmzv import models


# -- brute-force oracles -------------------------------------------------------


def geom(n, order):
    # q^n/(1-q^n) truncated
    return [1 if m and m % n == 0 else 0 for m in range(order + 1)]


def series_divisor_counts(order):
    out = [0] * (order + 1)
    for n in range(1, order + 1):
        for m in range(n, order + 1, n):
            out[m] += 1
    return out


def series_sigma1(order):
    out = [0] * (order + 1)
    for n in range(1, order + 1):
        for m in range(n, order + 1, n):
            out[m] += n
    return out


def brute_dagger_finite(entries, M, N, order):
    """Direct lattice enumeration of the weak/strict bar sum."""
    r = len(entries)
    total = QSeries.zero(order)
    if r == 0:
        return QSeries.one(order)

    def factor(e, n):
        if e is BAR1:
            return inv_bracket_pow(N - n, 1, order)
        return pow_kernel(n, e, order)

    def rec(j, low, acc):
        nonlocal total
        if j == r:
            total = total + acc
            return
        for n in range(low, N):
            gap = 0 if entries[j] is BAR1 else 1
            rec(j + 1, n + gap, acc * factor(entries[j], n))

    rec(0, M + 1, QSeries.one(order))
    return total


def brute_classical_blocks(c, N):
    """Block lattice with l_j-1 weak 1/(N-n) factors then 1/n^k, strict
    between blocks; literal nested loops."""
    pairs = [(c[2 * i], c[2 * i + 1]) for i in range(len(c) // 2)]
    total = Fraction(0)

    def rec(i, low, acc):
        nonlocal total
        if i == len(pairs):
            total += acc
            return
        l, k = pairs[i]
        for block in weak_chains(low, N, l):
            f = acc
            for n in block[:-1]:
                f *= Fraction(1, N - n)
            f *= Fraction(1, block[-1] ** k)
            rec(i + 1, block[-1] + 1, f)

    def weak_chains(low, top, length):
        if length == 0:
            yield ()
            return
        for n in range(low, top):
            for rest in weak_chains(n, top, length - 1):
                yield (n,) + rest

    rec(0, 1, Fraction(1))
    return total


def brute_classical_diamond(k, N):
    # weak chain, strict after positions outside A; A ranges over 1-entries
    total = Fraction(0)
    ones = [i for i, e in enumerate(k) if e == 1]
    r = len(k)
    for bits in product((False, True), repeat=len(ones)):
        A = {ones[i] for i, b in enumerate(bits) if b}
        for point in product(range(1, N), repeat=r):
            if any(
                point[i] > point[i + 1]
                or (i not in A and point[i] == point[i + 1])
                for i in range(r - 1)
            ):
                continue
            val = Fraction(1)
            for i, n in enumerate(point):
                val *= Fraction(1, N - n) if i in A else Fraction(1, n ** k[i])
            total += val
    return total


def brute_lattice(factors, ties, low, top, one):
    """Sum over low <= n_1 <= ... <= n_r < top of prod factors[i](n_i), where
    n_i = n_(i+1) is allowed only when ties[i]; literal enumeration, no memo."""
    total = one - one
    for point in combinations_with_replacement(range(low, top), len(factors)):
        if any(a == b and not tie for a, b, tie in zip(point, point[1:], ties)):
            continue
        value = one
        for f, n in zip(factors, point):
            value = value * f(n)
        total = total + value
    return total


def q_kernel(a, n, k, order):
    """q^a / (1-q^n)^k, truncated."""
    return QSeries.monomial(order, a) * inv_bracket_pow(n, k, order)


def brute_poly(k, polys, order):
    """Strict sum over 1 <= n_1 < ... < n_r <= order of the factors
    Q_j(q^n_j) / (1-q^n_j)^(k_j), each built term by term on dense QSeries;
    literal nested loops.  The last factor has valuation >= n_r, so no larger
    n_r adds a term below the order."""
    table = [{n: sum((c * q_kernel(t * n, n, kj, order) for t, c in enumerate(cs)),
                     QSeries.zero(order)) for n in range(1, order + 1)}
             for kj, cs in zip(k, polys)]

    def rec(j, low, acc):
        if j == len(k):
            return acc
        total = QSeries.zero(order)
        for n in range(low, order + 1):
            total = total + rec(j + 1, n + 1, acc * table[j][n])
        return total

    return rec(0, 1, QSeries.one(order))


def series_kern(order):
    return lambda a, n, k: q_kernel(a, n, k, order)


def point_kern(q):
    """q^a / (1-q^n)^k at a rational q."""
    return lambda a, n, k: q**a / (1 - q**n) ** k


def brute_diamond(variant, k, M, N, kern, one):
    """Sum over the sets A of 1-positions that take the boundary factor with a
    weak tie; every other position keeps its main factor and a strict step.
    kern(a, n, k) is q^a/(1-q^n)^k in the ring whose unit is one."""
    def main(e):
        if variant == "dagger":
            return lambda n: kern(n, n, e)
        return lambda n: kern(n * (e - 1), n, e)

    def aux(n):
        return kern(0 if variant == "dagger" else N - n, N - n, 1)

    ones = [i for i, e in enumerate(k) if e == 1]
    total = one - one
    for bits in product((False, True), repeat=len(ones)):
        A = {i for i, b in zip(ones, bits) if b}
        factors = [aux if i in A else main(e) for i, e in enumerate(k)]
        ties = [i in A for i in range(len(k))]
        total = total + brute_lattice(factors, ties, M + 1, N, one)
    return total


# -- finite models ----------------------------------------------------------------


def test_dagger_finite_examples():
    s = models.zeta_dagger_finite(BarIndex((BAR1, 1)), N=2, order=10)
    assert s.coeffs == tuple(range(11))  # q/(1-q)^2
    assert models.zeta_dagger_finite((), N=3, order=5) == QSeries.one(5)
    s = models.zeta_dagger_finite((1,), N=2, order=6)
    assert s.coeffs == (0, 1, 1, 1, 1, 1, 1)  # q/(1-q)


# the index pools of the brute-force oracle grids, shared with the packed-ring
# tests at the end of this file
DAGGER_FINITE_POOL = (
    (),
    (1,),
    (2,),
    (BAR1, 1),
    (BAR1, 2),
    (1, 1),
    (BAR1, BAR1, 1),
    (2, BAR1, 1),
    (BAR1, 1, 2),
)
BZ_FINITE_POOL = ((1,), (2,), (1, 1), (1, 2), (2, 1), (3, 1, 2))
DIAMOND_POOL = ((2,), (1, 2), (1, 1, 2), (1, 3), (2, 1, 2), (1, 2, 1, 2))
REFLECTED_POOL = ((1,), (2,), (3,), (1, 2), (2, 1), (2, 2), (1, 1, 2))
DAGGER_INF_PAIRS = ((2, 1, 2, 2), (3, 2, 2, 1), (2, 2, 3, 1))
BZ_INF_POOL = ((1, 2), (2, 2), (3, 2), (2, 3), (1, 3))
SZ_INF_POOL = ((0, 1), (0, 2), (1, 0, 2), (0, 0, 1), (2, 0, 1), (0, 3))


def test_dagger_finite_matches_brute_force():
    for entries, M, N in product(DAGGER_FINITE_POOL, (0, 1, 2), (2, 3, 4)):
        if M >= N:
            continue
        got = models.zeta_dagger_finite(BarIndex(entries), M=M, N=N, order=12)
        assert got == brute_dagger_finite(entries, M, N, 12), (entries, M, N)


def test_bz_finite_matches_brute_force():
    order = 12
    for k in BZ_FINITE_POOL:
        for N in (2, 3, 5):
            factors = [lambda n, e=e: q_kernel(n * (e - 1), n, e, order) for e in k]
            want = brute_lattice(factors, [False] * len(k), 1, N, QSeries.one(order))
            assert models.zeta_bz_finite(k, N=N, order=order) == want, (k, N)


def test_diamond_finite_matches_brute_force():
    order = 10
    for k in DIAMOND_POOL:
        for N in (2, 3, 5):
            kern, one = series_kern(order), QSeries.one(order)
            want = brute_diamond("bz", k, 0, N, kern, one)
            assert models.zeta_diamond_finite("bz", k, N=N, order=order) == want, (k, N)
            for M in range(0, min(N, 3)):
                want = brute_diamond("dagger", k, M, N, kern, one)
                got = models.zeta_diamond_finite("dagger", k, N=N, M=M, order=order)
                assert got == want, (k, M, N)


def test_reflected_blocks_matches_brute_force():
    # block j is k_j weakly tied variables: the first carries q^(N-n)/(1-q^(N-n)),
    # the others 1/(1-q^n); consecutive blocks are strictly separated
    order = 12
    for k in REFLECTED_POOL:
        for N in (2, 3, 5):
            factors, ties = [], []
            for kj in k:
                factors.append(lambda n: q_kernel(N - n, N - n, 1, order))
                factors.extend([lambda n: q_kernel(0, n, 1, order)] * (kj - 1))
                ties.extend([True] * (kj - 1) + [False])
            want = brute_lattice(factors, ties, 1, N, QSeries.one(order))
            assert models.zeta_reflected_blocks(k, N=N, order=order) == want, (k, N)


def test_dagger_finite_rejects_bad_input():
    with pytest.raises(AdmissibilityError):
        models.zeta_dagger_finite(BarIndex((1, BAR1)), N=3, order=5)
    with pytest.raises(ParameterError):
        models.zeta_dagger_finite((1,), N=2, M=2, order=5)
    with pytest.raises(ParameterError):
        models.zeta_dagger_finite((1,), N=0, order=5)
    with pytest.raises(ParameterError):
        models.zeta_dagger_finite(None, N=3, order=5)


def test_bz_finite_examples():
    s = models.zeta_bz_finite((3,), N=2, order=8)
    # q^2/(1-q)^3: coefficient of q^m is C(m, 2)
    assert s.coeffs == tuple(m * (m - 1) // 2 for m in range(9))
    assert models.zeta_bz_finite((), N=4, order=6) == QSeries.one(6)
    # (1,2) at N=3: only lattice point (1,2), factors 1/(1-q) and q^2/(1-q^2)^2
    order = 12
    expected = inv_bracket_pow(1, 1, order) * (
        QSeries.monomial(order, 2, 1) * inv_bracket_pow(2, 2, order)
    )
    assert models.zeta_bz_finite((1, 2), N=3, order=order) == expected


def test_diamond_finite_examples():
    s = models.zeta_diamond_finite("bz", (1, 2), N=2, order=10)
    assert s.coeffs == tuple(m * (m - 1) // 2 for m in range(11))  # q^2/(1-q)^3
    for N in (2, 3, 5):
        lhs = models.zeta_diamond_finite("dagger", (2,), N=N, order=10)
        rhs = QSeries.zero(10)
        for n in range(1, N):
            rhs = rhs + pow_kernel(n, 2, 10)
        assert lhs == rhs
    assert models.zeta_diamond_finite("bz", (), N=2, order=4) == QSeries.one(4)


def test_diamond_finite_rejects_bad_input():
    with pytest.raises(AdmissibilityError):
        models.zeta_diamond_finite("bz", (2, 1), N=3, order=5)
    with pytest.raises(ParameterError):
        models.zeta_diamond_finite("bz", (1, 2), N=3, M=1, order=5)
    with pytest.raises(ParameterError):
        models.zeta_diamond_finite("weird", (1, 2), N=3, order=5)
    # dagger variant does accept M > 0
    models.zeta_diamond_finite("dagger", (1, 2), N=3, M=1, order=5)


def test_xi_dispatch():
    assert models.xi_value(0, (1, 2), N=4, order=10) == models.zeta_dagger_finite(
        (2,), N=4, order=10
    )
    assert models.xi_value(1, (1, 1), N=4, order=10) == models.zeta_diamond_finite(
        "dagger", (2,), N=4, order=10
    )
    s = models.xi_value(0, (2, 1), N=2, order=10)
    assert s.coeffs == tuple(range(11))
    with pytest.raises(ParameterError):
        models.xi_value(2, (1, 1), N=2, order=5)


def test_order_refuses_booleans():
    # bool is an int subclass; order=True used to give QSeries(True, 'q')
    with pytest.raises(ParameterError):
        models.zeta_infinite("bz", (2,), order=True)
    with pytest.raises(ParameterError):
        models.zeta_bz_finite((2,), N=3, order=True)
    with pytest.raises(ParameterError):
        models.xi_value(0, (1, 2), N=3, order=True)


def test_point_and_series_rings_refuse_the_same_bar_index():
    k = BarIndex((2, BAR1))
    with pytest.raises(AdmissibilityError):
        models.zeta_dagger_finite(k, N=3, order=5)
    with pytest.raises(AdmissibilityError):
        models.eval_at_rational_q("dagger", k, 2, N=3)


# -- infinite models ---------------------------------------------------------------


def test_infinite_dagger_divisor_series():
    assert models.zeta_infinite("dagger", (1,), order=5).coeffs == (0, 1, 2, 2, 3, 2)
    assert (
        models.zeta_infinite("dagger", (1,), order=30).coeffs
        == tuple(series_divisor_counts(30))
    )


def test_infinite_dagger_bz_coincide_at_two():
    d = models.zeta_infinite("dagger", (2,), order=20)
    b = models.zeta_infinite("bz", (2,), order=20)
    assert d == b
    assert d.coeffs == tuple(series_sigma1(20))


def test_infinite_empty_and_errors():
    assert models.zeta_infinite("sz", (), order=4) == QSeries.one(4)
    with pytest.raises(AdmissibilityError):
        models.zeta_infinite("dagger", BarIndex((2, BAR1)), order=4)
    with pytest.raises(AdmissibilityError, match=r"index \(2, 1\) must not end with entry 1"):
        models.zeta_infinite("bz", (2, 1), order=4)
    with pytest.raises(AdmissibilityError):
        models.zeta_infinite("sz", (1, 0), order=4)
    with pytest.raises(ParameterError, match=r"choose one of \('dagger', 'bz', 'sz'\)"):
        models.zeta_infinite("nope", (1,), order=4)


def test_infinite_dagger_weak_tie_brute_force():
    # (b,2): bar entries carry no factor at infinite level, so the value is
    # the weak double sum over 0 < n1 <= n2 of q^{n2}/(1-q^{n2})^2
    order = 14
    want = QSeries.zero(order)
    for n2 in range(1, order + 1):
        for _ in range(1, n2 + 1):
            want = want + pow_kernel(n2, 2, order)
    got = models.zeta_infinite("dagger", BarIndex((BAR1, 2)), order=order)
    assert got == want


def test_infinite_dagger_two_runs_brute_force():
    # bar variables carry the factor 1 and tie weakly to the next variable;
    # enumerating them point by point checks the binomial run weight
    order = 10
    one = QSeries.one(order)
    for c in DAGGER_INF_PAIRS:
        entries = bar_from_pairs(c).entries
        factors = [
            (lambda n: one) if e is BAR1 else (lambda n, e=e: q_kernel(n, n, e, order))
            for e in entries
        ]
        ties = [e is BAR1 for e in entries]
        want = brute_lattice(factors, ties, 1, order + 1, one)
        assert models.zeta_infinite("dagger", BarIndex(entries), order=order) == want, c


def test_infinite_bz_depth_two_brute_force():
    order = 14
    for k in BZ_INF_POOL:
        factors = [lambda n, e=e: q_kernel(n * (e - 1), n, e, order) for e in k]
        want = brute_lattice(factors, [False, False], 1, order + 1, QSeries.one(order))
        assert models.zeta_infinite("bz", k, order=order) == want, k


def test_infinite_sz_zero_entries_brute_force():
    # a zero entry carries the factor 1 but keeps the strict step
    order = 10
    for k in SZ_INF_POOL:
        factors = [lambda n, e=e: q_kernel(n * e, n, e, order) for e in k]
        want = brute_lattice(factors, [False] * len(k), 1, order + 1, QSeries.one(order))
        assert models.zeta_infinite("sz", k, order=order) == want, k


def test_sz_zero_blocks_binomial_oracle():
    # zeta_sz({0}^{l-1}, k) has the run-length form
    # sum_{0<n} C(n-1, l-1) q^{nk}/(1-q^n)^k
    from math import comb

    order = 16
    for l, k in product((1, 2, 3), (1, 2)):
        idx = (0,) * (l - 1) + (k,)
        want = QSeries.zero(order)
        for n in range(1, order + 1):
            c = comb(n - 1, l - 1)
            if c and n * k <= order:
                want = want + c * inv_bracket_pow(n, k, order).shift(n * k)
        assert models.zeta_infinite("sz", idx, order=order) == want, (l, k)


def test_poly_model():
    assert models.zeta_poly((2,), [(0, 1)], order=12) == models.zeta_infinite(
        "dagger", (2,), order=12
    )
    assert models.zeta_poly((2,), [(0, 0, 1)], order=12) == models.zeta_infinite(
        "sz", (2,), order=12
    )
    assert models.zeta_poly((1,), [(0, 1)], order=12) == models.zeta_infinite(
        "dagger", (1,), order=12
    )
    with pytest.raises(ParameterError):
        models.zeta_poly((2,), [(1, 1)], order=6)  # constant term in last poly
    with pytest.raises(ParameterError):
        models.zeta_poly((1,), [(0, 1, 1)], order=6)  # degree 2 > k = 1
    with pytest.raises(ParameterError):
        models.zeta_poly((1, 2), [(0, 1)], order=6)  # arity mismatch
    with pytest.raises(ParameterError):
        models.zeta_poly((1,), None, order=5)
    for bad in (True, False, 0.5, "1"):
        with pytest.raises(ParameterError, match="is not exact"):
            models.zeta_poly((1,), [(0, bad)], order=5)
    # signed and rational numerators, against the literal lattice sum
    for k, polys in POLY_POOL:
        assert models.zeta_poly(k, polys, order=12) == brute_poly(k, polys, 12), (k, polys)


def test_poly_model_zero_numerator_and_empty_index():
    # a zero numerator leaves an empty slot: the zero series
    for k, polys in (((2,), [(0,)]), ((1, 2), [(1, -2), (0,)]), ((1, 1), [(), (0, 3)])):
        assert models.zeta_poly(k, polys, order=8) == QSeries.zero(8), (k, polys)
    # the empty index walks the empty tuple once: the series one
    for order in (0, 5):
        assert models.zeta_poly((), [], order=order) == QSeries.one(order)


def _poly_coeffs():
    big = 10**30
    return st.one_of(st.integers(-big, big), st.integers(-3, 3),
                     st.fractions(min_value=-big, max_value=big, max_denominator=10**6))


@st.composite
def _poly_inputs(draw):
    k = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    polys = [draw(st.lists(_poly_coeffs(), min_size=1, max_size=kj + 1)) for kj in k]
    polys[-1][0] = 0
    return tuple(k), polys


@settings(max_examples=30, deadline=None)
@given(_poly_inputs(), st.integers(0, 30))
def test_poly_model_matches_brute_force(inputs, order):
    k, polys = inputs
    assert models.zeta_poly(k, polys, order=order) == brute_poly(k, polys, order)


def test_poly_model_two_rows():
    # mixed numerators across two positions against a literal lattice loop
    order = 12
    ks = (1, 2)
    polys = [(0, 1), (0, 0, 1)]
    want = QSeries.zero(order)
    for n2 in range(1, order + 1):
        if 2 * n2 > order:
            break
        f2 = inv_bracket_pow(n2, 2, order).shift(2 * n2)
        for n1 in range(1, n2):
            want = want + inv_bracket_pow(n1, 1, order).shift(n1) * f2
    assert models.zeta_poly(ks, polys, order=order) == want


# -- Z maps -----------------------------------------------------------------------


def test_z_map_examples():
    assert models.z_map("dagger_finite", "", N=3, order=6) == QSeries.one(6)
    s = models.z_map("dagger_finite", "yx", N=2, order=10)
    assert s.coeffs == tuple(range(11))
    assert models.z_map("classical", "yx", N=5) == Fraction(205, 144)


def test_z_map_membership():
    with pytest.raises(MembershipError):
        models.z_map("dagger_finite", "xy", N=2, order=5)
    with pytest.raises(MembershipError):
        models.z_map("bz_inf", "y", order=5)  # (1) not admissible for bz
    with pytest.raises(ParameterError):
        models.z_map("dagger_finite", "y", order=5)  # missing N
    with pytest.raises(ParameterError):
        models.z_map("classical", "y")  # missing N


def test_z_map_membership_messages():
    # each word is checked once, with the messages of the checked helpers
    for model, u, kwargs, error, message in (
        ("dagger_finite", "yz", dict(N=2, order=5), ParameterError, "not a word over x,y"),
        ("dagger_finite", "xy", dict(N=2, order=5), MembershipError, "element must lie in H1"),
        ("bz_inf", "y", dict(order=5), MembershipError, "infinite bz evaluation needs H0"),
        ("classical", AlgebraElement({"yx": 1, "x": 2}), dict(N=3), MembershipError,
         "element must lie in H1"),
    ):
        with pytest.raises(error, match=message):
            models.z_map(model, u, **kwargs)


def test_z_map_refuses_unused_windows():
    for model, kwargs in (
        ("bz_finite", {"N": 4, "order": 5, "M": 2}),
        ("classical", {"N": 4, "M": 2}),
        ("dagger_inf", {"order": 5, "M": 3}),
        ("bz_inf", {"order": 5, "M": 1}),
        ("dagger_inf", {"order": 5, "N": 2}),
        ("bz_inf", {"order": 5, "N": 2}),
        ("classical", {"N": 5, "order": 3}),
    ):
        with pytest.raises(ParameterError):
            models.z_map(model, "yx", **kwargs)
    # the window is checked once per call, so the zero element is refused too
    from qmzv.words import AlgebraElement

    zero = AlgebraElement.zero()
    for model, kwargs in (
        ("dagger_finite", {"N": 0, "order": 3}),
        ("dagger_finite", {"N": 3, "order": 3, "M": 5}),
        ("classical", {"N": -2}),
    ):
        with pytest.raises(ParameterError):
            models.z_map(model, zero, **kwargs)
    for kwargs in ({"N": 0}, {"N": 4, "M": 2}):
        with pytest.raises(ParameterError):
            models.z_map_at_q("bz", zero, 2, **kwargs)
    with_window = models.z_map("dagger_finite", "yx", N=4, order=5, M=2)
    assert with_window != models.z_map("dagger_finite", "yx", N=4, order=5)


def test_z_map_linearity():
    from qmzv.words import AlgebraElement

    u = AlgebraElement.word("yx", 3) - AlgebraElement.word("y", 2)
    got = models.z_map("dagger_finite", u, N=3, order=8)
    want = 3 * models.z_map("dagger_finite", "yx", N=3, order=8) - 2 * models.z_map(
        "dagger_finite", "y", N=3, order=8
    )
    assert got == want


def test_z_maps_equal_their_per_word_evaluators():
    # z_map and z_map_at_q walk each word straight away; each must equal the
    # sum over its words of the public evaluator of that word's model
    import random

    from qmzv.words import AlgebraElement

    rng = random.Random(17)

    def element(h0):
        terms = {}
        for _ in range(6):
            k = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
            if h0 and k:
                k[-1] = rng.randint(2, 3)
            w = word_from_index(k)
            terms[w] = terms.get(w, 0) + rng.choice((-3, -2, -1, 1, 2, 5))
        return AlgebraElement(terms)

    N, M, order, q = 6, 2, 9, Fraction(-2, 3)
    references = (
        ("dagger_finite", {"N": N, "order": order, "M": M},
         lambda k: models.zeta_dagger_finite(BarIndex(k), N=N, order=order, M=M)),
        ("bz_finite", {"N": N, "order": order},
         lambda k: models.zeta_bz_finite(k, N=N, order=order)),
        ("dagger_inf", {"order": order},
         lambda k: models.zeta_infinite("dagger", BarIndex(k), order=order)),
        ("bz_inf", {"order": order}, lambda k: models.zeta_infinite("bz", k, order=order)),
        ("classical", {"N": N}, lambda k: models.classical_zeta(k, N)),
    )
    for model, kwargs, reference in references:
        u = element(model == "bz_inf")
        got = models.z_map(model, u, **kwargs)
        models._model_sum.cache_clear()
        want = sum((c * reference(index_from_word(w)) for w, c in u.terms()),
                   Fraction(0) if model == "classical" else QSeries.zero(order))
        assert got == want, model
    for model, window in (("dagger", M), ("bz", 0)):
        u = element(False)
        got = models.z_map_at_q(model, u, q, N=N, M=window)
        models._model_sum.cache_clear()
        want = sum(c * models.eval_at_rational_q(model, index_from_word(w), q, N=N, M=window)
                   for w, c in u.terms())
        assert got == want, model


# -- classical sums ----------------------------------------------------------------


def test_classical_fixtures():
    assert models.classical_zeta((3,), 3) == Fraction(9, 8)
    assert models.classical_zeta_diamond((1, 2), 3) == Fraction(9, 8)
    assert models.classical_zeta_blocks((), 5) == 1
    assert models.classical_zeta_blocks((2, 1), 3) == Fraction(5, 4)
    assert models.classical_zeta((2,), 3) == Fraction(5, 4)


def test_classical_takes_any_sequence():
    # the caches key on the validated tuple, so lists are not unhashable
    assert models.classical_zeta([2, 3], 5) == models.classical_zeta((2, 3), 5)
    assert models.classical_zeta_blocks([2, 1], 4) == models.classical_zeta_blocks((2, 1), 4)
    assert models.classical_zeta_diamond([1, 2], 4) == models.classical_zeta_diamond((1, 2), 4)


def test_classical_against_brute_force():
    for c in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1, 1), (3, 1), (1, 1, 2, 1)]:
        for N in range(1, 7):
            assert models.classical_zeta_blocks(c, N) == brute_classical_blocks(c, N)
    for k in [(2,), (3,), (1, 2), (2, 2), (1, 1, 2), (2, 1, 2)]:
        for N in range(1, 7):
            assert models.classical_zeta_diamond(k, N) == brute_classical_diamond(
                k, N
            ), (k, N)


def test_classical_diamond_rejects_trailing_one():
    with pytest.raises(AdmissibilityError):
        models.classical_zeta_diamond((2, 1), 4)


class FractionClassicalValues:
    """The reference classical ring: every kernel 1/m^k as a Fraction, for the
    walker to run on as it runs on the scaled integer ring."""

    one = Fraction(1)
    zero = Fraction(0)

    @staticmethod
    def kernel(a, m, k):
        return Fraction(1, m**k)

    @staticmethod
    def trunc(value):
        return value


def fraction_classical(family, entries, N):
    slots = models._SLOTS[family](entries)
    return models._walk((slots,), 1, N, FractionClassicalValues())[0]


def brute_classical_zeta(k, N):
    """Strict lattice sum of 1/(n_1^(k_1) ... n_r^(k_r)); literal enumeration."""
    total = Fraction(0)
    for point in combinations(range(1, N), len(k)):
        total += prod(Fraction(1, n**e) for n, e in zip(point, k))
    return total


def test_scaled_classical_ring_matches_fraction_ring():
    for N in (1, 2, 3, 7, 12, 31, 60):
        for k in BZ_FINITE_POOL + ((4, 1, 1, 3),):
            assert models.classical_zeta(k, N) == fraction_classical("bz", k, N), (k, N)
        for c in ((1, 1), (2, 1), (1, 2), (3, 2, 2, 1), (1, 1, 1, 1, 2, 2)):
            entries = bar_from_pairs(c).entries
            assert models.classical_zeta_blocks(c, N) == fraction_classical(
                "dagger", entries, N), (c, N)
        for k in DIAMOND_POOL:
            assert models.classical_zeta_diamond(k, N) == fraction_classical(
                "diamond-dagger", k, N), (k, N)


def test_classical_zeta_against_brute_force():
    for k in ((), (1,), (2,), (1, 2), (2, 1), (3, 1, 2), (1, 1, 1), (2, 2, 2, 2)):
        for N in range(1, 7):
            assert models.classical_zeta(k, N) == brute_classical_zeta(k, N), (k, N)


def test_classical_walk_refuses_a_slot_mixing_k():
    # the scaled ring divides by L^K, K the one k of each slot summed
    mixed = ((models._Choice(1, 1), models._Choice(1, 2)),)
    with pytest.raises(AssertionError):
        models._classical_walk(mixed, 1, 4)


# -- rational points ---------------------------------------------------------------


def test_eval_at_rational_q_examples():
    assert models.eval_at_rational_q("dagger", (1,), 2, N=2) == -2
    assert models.eval_at_rational_q("bz", (3,), Fraction(1, 2), N=2) == 2
    assert models.eval_at_rational_q("dagger", (), 5, N=3) == 1
    for bad in (0, 1, -1):
        with pytest.raises(ParameterError):
            models.eval_at_rational_q("dagger", (1,), bad, N=2)
    with pytest.raises(ParameterError):
        models.eval_at_rational_q("dagger", None, 2, N=3)


def test_eval_at_rational_q_matches_series():
    # at |q|<1 rationals the truncated series disagrees with the exact value,
    # but both evaluators must agree term by term on the lattice: compare the
    # exact value against an independent Fraction-by-hand expansion
    q = Fraction(3)
    N = 4
    entries = (BAR1, 2)
    val = models.eval_at_rational_q("dagger", entries, q, N=N)
    want = Fraction(0)
    for n1 in range(1, N):
        for n2 in range(n1, N):
            want += Fraction(1, 1 - q ** (N - n1)) * (q**n2 / (1 - q**n2) ** 2)
    assert val == want


def test_eval_at_rational_q_matches_brute_force():
    def bracket_at(q, m):
        return 1 - q**m

    for q in (Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(5, 7)):
        for N in (2, 3, 4):
            for entries in ((1,), (BAR1, 2), (2, BAR1, 1), (BAR1, BAR1, 1)):
                factors = [
                    (lambda n: 1 / bracket_at(q, N - n)) if e is BAR1
                    else (lambda n, e=e: q**n / bracket_at(q, n) ** e)
                    for e in entries
                ]
                ties = [e is BAR1 for e in entries]
                for M in range(0, N - 1):
                    want = brute_lattice(factors, ties, M + 1, N, Fraction(1))
                    got = models.eval_at_rational_q("dagger", entries, q, N=N, M=M)
                    assert got == want, (q, N, M, entries)
            for k in ((1,), (3,), (1, 2), (2, 1, 1)):
                factors = [
                    lambda n, e=e: q ** (n * (e - 1)) / bracket_at(q, n) ** e for e in k
                ]
                want = brute_lattice(factors, [False] * len(k), 1, N, Fraction(1))
                assert models.eval_at_rational_q("bz", k, q, N=N) == want, (q, N, k)


def test_eval_at_rational_q_diamond_matches_brute_force():
    for q in (Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(5, 7)):
        kern, one = point_kern(q), Fraction(1)
        for N in (2, 3, 4):
            for k in ((2,), (1, 2), (1, 1, 2), (2, 1, 3)):
                want = brute_diamond("bz", k, 0, N, kern, one)
                got = models.eval_at_rational_q("diamond-bz", k, q, N=N)
                assert got == want, (q, N, k)
                for M in range(0, N - 1):
                    want = brute_diamond("dagger", k, M, N, kern, one)
                    got = models.eval_at_rational_q("diamond-dagger", k, q, N=N, M=M)
                    assert got == want, (q, N, M, k)


def test_verify_bridge():
    for w in ("", "y", "yx", "yxx", "yxy", "yyx"):
        for N in (1, 2, 3, 4):
            for q in (2, Fraction(1, 2), -2, Fraction(5, 7)):
                rep = models.verify_bridge(w, N, q)
                assert rep.passed, (w, N, q, rep.witness)


def test_verify_bridge_checks_as_the_z_maps_do():
    # one check of q, the word and N, with the messages of z_map_at_q
    for w, N, q, error, message in (
        ("yx", 3, 1, ParameterError, "q sample must avoid"),
        ("yz", 3, 2, ParameterError, "not a word over x,y"),
        ("xy", 3, 2, MembershipError, "element must lie in H1"),
        ("yx", 0, 2, ParameterError, "need integers 0 <= M < N"),
        ("yx", True, 2, ParameterError, "need integers 0 <= M < N"),
    ):
        for call in (lambda: models.verify_bridge(w, N, q),
                     lambda: models.z_map_at_q("bz", w, q, N=N)):
            with pytest.raises(error, match=message):
                call()


def test_bridge_example_values():
    assert models.z_map_at_q("dagger", "yx", Fraction(1, 2), N=2) == 2
    assert models.z_map_at_q("bz", "yx", 2, N=2) == 2
    assert models.z_map_at_q("dagger", "y", Fraction(1, 2), N=2) == 1
    assert -models.z_map_at_q("bz", "y", 2, N=2) == 1


def test_float_q_samples_are_refused():
    # 0.1 is the binary fraction 3602879701896397 / 2^55, not 1/10
    for call in (
        lambda q: models.eval_at_rational_q("bz", (2,), q, N=3),
        lambda q: models.z_map_at_q("bz", "yx", q, N=3),
        lambda q: models.verify_bridge("yx", 3, q),
    ):
        for q in (0.1, 2.0):
            with pytest.raises(ParameterError, match="must be exact"):
                call(q)
        # text is parsed by the callers (SuiteConfig, the CLI), not here
        for q in ("abc", "1/2", "0.5", None, 1j, Decimal("NaN"), Decimal("sNaN"),
                  Decimal("Infinity"), Decimal("-Infinity")):
            with pytest.raises(ParameterError, match="an int, a rational or a finite Decimal"):
                call(q)
        # a finite Decimal is read exactly: Decimal("0.1") is 1/10
        assert call(Decimal("0.1")) == call(Fraction(1, 10))
        assert call(Decimal("3")) == call(3)


# -- structural invariants ----------------------------------------------------------


def all_plain_indices(max_weight):
    out = [()]
    def rec(prefix, rem):
        for k in range(1, rem + 1):
            out.append(prefix + (k,))
            rec(prefix + (k,), rem - k)
    rec((), max_weight)
    return out


def test_stabilization_dagger():
    # coefficients below N of the finite value equal the infinite value
    pairs_pool = [(), (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 1, 1, 1)]
    for c in pairs_pool:
        k = bar_from_pairs(c)
        inf = models.zeta_infinite("dagger", k, order=8)
        for N in range(1, 9):
            fin = models.zeta_dagger_finite(k, N=N, order=8)
            for m in range(min(N, 9)):
                assert fin.coeff(m) == inf.coeff(m), (c, N, m)


def test_stabilization_bz_and_diamond():
    for k in [(2,), (3,), (1, 2), (2, 2), (1, 1, 2), (2, 3)]:
        inf = models.zeta_infinite("bz", k, order=8)
        for N in range(1, 9):
            fin = models.zeta_bz_finite(k, N=N, order=8)
            dia = models.zeta_diamond_finite("bz", k, N=N, order=8)
            for m in range(min(N, 9)):
                assert fin.coeff(m) == inf.coeff(m), (k, N, m)
                assert dia.coeff(m) == inf.coeff(m), (k, N, m)


def test_diamond_collapse_without_ones():
    for k in [(2,), (3,), (2, 2), (2, 3), (4, 2)]:
        for N in (2, 3, 5):
            assert models.zeta_diamond_finite("bz", k, N=N, order=12) == (
                models.zeta_bz_finite(k, N=N, order=12)
            )


def test_forward_difference_laws():
    order = 20
    for u in ("", "y", "yx", "yxx"):
        for k in (1, 2):
            for N in (1, 2, 3, 4):
                big = models.z_map(
                    "dagger_finite", u + "y" + "x" * (k - 1), N=N + 1, order=order
                )
                small = models.z_map(
                    "dagger_finite", u + "y" + "x" * (k - 1), N=N, order=order
                )
                base = models.z_map("dagger_finite", u, N=N, order=order)
                kernel = QSeries.monomial(order, N, 1) * invert_unit(
                    bracket(N, order)
                ) ** k
                assert big - small == kernel * base, (u, k, N)


def test_forward_difference_x_multiplier():
    order = 20
    for u in ("y", "yx"):
        for k in (1, 2):
            for N in (1, 2, 3):
                du = models.z_map("dagger_finite", u + "x" * k, N=N + 1, order=order) - (
                    models.z_map("dagger_finite", u + "x" * k, N=N, order=order)
                )
                base = models.z_map("dagger_finite", u, N=N + 1, order=order) - (
                    models.z_map("dagger_finite", u, N=N, order=order)
                )
                assert du == invert_unit(bracket(N, order)) ** k * base, (u, k, N)


def test_integrality_of_z_maps():
    for k in all_plain_indices(4):
        w = word_from_index(k)
        for N in (2, 4, 6):
            for s in (
                models.z_map("dagger_finite", w, N=N, order=10),
                models.z_map("bz_finite", w, N=N, order=10),
            ):
                assert all(isinstance(cf, int) and cf >= 0 for cf in s.coeffs), (k, N)


def test_classical_is_q_one_specialization():
    # sanity tying the q-lattice to the classical one: at each lattice point
    # the specialized factor q^n/(1-q^n)^k -> 1/n^k and 1/(1-q^{N-n}) -> 1/(N-n)
    # reproduce the classical evaluators; the brute-force walkers above do
    # exactly that, so cross-check them against the library on a joint grid
    for c in [(1, 1), (2, 1), (1, 2), (1, 1, 1, 1), (2, 2)]:
        for N in range(1, 7):
            assert models.classical_zeta_blocks(c, N) == brute_classical_blocks(c, N)
    for k in [(2,), (1, 2), (1, 1, 2)]:
        for N in range(1, 7):
            assert models.classical_zeta_diamond(k, N) == brute_classical_diamond(k, N)


def test_reflected_blocks_single_case():
    # k=(2), N=2: single point n11=n12=1 gives q/(1-q)^2
    s = models.zeta_reflected_blocks((2,), N=2, order=10)
    assert s.coeffs == tuple(range(11))


def test_reflected_blocks_matches_dagger():
    for k in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1)]:
        for N in range(1, 6):
            lhs = models.zeta_dagger_finite(BarIndex(k), N=N, order=15)
            rhs = models.zeta_reflected_blocks(k, N=N, order=15)
            assert lhs == rhs, (k, N)


# -- the packed series ring ---------------------------------------------------------


class SeriesValues:
    """The dense reference ring: QSeries values, signed or rational, for the
    walker to run on as it runs on the packed ring."""

    def __init__(self, order):
        self.order = order
        self.one = QSeries.one(order)
        self.zero = QSeries.zero(order)

    def kernel(self, a, m, k):
        return kernel(a, m, k, self.order)

    @staticmethod
    def trunc(value):
        return value


# zeta_poly inputs (k, numerators): signed, with and without Fractions
POLY_POOL = [
    ((1,), [(0, Fraction(-3, 2))]),
    ((2,), [(0, 1, -1)]),
    ((2,), [(0, -10**6, Fraction(10**6 + 1, 3))]),
    ((1, 2), [(1, -2), (0, -1, 2)]),
    ((2, 1), [(Fraction(-1, 2), 0, 3), (0, Fraction(7, 4))]),
    ((1, 1, 2), [(-1,), (2, -3), (0, 0, -1)]),
]


def term_slots(k, polys):
    """The slots zeta_poly walks: one strict choice c q^(n t) / (1-q^n)^(k_j)
    per nonzero term c q^t of each numerator, its denominators cleared."""
    slots = []
    for kj, cs in zip(k, polys):
        scale = lcm(*(Fraction(c).denominator for c in cs))
        slots.append(tuple(models._Choice(t, kj, c=int(c * scale)) for t, c in enumerate(cs) if c))
    return tuple(slots)


def oracle_walks():
    """(slots, low, top, order) for every walk of the brute-force oracle
    grids above, the denominator-cleared walks of POLY_POOL, and slots that
    mix gaps, reflections and coefficients."""
    slots = models._SLOTS
    for entries, M, N in product(DAGGER_FINITE_POOL, (0, 1, 2), (2, 3, 4)):
        if M < N:
            yield slots["dagger"](entries), M + 1, N, 12
    for k, N in product(BZ_FINITE_POOL, (2, 3, 5)):
        yield slots["bz"](k), 1, N, 12
    for k, N in product(DIAMOND_POOL, (2, 3, 5)):
        yield slots["diamond-bz"](k), 1, N, 10
        for M in range(0, min(N, 3)):
            yield slots["diamond-dagger"](k), M + 1, N, 10
    for k, N in product(REFLECTED_POOL, (2, 3, 5)):
        yield slots["reflected"](k), 1, N, 12
    yield slots["dagger-inf"]((BAR1, 2)), 1, 15, 14
    for c in DAGGER_INF_PAIRS:
        yield slots["dagger-inf"](bar_from_pairs(c).entries), 1, 11, 10
    for k in BZ_INF_POOL:
        yield slots["bz"](k), 1, 15, 14
    for k in SZ_INF_POOL:
        yield slots["sz"](k), 1, 11, 10
    for k, polys in POLY_POOL:
        yield term_slots(k, polys), 1, 11, 10
    C = models._Choice
    mixed = (C(0, 1, gap=0, reflected=True), C(1, 1), C(2, 2, c=-3), C(1, 1, gap=0, c=2))
    yield (mixed, (C(1, 2, c=5), C(0, 2, reflected=True))), 1, 7, 8
    yield ((C(1, 1, c=-1), C(0, 1, gap=0, reflected=True)), mixed), 2, 6, 8


def packed_and_dense(slots, low, top, order):
    """The walk on the packed ring and on the dense reference ring."""
    packed = models._series_walk(slots, low, top, order)
    return packed, models._walk((slots,), low, top, SeriesValues(order))[0]


def brute_suffixes(slots, low, top, order):
    """{(j, lo): S_j(lo)} for every suffix of a walk, where S_j(lo) sums the
    slots j, j+1, ... over lo <= n_j (<= or <) ... < top: every choice sequence
    and every lattice point of each tail is listed, then bucketed by n_j."""
    def factor(choice, n):
        x = top - n if choice.reflected else n
        return choice.c * q_kernel(choice.s * x, x, choice.k, order)

    out = {}
    for j in range(len(slots) + 1):
        tail = slots[j:]
        by_first = [QSeries.zero(order) for _ in range(low, top + 1)]
        for choices in product(*tail):
            ties = [c.gap == 0 for c in choices]
            for point in combinations_with_replacement(range(low, top), len(tail)):
                if any(a == b and not t for a, b, t in zip(point, point[1:], ties)):
                    continue
                value = QSeries.one(order)
                for c, n in zip(choices, point):
                    value = value * factor(c, n)
                at = point[0] - low if point else top - low  # the empty tail is one
                by_first[at] = by_first[at] + value
        total = QSeries.zero(order)
        for lo in range(top, low - 1, -1):
            total = total + by_first[lo - low]
            out[j, lo] = total
    return out


def test_packed_walk_matches_dense_on_oracle_grids():
    for walk in oracle_walks():
        packed, dense = packed_and_dense(*walk)
        assert packed == dense, walk


def test_packed_walk_matches_dense_at_order_100():
    # the deepest eval-high-order strata: infinite dagger with three runs,
    # xi with r = 3 and l_1 + l_2 + l_3 = 4 (eps 0 and 1), and a window M > 0;
    # then zeta_poly with signed numerators near 10^30, whose slots weigh
    # their choices by |c| in the width
    c = (2, 3, 1, 6, 1, 4)
    big = 10**30
    walks = (
        (models._SLOTS["dagger-inf"](bar_from_pairs((4, 6, 4, 5, 4, 6)).entries), 1, 101, 100),
        (models._SLOTS["dagger"](bar_from_pairs(c).entries), 1, 24, 100),
        (models._SLOTS["diamond-dagger"](diamond_from_pairs(c)), 1, 24, 100),
        (models._SLOTS["dagger"](bar_from_pairs(c).entries), 9, 20, 100),
    )
    for walk in walks:
        packed, dense = packed_and_dense(*walk)
        assert packed == dense, walk
    k, polys = (2, 3), [(big + 7, 3 - big, big), (0, -big, big - 1, 5)]
    dense = models._walk((term_slots(k, polys),), 1, 101, SeriesValues(100))[0]
    assert models.zeta_poly(k, polys, order=100) == dense


def test_packed_bits_bound_every_suffix():
    # 2^(bits-1) lies above |c| for every coefficient c of every suffix S_j(lo)
    for walk in oracle_walks():
        slots, low, top, order = walk
        bits = models._packed_bits((slots,), low, top, order)
        suffixes = brute_suffixes(slots, low, top, order)
        assert suffixes[0, low] == packed_and_dense(*walk)[0], walk
        biggest = max(max(map(abs, s.coeffs)) for s in suffixes.values())
        assert biggest < 2 ** (bits - 1), walk


# -- the suffix trie --------------------------------------------------------------


def trie_calls():
    """(tuples, low, top, order) of many-tuple walks whose tuples share
    suffixes: diamond slots with two choices, reflected and barred slots,
    strict slots of two or three choices with coefficients, windows with M > 0, a repeated
    tuple, the empty tuple, and families mixed in one call."""
    slots = models._SLOTS
    diamond = [slots["diamond-dagger"](k) for k in DIAMOND_POOL]
    diamond += [slots["diamond-dagger"](k) for k in product((1, 2), (1, 2), (2, 3))]
    for M in (0, 2):
        yield diamond + [()], M + 1, 6, 8
    yield [slots["diamond-bz"](k) for k in product((1, 2), (1, 3), (2,))], 1, 6, 8
    reflected = [slots["reflected"](k) for k in product((1, 2), repeat=2)]
    yield reflected + [slots["reflected"]((2,)), reflected[0]], 1, 5, 8
    bars = [slots["dagger"](bar_from_pairs(c).entries) for c in product((1, 2), repeat=4)]
    for M in (0, 1, 3):
        yield bars, M + 1, 7, 8
    C = models._Choice
    tail = ((C(1, 2, c=-3), C(2, 2)),)
    heads = [((C(0, 1), C(1, 1, c=10**30)),), ((C(0, 2, c=2), C(1, 2), C(2, 2, c=-5)),),
             ((C(1, 1), C(0, 1)), (C(0, 1), C(1, 1, c=-1), C(2, 3)))]
    yield [head + tail for head in heads] + [tail] + heads, 1, 7, 6
    yield diamond[:4] + reflected[:2] + bars[:4], 1, 6, 8


def test_trie_grids_share_suffixes():
    for tuples, _, _, _ in trie_calls():
        suffixes = {t[j:] for t in tuples for j in range(len(t))}
        assert len(suffixes) < sum(map(len, tuples)), tuples


def test_trie_walk_matches_one_tuple_walks():
    # every value ring: the dense reference, two rational points, the classical limit
    for tuples, low, top, order in trie_calls():
        rings = (SeriesValues(order), models._PointValues(Fraction(2)),
                 models._PointValues(Fraction(-1, 3)),
                 models._ClassicalValues(lcm(*range(1, top))))
        for vals in rings:
            want = [models._walk((t,), low, top, vals)[0] for t in tuples]
            assert models._walk(tuples, low, top, vals) == want, (tuples, low, vals)
        # and the packed ring at the one width of the call
        bits, walks = models._packed_walk(tuples, low, top, order)
        got = [QSeries(order, unpack(w, bits, order)) for w in walks]
        assert got == [models._walk((t,), low, top, rings[0])[0] for t in tuples]


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_walker_has_no_recursion_cliff():
    # the walker keeps its trie on a stack, so a walk 400 values long, 12
    # slots deep, or of many deep tuples sharing suffixes runs with the
    # recursion limit a few frames above the caller
    many = [models._SLOTS["bz"](k) for k in ((1,) * 11 + (2,), (2,) * 12, (1,) * 6 + (2,) * 6,
                                            (3,) + (1,) * 10 + (2,))]
    long = [models._SLOTS["dagger-inf"](k) for k in ((2, 3, 2), (3, 3, 2), (BAR1, 3, 2))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        deep = models.zeta_infinite("dagger", BarIndex((2, 3, 2)), order=400)
        wide = models.zeta_bz_finite((1,) * 11 + (2,), N=60, order=40)
        many_walks = models._walk(many, 1, 60, SeriesValues(40))
        bits, long_walks = models._packed_walk(long, 1, 401, 400)
    finally:
        sys.setrecursionlimit(limit)
    assert deep == models._walk((long[0],), 1, 401, SeriesValues(400))[0]
    # the lowest term comes from the one point n_j = j alone
    assert wide.valuation() == 12 and wide.coeff(12) == 1
    assert wide == many_walks[0]
    assert many_walks == [models._walk((t,), 1, 60, SeriesValues(40))[0] for t in many]
    for walk, slots in zip(long_walks, long):
        assert QSeries(400, unpack(walk, bits, 400)) == models._series_walk(slots, 1, 401, 400)
