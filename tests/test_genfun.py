"""Tests for truncated multivariate generating functions."""

import random
from fractions import Fraction
from itertools import product

import pytest

from qmzv import genfun, models
from qmzv.errors import OrderMismatchError, ParameterError
from qmzv.genfun import (
    MultiPoly,
    boundary_scaled,
    compare_polys,
    difference_kernels,
    verify_b_diff,
    verify_g_diff,
    verify_recurrence,
    xi_genfun,
)
from qmzv.models import xi_value
from qmzv.series import QSeries, bracket, inv_bracket_pow, repack


ORDER = 10


def one(order=ORDER):
    return QSeries.one(order)


def test_multipoly_validation():
    with pytest.raises(ParameterError):
        MultiPoly(2, 1, ORDER, {(1,): one()})
    with pytest.raises(ParameterError):
        MultiPoly(2, 1, ORDER, {(2, 0): one()})
    with pytest.raises(ParameterError):
        MultiPoly(1, 1, ORDER, {(0,): 7})
    with pytest.raises(OrderMismatchError):
        MultiPoly(1, 1, ORDER, {(0,): QSeries.one(ORDER + 1)})
    with pytest.raises(ParameterError):
        MultiPoly(-1, 1, ORDER)
    with pytest.raises(ParameterError):
        MultiPoly(1, 1, True)
    half = QSeries(ORDER, [Fraction(1, 2)] + [0] * ORDER)
    with pytest.raises(ParameterError):
        MultiPoly(1, 1, ORDER, {(0,): half})
    p = MultiPoly.one(1, 1, ORDER)
    with pytest.raises(ParameterError):
        p * Fraction(1, 2)
    with pytest.raises(ParameterError):
        Fraction(1, 2) * p
    with pytest.raises(ParameterError):
        p * half


def test_multipoly_zero_coefficients_dropped():
    p = MultiPoly(1, 1, ORDER, {(0,): QSeries.zero(ORDER), (1,): one()})
    assert p.terms() == (((1,), one()),)
    assert p.coeff((0,)) == QSeries.zero(ORDER)


def test_multipoly_arithmetic():
    u = MultiPoly(2, 2, ORDER, {(1, 0): one()})
    v = MultiPoly(2, 2, ORDER, {(0, 1): one()})
    s = u + v
    assert s.coeff((1, 0)) == one()
    assert s.coeff((0, 1)) == one()
    assert (s - u) == v
    assert (-u).coeff((1, 0)) == -one()
    assert (u * v).coeff((1, 1)) == one()
    assert (u * 3).coeff((1, 0)) == 3 * one()
    assert (bracket(2, ORDER) * u).coeff((1, 0)) == bracket(2, ORDER)


def test_multipoly_product_truncates():
    u = MultiPoly(1, 1, ORDER, {(1,): one()})
    assert (u * u).is_zero()
    w = MultiPoly(1, 2, ORDER, {(1,): one()})
    assert (w * w).coeff((2,)) == one()


def test_multipoly_embed():
    p = MultiPoly(1, 2, ORDER, {(2,): one()})
    wide = p.embed(3, (1,))
    assert wide.nvars == 3
    assert wide.coeff((0, 2, 0)) == one()
    with pytest.raises(ParameterError):
        p.embed(3, (1, 2))
    with pytest.raises(ParameterError):
        p.embed(2, (5,))


def test_two_variable_product_identity():
    # 1 - (1-u)(1-v) == u + v - uv, truncation-free at maxdeg 1
    top = MultiPoly.one(2, 1, ORDER)
    fu = top - MultiPoly(2, 1, ORDER, {(1, 0): one()})
    fv = top - MultiPoly(2, 1, ORDER, {(0, 1): one()})
    expanded = top - fu * fv
    direct = MultiPoly(
        2, 1, ORDER, {(1, 0): one(), (0, 1): one(), (1, 1): -one()}
    )
    assert expanded == direct


def test_xi_genfun_base_case():
    assert xi_genfun(0, 0, 3, 0, 2, ORDER) == MultiPoly.one(0, 2, ORDER)
    assert xi_genfun(1, 2, 5, 0, 1, ORDER) == MultiPoly.one(0, 1, ORDER)


def test_xi_genfun_coefficients_match_fresh_evaluations():
    for eps in (0, 1):
        for M in (0, 1):
            gp = xi_genfun(eps, M, 3, 1, 2, ORDER)
            for e in gp.terms():
                exponent, series = e
                c = tuple(x + 1 for x in exponent)
                assert series == xi_value(eps, c, N=3, M=M, order=ORDER), (eps, M, c)
    gp = xi_genfun(1, 1, 4, 2, 1, ORDER)
    assert gp.coeff((1, 0, 0, 1)) == xi_value(1, (2, 1, 1, 2), N=4, M=1, order=ORDER)


@pytest.mark.parametrize("eps", (0, 1))
def test_xi_genfun_matches_public_constructor(eps):
    # xi_genfun packs its leaves without the constructor's per-term checks
    for M, r, maxdeg in product((0, 1), range(4), range(3)):
        leaves = {
            e: xi_value(eps, tuple(x + 1 for x in e), N=4, M=M, order=ORDER)
            for e in product(range(maxdeg + 1), repeat=2 * r)
        }
        want = MultiPoly(2 * r, maxdeg, ORDER, leaves)
        got = xi_genfun(eps, M, 4, r, maxdeg, ORDER)
        assert got == want, (M, r, maxdeg)
        assert (got.bits, got.mass, got.terms()) == (want.bits, want.mass, want.terms())


def test_xi_genfun_leaves_the_model_cache_alone():
    # its leaves come from one walk and are not kept as single models
    genfun._xi_genfun.cache_clear()
    models._model_sum.cache_clear()
    for eps in (0, 1):
        xi_genfun(eps, 1, 5, 2, 2, ORDER)
    assert models._model_sum.cache_info().currsize == 0


def test_xi_genfun_parameter_errors():
    with pytest.raises(ParameterError):
        xi_genfun(2, 0, 3, 1, 2, ORDER)
    with pytest.raises(ParameterError):
        xi_genfun(0, 3, 3, 1, 2, ORDER)
    with pytest.raises(ParameterError):
        xi_genfun(0, 0, 3, -1, 2, ORDER)
    with pytest.raises(ParameterError):
        xi_genfun(0, 0, 3, 1, -2, ORDER)


def test_boundary_scaled_r0_unchanged():
    gp = xi_genfun(0, 0, 3, 0, 2, ORDER)
    assert boundary_scaled(gp, 3) == gp


def test_boundary_scaled_linearity():
    a = xi_genfun(0, 0, 3, 1, 2, ORDER)
    b = xi_genfun(1, 0, 3, 1, 2, ORDER)
    assert boundary_scaled(a + b, 3) == boundary_scaled(a, 3) + boundary_scaled(b, 3)


def test_boundary_scaled_hand_expansion():
    N = 3
    gp = xi_genfun(0, 0, N, 1, 2, ORDER)
    scaled = boundary_scaled(gp, N)
    bN = bracket(N, ORDER)

    def xi(l, k):
        return xi_value(0, (l, k), N=N, order=ORDER)

    assert scaled.coeff((0, 0)) == bN * xi(1, 1)
    assert scaled.coeff((1, 0)) == bN * xi(2, 1) - xi(1, 1)
    assert scaled.coeff((1, 1)) == bN * xi(2, 2) - xi(1, 2) - xi(2, 1) + xi(1, 1)


def test_difference_kernel_row_expansion():
    M, N = 1, 3
    row0, _ = difference_kernels(0, M, N, 2, ORDER)
    assert row0.coeff((0,)) == one()
    assert row0.coeff((1,)) == inv_bracket_pow(N - M, 1, ORDER)
    assert row0.coeff((2,)) == inv_bracket_pow(N - M, 2, ORDER)
    row1, _ = difference_kernels(1, M, N, 2, ORDER)
    assert row1.coeff((0,)) == one()
    lift = QSeries.monomial(ORDER, M) * inv_bracket_pow(M, 1, ORDER)
    assert row1.coeff((1,)) == inv_bracket_pow(N - M, 1, ORDER) + lift


def test_difference_kernels_reject_zero_inner_boundary():
    with pytest.raises(ParameterError):
        difference_kernels(0, 0, 3, 2, ORDER)
    with pytest.raises(ParameterError):
        difference_kernels(0, 3, 3, 2, ORDER)


def test_b_diff_identity():
    for eps in (0, 1):
        assert verify_b_diff(eps, 1, 3, 2, 15).passed, eps
    assert verify_b_diff(1, 2, 5, 3, 12).passed


def test_g_diff_identity():
    assert verify_g_diff(0, 1, 2, 1, 2, 15).passed
    assert verify_g_diff(1, 1, 3, 1, 2, 15).passed
    assert verify_g_diff(0, 2, 4, 2, 1, 12).passed


def test_g_diff_parameter_errors():
    with pytest.raises(ParameterError):
        verify_g_diff(0, 0, 2, 1, 2, ORDER)
    with pytest.raises(ParameterError):
        verify_g_diff(0, 1, 2, 0, 2, ORDER)


def test_recurrence_identity():
    assert verify_recurrence(0, 0, 1, 0, 2, ORDER).passed
    assert verify_recurrence(0, 0, 2, 1, 2, 15).passed
    assert verify_recurrence(1, 2, 4, 1, 2, 12).passed
    assert verify_recurrence(1, 1, 3, 2, 1, 12).passed


def test_recurrence_window_gap_at_zero_inner_boundary():
    # q^0 - q^N is exactly 1 - q^N: the cross-multiplier degenerates cleanly
    assert QSeries.monomial(ORDER, 0) - QSeries.monomial(ORDER, 3) == bracket(3, ORDER)
    assert verify_recurrence(1, 0, 2, 1, 2, 15).passed


def test_compare_polys_witnesses_first_mismatch():
    lhs = xi_genfun(0, 0, 2, 1, 1, 8)
    rhs = xi_genfun(0, 0, 3, 1, 1, 8)
    report = compare_polys("probe", {"n": 1}, lhs, rhs)
    assert not report.passed
    assert report.witness is not None
    assert "exponent" in report.witness and "q_power" in report.witness

    short = MultiPoly.one(1, 1, 8)
    wide = MultiPoly.one(2, 1, 8)
    shape = compare_polys("probe", {}, short, wide)
    assert not shape.passed
    assert shape.witness["reason"] == "shape mismatch"


# -- packed MultiPoly against a dense reference ---------------------------------
#
# The reference keeps {exponent tuple: QSeries} and multiplies term by term,
# dropping exponents past maxdeg, exactly as the unpacked layer used to.

ORACLE_ORDER = 6
# magnitudes on both sides of every 32-bit width step, and far past 2^70
ORACLE_BIT_LENGTHS = (1, 3, 8, 30, 31, 32, 33, 62, 63, 64, 65, 71, 80, 94, 95, 96, 97)


def dense_clean(terms):
    return {e: s for e, s in terms.items() if not s.is_zero()}


def dense_add(a, b):
    out = dict(a)
    for e, s in b.items():
        out[e] = out[e] + s if e in out else s
    return dense_clean(out)


def dense_scale(a, factor):
    return dense_clean({e: s * factor for e, s in a.items()})


def dense_mul(a, b, maxdeg):
    out = {}
    for (e1, s1), (e2, s2) in product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(e1, e2))
        if max(e, default=0) <= maxdeg:
            out[e] = out[e] + s1 * s2 if e in out else s1 * s2
    return dense_clean(out)


def dense_embed(a, nvars_new, positions):
    out = {}
    for e, s in a.items():
        new_e = [0] * nvars_new
        for j, x in enumerate(e):
            new_e[positions[j]] = x
        out[tuple(new_e)] = s
    return out


def random_coeff(rng):
    magnitude = rng.getrandbits(rng.choice(ORACLE_BIT_LENGTHS)) | 1
    return rng.choice((1, -1)) * magnitude


def random_series(rng, order=ORACLE_ORDER):
    return QSeries(order, [random_coeff(rng) if rng.random() < 0.6 else 0 for _ in range(order + 1)])


def random_terms(rng, nvars, maxdeg, order=ORACLE_ORDER):
    exps = list(product(range(maxdeg + 1), repeat=nvars))
    picked = rng.sample(exps, rng.randint(0, min(len(exps), 5)))
    # a zero series among the terms must be dropped, as in the reference
    return {e: random_series(rng, order) if i else QSeries.zero(order) for i, e in enumerate(picked)}


def random_linear(rng, nvars, maxdeg, order=ORACLE_ORDER):
    """Entries for genfun._linear and their dense reference.  Exponents reach
    maxdeg + 1 and digits order + 2, so some of each are dropped."""
    entries, dense = [], {}
    exps = list(product(range(maxdeg + 2), repeat=nvars))
    for e in rng.sample(exps, rng.randint(0, min(len(exps), 4))):
        ds = tuple((t, rng.choice((1, -1))) for t in rng.sample(range(order + 3), rng.randint(1, 2)))
        entries.append((e, ds))
        coeffs = [0] * (order + 1)
        for t, sign in ds:
            if t <= order:
                coeffs[t] += sign
        if max(e, default=0) <= maxdeg:
            dense[e] = QSeries(order, coeffs)
    return entries, dense_clean(dense)


def assert_matches(poly, dense):
    dense = dense_clean(dense)
    assert dict(poly.terms()) == dense
    assert [e for e, _ in poly.terms()] == sorted(dense)
    zero = QSeries.zero(poly.order)
    for e in product(range(poly.maxdeg + 1), repeat=poly.nvars):
        assert poly.coeff(e) == dense.get(e, zero), e
    assert poly == MultiPoly(poly.nvars, poly.maxdeg, poly.order, dense)


@pytest.mark.parametrize("seed", range(12))
def test_packed_multipoly_matches_dense_reference(seed):
    rng = random.Random(seed)
    widths, linear_widths = set(), set()
    for nvars in range(5):
        maxdeg = rng.randint(0, 2)
        ta, tb = (random_terms(rng, nvars, maxdeg) for _ in range(2))
        a = MultiPoly(nvars, maxdeg, ORACLE_ORDER, ta)
        b = MultiPoly(nvars, maxdeg, ORACLE_ORDER, tb)
        ta, tb = dense_clean(ta), dense_clean(tb)
        s, n = random_series(rng), random_coeff(rng)
        minus_b = dense_scale(tb, -1)
        results = [
            (a, ta),
            (a + b, dense_add(ta, tb)),
            (a - b, dense_add(ta, minus_b)),
            (-b, minus_b),
            (a * b, dense_mul(ta, tb, maxdeg)),
            (a * s, dense_scale(ta, s)),
            (s * a, dense_scale(ta, s)),
            (a * n, dense_scale(ta, n)),
            (n * b, dense_scale(tb, n)),
            (a * 0, {}),
            ((a * b) * (a - b), dense_mul(dense_mul(ta, tb, maxdeg), dense_add(ta, minus_b), maxdeg)),
            (a - a, {}),
        ]
        # the shift path: a linear factor on either side of *
        entries, tl = random_linear(rng, nvars, maxdeg)
        lin = genfun._linear(nvars, maxdeg, ORACLE_ORDER, entries)
        zero = genfun._linear(nvars, maxdeg, ORACLE_ORDER, [((0,) * nvars, ((ORACLE_ORDER + 1, 1),))])
        shifted = [
            (a * lin, dense_mul(ta, tl, maxdeg)),
            (lin * b, dense_mul(tl, tb, maxdeg)),
            (lin * lin, dense_mul(tl, tl, maxdeg)),
            (a * zero, {}),
            (zero * b, {}),
        ]
        results += [(lin, tl), (zero, {})] + shifted
        for poly, dense in results:
            assert_matches(poly, dense)
            widths.add(poly.bits)
        linear_widths.update(poly.bits for poly, _ in shifted)
        positions = tuple(rng.sample(range(nvars + 1), nvars))
        assert_matches(a.embed(nvars + 1, positions), dense_embed(ta, nvars + 1, positions))
        assert (a == b) == (ta == tb)
        if ta:
            # a one-unit change in the top q-power of one term is seen
            e = min(ta)
            bump = dict(ta)
            bump[e] = ta[e] + QSeries.monomial(ORACLE_ORDER, ORACLE_ORDER)
            assert a != MultiPoly(nvars, maxdeg, ORACLE_ORDER, bump)
    assert max(widths) > 96
    assert max(linear_widths) > 64


@pytest.mark.parametrize(
    "eps, M, N, r, maxdeg, order, walk_bits, bits",
    [
        (0, 0, 4, 2, 2, ORDER, 32, 32),  # 32 -> 32
        (1, 0, 2, 1, 2, 100, 64, 64),  # 64 -> 64
        (1, 0, 9, 1, 2, 30, 64, 32),  # 64 -> 32
        (1, 10, 14, 3, 1, 100, 96, 32),  # 96 -> 32
        (1, 2, 6, 3, 1, 100, 96, 64),  # 96 -> 64
    ],
)
def test_xi_genfun_leaf_widths(eps, M, N, r, maxdeg, order, walk_bits, bits):
    exps = list(product(range(maxdeg + 1), repeat=2 * r))
    cs = [tuple(x + 1 for x in e) for e in exps]
    assert models.xi_packed(eps, cs, N=N, M=M, order=order)[0] == walk_bits
    leaves = {e: xi_value(eps, c, N=N, M=M, order=order) for e, c in zip(exps, cs)}
    want = MultiPoly(2 * r, maxdeg, order, leaves)
    got = xi_genfun(eps, M, N, r, maxdeg, order)
    assert (got.bits, got.mass, got.terms()) == (want.bits, want.mass, want.terms())
    assert got.bits == bits
    assert got.mass == sum(sum(map(abs, s.coeffs)) for _, s in got.terms()) > 0


def test_large_order_identities_need_wide_words():
    assert xi_genfun(1, 0, 9, 2, 2, 100).bits > 32
    assert verify_recurrence(1, 0, 8, 2, 2, 100).passed
    assert verify_g_diff(1, 2, 8, 2, 2, 100).passed


def test_identities_never_decode(monkeypatch):
    # equality and every width change act on residues; only terms() and
    # coeff() decode, to name a mismatch or read a coefficient
    def refuse(*args):
        raise AssertionError("a residue was decoded")

    widths = set()

    def spy(residue, bits, new, order):
        widths.add((bits, new))
        return repack(residue, bits, new, order)

    monkeypatch.setattr(genfun, "unpack", refuse)
    monkeypatch.setattr(genfun, "repack", spy)
    genfun._xi_genfun.cache_clear()  # build the leaves under the patch
    assert verify_recurrence(1, 0, 8, 2, 2, 100).passed
    assert verify_g_diff(1, 2, 8, 2, 2, 100).passed
    assert verify_b_diff(1, 2, 8, 2, 100).passed
    narrow = MultiPoly.one(1, 1, ORDER)
    wide = MultiPoly(1, 1, ORDER, {(1,): QSeries.monomial(ORDER, 1, 1 << 40)})
    assert (narrow.bits, wide.bits) == (32, 64)
    assert narrow * wide == wide
    assert {(32, 64), (64, 32), (96, 64)} <= widths
