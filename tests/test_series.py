from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmzv.errors import NonInvertibleError, OrderMismatchError, ParameterError
from qmzv.series import (
    QSeries,
    bracket,
    format_qseries,
    inv_bracket_pow,
    invert_unit,
    kernel,
    layout,
    pack,
    packed_kernel,
    pow_kernel,
    repack,
    series_from_json,
    series_to_json,
    unpack,
)


def sigma1(m: int) -> int:
    return sum(d for d in range(1, m + 1) if m % d == 0)


def divisor_count(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if m % d == 0)


def test_divisor_sum_series_oracle():
    # sum over n >= 1 of q^n/(1-q^n)^2 has sigma_1(m) as coefficient of q^m
    order = 5
    total = QSeries.zero(order)
    for n in range(1, order + 1):
        total = total + pow_kernel(n, 2, order)
    assert list(total.coeffs) == [0] + [sigma1(m) for m in range(1, 6)]
    assert list(total.coeffs)[1:] == [1, 3, 4, 7, 6]


def test_divisor_count_series_oracle():
    order = 5
    total = QSeries.zero(order)
    for n in range(1, order + 1):
        total = total + pow_kernel(n, 1, order)
    assert list(total.coeffs) == [0] + [divisor_count(m) for m in range(1, 6)]
    assert list(total.coeffs)[1:] == [1, 2, 2, 3, 2]


def test_inv_bracket_pow_zero_power_is_one():
    assert inv_bracket_pow(3, 0, 8) == QSeries.one(8)


def test_inv_bracket_pow_negative_binomial():
    s = inv_bracket_pow(2, 2, 6)
    assert list(s.coeffs) == [1, 0, 2, 0, 3, 0, 4]
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            s = inv_bracket_pow(n, k, 12)
            for m in range(13):
                expected = comb(m // n + k - 1, k - 1) if m % n == 0 else 0
                assert s.coeff(m) == expected


def test_bracket_times_inverse_is_one():
    for n in (1, 2, 5):
        for k in (1, 2, 4):
            prod = bracket(n, 20) ** k * inv_bracket_pow(n, k, 20)
            assert prod == QSeries.one(20)


def test_kernel_shifts():
    # q^a/(1-q^m)^k against an inverse computed by invert_unit, including
    # k = 0, a = 0 and a beyond the order
    order = 10
    for a in (0, 1, 2, 5, 10, 11, 30):
        for m in (1, 2, 3, 7):
            for k in (0, 1, 2, 3):
                want = QSeries.monomial(order, a) * invert_unit(bracket(m, order) ** k)
                assert kernel(a, m, k, order) == want, (a, m, k)
                assert packed_kernel(a, m, k, order, 9) == pack(want.coeffs, 9), (a, m, k)
            assert pow_kernel(m, 2, order) == kernel(m, m, 2, order)
    assert kernel(0, 3, 0, order) == QSeries.one(order)
    assert kernel(11, 3, 2, order).is_zero()


def test_orders_refuse_booleans():
    # bool is an int subclass; each call used to return an order-True series.
    # kernel and inv_bracket_pow check first: their caches hold True and 1
    # as one key
    calls = (
        lambda: QSeries.one(True),
        lambda: QSeries(True, [0, 1]),
        lambda: kernel(1, 1, 1, True),
        lambda: inv_bracket_pow(1, 1, True),
    )
    for warm in (False, True):
        if warm:
            assert kernel(1, 1, 1, 1) == QSeries(1, [0, 1])
            assert inv_bracket_pow(1, 1, 1) == QSeries(1, [1, 1])
        for call in calls:
            with pytest.raises(ParameterError):
                call()


def test_coefficients_refuse_booleans():
    # a bool coefficient would print as True, and its JSON document would not
    # read back
    for coeffs in ([True, 0], [0, False], [Fraction(1, 2), True]):
        with pytest.raises(ParameterError, match="not an exact rational"):
            QSeries(1, coeffs)
    with pytest.raises(ParameterError):
        QSeries(1, [1.0, 0])

    class Int(int):
        pass

    # a subclass of int or Fraction other than bool is still exact
    assert QSeries(1, [Int(2), Fraction(1, 3)]).coeffs == (2, Fraction(1, 3))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 130), st.integers(0, 120))
def test_pack_unpack_round_trip(data, bits, order):
    # balanced digits decode every -2^(bits-1) <= c < 2^(bits-1), at any
    # width, whole bytes or not
    half = 1 << (bits - 1)
    digits = st.lists(st.integers(-half, half - 1), min_size=order + 1, max_size=order + 1)
    coeffs = data.draw(digits)
    residue = pack(coeffs, bits)
    assert 0 <= residue <= layout(bits, order)[0]
    assert unpack(residue, bits, order) == coeffs


WIDTHS = (32, 64, 96, 128, 160)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(WIDTHS), st.sampled_from(WIDTHS), st.integers(0, 40))
def test_repack_matches_decode_and_encode(data, bits, new, order):
    # every coefficient fits the smaller width, the bounds of its range included
    half = 1 << (min(bits, new) - 1)
    coeff = st.one_of(st.sampled_from((-half, -half + 1, half - 1, 0)), st.integers(-half, half - 1))
    coeffs = data.draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    residue = pack(coeffs, bits)
    assert repack(residue, bits, new, order) == pack(unpack(residue, bits, order), new)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 120))
def test_packed_product_is_truncated_product(data, order):
    # every coefficient of a truncated product is at most L1(a) L1(b), so a
    # width with 2^(bits-1) above that decodes the masked int product
    digits = st.lists(st.integers(-(2**40), 2**40), min_size=order + 1, max_size=order + 1)
    a, b = data.draw(digits), data.draw(digits)
    least = (sum(map(abs, a)) * sum(map(abs, b))).bit_length() + 1
    bits = data.draw(st.integers(least, least + 40))
    product = pack(a, bits) * pack(b, bits) & layout(bits, order)[0]
    want = QSeries(order, a) * QSeries(order, b)
    assert unpack(product, bits, order) == list(want.coeffs)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_telescoping_inverse_bracket_powers(N):
    # 1/(1-q^N)^m = 1 + q^N * sum over h <= m of 1/(1-q^N)^h
    order = 20
    for m in range(1, 7):
        lhs = inv_bracket_pow(N, m, order)
        acc = QSeries.zero(order)
        for h in range(1, m + 1):
            acc = acc + inv_bracket_pow(N, h, order)
        rhs = QSeries.one(order) + acc.shift(N)
        assert lhs == rhs


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [0, 1])
def test_binomial_kernel_expansion(N, eps):
    # q^(Nm)/(1-q^N)^((1+eps)m)
    #   = sum over m' <= m of (-1)^(m-m') C(m-1, m'-1) q^N/(1-q^N)^(m'+eps*m)
    order = 20
    for m in range(1, 5):
        lhs = inv_bracket_pow(N, (1 + eps) * m, order).shift(N * m)
        rhs = QSeries.zero(order)
        for mp in range(1, m + 1):
            sign = (-1) ** (m - mp)
            term = inv_bracket_pow(N, mp + eps * m, order).shift(N)
            rhs = rhs + sign * comb(m - 1, mp - 1) * term
        assert lhs == rhs


def _small_fractions():
    return st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(_small_fractions(), min_size=9, max_size=9))
def test_invert_unit_property(tail):
    s = QSeries(9, [Fraction(1)] + tail)
    assert s * invert_unit(s) == QSeries.one(9)
    assert invert_unit(s) * s == QSeries.one(9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=7, max_size=7),
    st.lists(st.integers(-9, 9), min_size=7, max_size=7),
    st.lists(st.integers(-9, 9), min_size=7, max_size=7),
)
def test_ring_axioms(a, b, c):
    sa, sb, sc = QSeries(6, a), QSeries(6, b), QSeries(6, c)
    assert sa + sb == sb + sa
    assert sa * sb == sb * sa
    assert (sa + sb) * sc == sa * sc + sb * sc
    assert sa * (sb * sc) == (sa * sb) * sc


def test_order_mismatch_is_an_error():
    a = QSeries.one(5)
    b = QSeries.one(6)
    with pytest.raises(OrderMismatchError):
        a + b
    with pytest.raises(OrderMismatchError):
        a * b
    with pytest.raises(OrderMismatchError):
        a - b


def test_invert_requires_unit():
    with pytest.raises(NonInvertibleError):
        invert_unit(QSeries.monomial(4, 1))


def test_invert_scaled_unit():
    s = QSeries(4, [2, 1, 0, 0, 0])
    inv = invert_unit(s)
    assert inv.coeff(0) == Fraction(1, 2)
    assert s * inv == QSeries.one(4)


def test_coeff_bounds_checked():
    s = QSeries.one(3)
    with pytest.raises(ParameterError):
        s.coeff(4)
    with pytest.raises(ParameterError):
        s.coeff(-1)


def test_monomial_beyond_order_is_zero():
    assert QSeries.monomial(3, 7).is_zero()
    assert QSeries.monomial(3, 3) == QSeries(3, [0, 0, 0, 1])


def test_pow_matches_repeated_multiplication():
    s = QSeries(5, [1, 1, 0, 2, 0, 0])
    assert s**0 == QSeries.one(5)
    acc = QSeries.one(5)
    for e in range(1, 5):
        acc = acc * s
        assert s**e == acc


def test_valuation():
    assert QSeries.zero(4).valuation() is None
    assert QSeries.monomial(4, 3).valuation() == 3
    assert QSeries.one(4).valuation() == 0


def test_format():
    assert format_qseries(QSeries.zero(2)) == "0"
    s = QSeries(5, [0, 1, 2, 3, 4, 5])
    assert format_qseries(s) == "q + 2q^2 + 3q^3 + 4q^4 + 5q^5"
    t = QSeries(3, [1, -1, Fraction(-1, 2), 0])
    assert format_qseries(t) == "1 - q - (1/2)q^3".replace("q^3", "q^2")


def test_json_round_trip():
    s = QSeries(4, [1, 0, Fraction(3, 7), -2, 0])
    doc = series_to_json(s)
    assert doc["order"] == 4
    assert doc["coeffs"] == ["1", "0", "3/7", "-2", "0"]
    assert series_from_json(doc) == s


@pytest.mark.parametrize("doc", [
    {"order": 1.5, "coeffs": ["1", "2"]},  # not truncated to order 1
    {"order": True, "coeffs": ["1", "2"]},
    {"order": "1", "coeffs": ["1", "2"]},
    {"order": -1, "coeffs": []},
    {"order": 1, "coeffs": ["a", "1"]},
    {"order": 1, "coeffs": ["1/0", "1"]},
    {"order": 1, "coeffs": [1, 2]},  # numbers, not strings
    {"order": 1, "coeffs": ["1", 0.5]},
    {"order": 1, "coeffs": "12"},
    {"order": 1, "coeffs": ["1"]},
    {"order": 1},
    None,
])
def test_series_from_json_refuses_what_it_cannot_read_exactly(doc):
    with pytest.raises(ParameterError):
        series_from_json(doc)


def test_equality_across_int_and_fraction():
    assert QSeries(2, [1, 2, 3]) == QSeries(2, [Fraction(1), Fraction(2), Fraction(3)])
    assert hash(QSeries(2, [1, 2, 3])) == hash(
        QSeries(2, [Fraction(1), Fraction(2), Fraction(3)])
    )
