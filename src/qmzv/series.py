"""Dense truncated power series in q with exact rational coefficients.

A QSeries holds the coefficients of sum(c_m * q^m) for 0 <= m <= order, the
truncation order being inclusive.  Coefficients are exact (Python int or
fractions.Fraction, never floats); integer coefficients are kept as ints so
that the common all-integer computations stay fast, which changes nothing
semantically since ints embed in the rationals.

Binary operations require both operands to carry the same order.  A mismatch
raises OrderMismatchError instead of silently truncating, so precision is
always explicit at the call site.

The packed codec (layout, pack, unpack, repack, packed_kernel) stores an
integer series truncated at the order as one int, its value at q = 2^bits
reduced mod 2^(bits (order+1)): a ring homomorphism (Kronecker substitution),
so add, negate and multiply are int operations and a mask.  Balanced digits
decode exactly when every coefficient lies in [-2^(bits-1), 2^(bits-1)).
repack moves a residue to another width without decoding it; both widths
must be multiples of 32 and every coefficient must fit the smaller one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import NonInvertibleError, OrderMismatchError, ParameterError
from .words import check_count


class QSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        check_count(order, "truncation order")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ParameterError(
                f"need {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise ParameterError(f"coefficient {c!r} is not an exact rational")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order, (0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls(order, (1,) + (0,) * order)

    @classmethod
    def monomial(cls, order: int, exponent: int, coeff=1) -> "QSeries":
        """coeff * q^exponent, the zero series if exponent exceeds the order."""
        if exponent < 0:
            raise ParameterError(f"exponent must be >= 0, got {exponent}")
        c = [0] * (order + 1)
        if exponent <= order:
            c[exponent] = coeff
        return cls(order, c)

    # -- queries -----------------------------------------------------------

    def coeff(self, m: int):
        """Coefficient of q^m; asking beyond the order is an error."""
        if not 0 <= m <= self.order:
            raise ParameterError(f"exponent {m} outside truncation order {self.order}")
        return self.coeffs[m]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def valuation(self):
        """Smallest exponent with nonzero coefficient, None for the zero series."""
        for m, c in enumerate(self.coeffs):
            if c:
                return m
        return None

    # -- arithmetic --------------------------------------------------------

    def _require_same_order(self, other: "QSeries"):
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._require_same_order(other)
        return QSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._require_same_order(other)
        return QSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return QSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries(self.order, [other * a for a in self.coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        res = [0] * (n + 1)
        b = [(j, bj) for j, bj in enumerate(other.coeffs) if bj]
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in b:
                    if i + j > n:
                        break
                    res[i + j] += ai * bj
        return QSeries(n, res)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ParameterError(f"series power must be a nonnegative int, got {e}")
        result = QSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def shift(self, a: int) -> "QSeries":
        """Multiply by q^a, dropping everything beyond the order."""
        if a < 0:
            raise ParameterError(f"shift must be >= 0, got {a}")
        n = self.order
        res = [0] * (n + 1)
        for m in range(n + 1 - a):
            res[m + a] = self.coeffs[m]
        return QSeries(n, res)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        # ints and equal Fractions hash alike, so no normalization is needed
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"QSeries({self.order}, {format_qseries(self)!r})"


def invert_unit(s: QSeries) -> QSeries:
    """Multiplicative inverse of a series with nonzero constant term."""
    c0 = s.coeffs[0]
    if c0 == 0:
        raise NonInvertibleError("cannot invert a series with zero constant term")
    n = s.order
    res = [0] * (n + 1)
    res[0] = 1 if c0 == 1 else Fraction(1, 1) / c0
    for m in range(1, n + 1):
        acc = 0
        for i in range(1, m + 1):
            ai = s.coeffs[i]
            if ai:
                acc += ai * res[m - i]
        res[m] = -acc if c0 == 1 else -acc / c0
    return QSeries(n, res)


# -- kernels ---------------------------------------------------------------
#
# Every factor of a nested sum is q^a / (1 - q^m)^k, so kernel() is the one
# place that builds it.  It is cached because the same (a, m, k, order)
# tuples recur across thousands of lattice points.


def bracket(n: int, order: int) -> QSeries:
    """The series 1 - q^n."""
    if n <= 0:
        raise ParameterError(f"bracket argument must be >= 1, got {n}")
    c = [0] * (order + 1)
    c[0] = 1
    if n <= order:
        c[n] = -1
    return QSeries(order, c)


def inv_bracket_pow(n: int, k: int, order: int) -> QSeries:
    """1 / (1 - q^n)^k via the negative binomial expansion (integer coefficients)."""
    # checked before the cache, which holds True and 1 as one key
    return _inv_bracket_pow(n, k, check_count(order, "truncation order"))


@lru_cache(maxsize=None)
def _inv_bracket_pow(n: int, k: int, order: int) -> QSeries:
    if n <= 0 or k < 0:
        raise ParameterError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    if k == 0:
        return QSeries.one(order)
    c = [0] * (order + 1)
    t = 0
    while n * t <= order:
        c[n * t] = comb(t + k - 1, k - 1)
        t += 1
    return QSeries(order, c)


def kernel(a: int, m: int, k: int, order: int) -> QSeries:
    """q^a / (1 - q^m)^k: the zero series when a > order, q^a when k = 0."""
    # checked before the cache, which holds True and 1 as one key
    return _kernel(a, m, k, check_count(order, "truncation order"))


@lru_cache(maxsize=None)
def _kernel(a: int, m: int, k: int, order: int) -> QSeries:
    if a > order:
        return QSeries.zero(order)
    return _inv_bracket_pow(m, k, order).shift(a)


def pow_kernel(n: int, k: int, order: int) -> QSeries:
    """q^n / (1 - q^n)^k."""
    return kernel(n, n, k, order)


# -- packed series -------------------------------------------------------------
#
# The codec of the module docstring.  Widths need not be whole bytes: the
# walker sizes them to its coefficient bound, bit by bit.


@lru_cache(maxsize=None)
def layout(bits: int, order: int) -> tuple:
    """(residue mask, half a digit 2^(bits-1) in every digit) for order + 1 digits."""
    mask = (1 << (bits * (order + 1))) - 1
    return mask, mask // ((1 << bits) - 1) << (bits - 1)


def pack(coeffs, bits: int) -> int:
    """The residue of the integer series with these coefficients."""
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value & layout(bits, len(coeffs) - 1)[0]


def unpack(residue: int, bits: int, order: int) -> list:
    """The coefficients of a residue, as balanced digits."""
    # half a digit added to every digit makes them all nonnegative: no borrows
    mask, offset = layout(bits, order)
    value, digit, half = (residue + offset) & mask, (1 << bits) - 1, 1 << (bits - 1)
    return [((value >> shift) & digit) - half for shift in range(0, bits * (order + 1), bits)]


def repack(residue: int, bits: int, new: int, order: int) -> int:
    """The same series at width new, both widths multiples of 32 and every
    coefficient in [-2^(h-1), 2^(h-1)) for the smaller width h."""
    if new == bits:
        return residue
    # half an h-bit digit added to every digit makes them all lie in
    # [0, 2^h): no borrows, and each digit's low h/32 words carry it
    h = min(bits, new)
    mask, offset = layout(bits, order)
    value = (residue + (offset >> (bits - h))) & mask
    source = memoryview(value.to_bytes(bits * (order + 1) // 8, "little")).cast("I")
    moved = bytearray(new * (order + 1) // 8)
    target = memoryview(moved).cast("I")
    for word in range(h // 32):
        target[word :: new // 32] = source[word :: bits // 32]
    mask, offset = layout(new, order)
    return (int.from_bytes(moved, "little") - (offset >> (new - h))) & mask


def packed_kernel(a: int, m: int, k: int, order: int, bits: int) -> int:
    """kernel(a, m, k, order) at q = 2^bits, unmasked: C(t+k-1, k-1) at q^(a+mt)."""
    if a > order:
        return 0
    if k == 0:
        return 1 << (bits * a)
    step = bits * m
    value = 0
    for t in range((order - a) // m, -1, -1):
        value = (value << step) + comb(t + k - 1, k - 1)
    return value << (bits * a)


# -- rendering ---------------------------------------------------------------


def _coeff_str(c) -> str:
    return str(c)


def format_qseries(s: QSeries) -> str:
    """Human form like 'q + 2q^2 - (1/2)q^3'; '0' for the zero series."""
    parts = []
    for m, c in enumerate(s.coeffs):
        if not c:
            continue
        mag = -c if c < 0 else c
        if m == 0:
            body = _coeff_str(mag)
        else:
            var = "q" if m == 1 else f"q^{m}"
            if mag == 1:
                body = var
            elif isinstance(mag, Fraction) and mag.denominator != 1:
                body = f"({mag}){var}"
            else:
                body = f"{mag}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def series_to_json(s: QSeries) -> dict:
    return {"order": s.order, "coeffs": [_coeff_str(c) for c in s.coeffs]}


def series_from_json(data: dict) -> QSeries:
    """The series of a series_to_json document.  The order must be an int
    (QSeries checks it) and the coefficients a list of strings that Fraction
    reads exactly; ParameterError otherwise."""
    try:
        order, raw = data["order"], data["coeffs"]
        if not isinstance(raw, list) or not all(isinstance(text, str) for text in raw):
            raise TypeError(f"coefficients must be a list of strings, got {raw!r}")
        coeffs = [Fraction(text) for text in raw]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"malformed series document: {exc}") from exc
    return QSeries(order, [f.numerator if f.denominator == 1 else f for f in coeffs])
