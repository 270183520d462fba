"""Truncated multivariate generating functions over exact q-series.

A MultiPoly is a polynomial in formal variables u_1..u_nvars whose
coefficients are integer q-series, truncated so that every variable exponent
stays at or below maxdeg.  Products drop anything past the cap, so a MultiPoly
is always the image of the corresponding exact series under "forget variable
exponents above maxdeg and q-powers above order"; identities checked
coefficientwise on truncations are therefore exact statements about the
range they cover.

Each coefficient is stored as one series.pack residue, so add, negate and
multiply are int operations followed by a mask.  Every MultiPoly carries
mass, an int bound on the sum of |c| over all of its q-coefficients: the L1
norm when built from QSeries, mass_a + mass_b for a sum, mass_a * mass_b for
a product (truncation only drops terms) and |c| * mass for an integer scalar
c.  bits is mass.bit_length() + 2 rounded up to a multiple of 32, and an
operation whose mass outgrows its operands' bits repacks them wider first.
So every coefficient lies below 2^(bits-2) in absolute value and decodes
exactly; a zero residue is the zero series.  Two polynomials are equal when
their residues agree at a width that also bounds the difference,
mass_lhs + mass_rhs, so equality never decodes; compare_polys decodes only
to name a mismatch.

Exponent tuples are stored as codes, their digits in radix 2 maxdeg + 1 with
the first variable most significant.  Adding two codes adds the tuples
without a carry, so a product term is kept exactly when its code is in the
table of tuples within the cap, and codes sort as their tuples do.

The identities' boundary factors, such as (1 - q^N) - u_1 - u_2 + u_1 u_2,
are linear: each coefficient is a short sum of +-q^t.  _linear builds one
from those digits, packs it at the width of their count (its mass) and keeps
the digits, so a product with it is, term by term, shifted copies of the
other operand's residues added or subtracted at the product's width, with no
bigint multiply; that path never reads the linear operand's residues.

xi_genfun packs the nested-sum values into one MultiPoly: the coefficient at
exponent tuple e is xi(eps, e+1) for the same window.  Odd-position variables
(1-indexed) track the repetition count of a pair, even-position ones the
entry size.  Window-shift and cut-one-level identities then become polynomial
statements, and every check here is stated cross-multiplied: 1 - q^n is a
unit in the coefficient ring, q^m - q^n is not, and nothing below ever
divides by the latter.

The leaves of xi_genfun are walked at the walker's bound rounded up to a
multiple of 32 bits.  Every xi value has nonnegative coefficients, and the
bound keeps each leaf's L1 norm below 2^(bits-1), so a leaf's residue holds
its coefficients as plain digits and its L1 norm is their sum, the residue
mod 2^bits - 1: the mass is exact without a decode.  series.repack then
moves each leaf to the width that mass needs, as it does every width change
of a MultiPoly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .combinat import eo_count, kappa, tilings
from .errors import OrderMismatchError, ParameterError
from .models import check_order, check_window, xi_packed
from .report import Report
from .series import QSeries, inv_bracket_pow, kernel, layout, pack, repack, unpack
from .words import check_count, check_eps


# -- packed coefficients ---------------------------------------------------------


def _bits_for(mass: int) -> int:
    """Bits per coefficient for a polynomial of the given mass: a multiple
    of 32 (so widths change rarely) at least mass.bit_length() + 2."""
    return -(-(mass.bit_length() + 2) // 32) * 32


def _series_mass(s: QSeries) -> int:
    """Sum of |c| over the coefficients of s, which must all be ints."""
    mass = sum(map(abs, s.coeffs))  # an int exactly when every coefficient is one
    if not isinstance(mass, int):
        raise ParameterError(f"{s!r} has a coefficient that is not an integer")
    return mass


def _code(e, radix: int) -> int:
    code = 0
    for x in e:
        code = code * radix + x
    return code


@lru_cache(maxsize=None)
def _exponents(nvars: int, maxdeg: int) -> dict:
    """code -> exponent tuple, for every tuple within the cap."""
    radix = 2 * maxdeg + 1
    return {_code(e, radix): e for e in product(range(maxdeg + 1), repeat=nvars)}


def _pack(coeffs: dict, mass: int) -> tuple:
    """(bits, mass, packed terms) for {code: int coefficients} of this mass."""
    bits = _bits_for(mass)
    return bits, mass, {code: r for code, cs in coeffs.items() if (r := pack(cs, bits))}


class MultiPoly:
    """Polynomial with integer QSeries coefficients, capped at maxdeg per
    variable, stored as packed residues (module docstring)."""

    __slots__ = ("nvars", "maxdeg", "order", "bits", "mass", "_terms", "_digits")

    def __init__(self, nvars: int, maxdeg: int, order: int, terms=None):
        check_count(nvars, "nvars")
        check_count(maxdeg, "maxdeg")
        check_order(order)
        radix = 2 * maxdeg + 1
        clean: dict[int, QSeries] = {}
        for e, s in (terms or {}).items():
            e = tuple(e)
            if len(e) != nvars or any(not isinstance(x, int) or x < 0 for x in e):
                raise ParameterError(f"bad exponent {e} for nvars={nvars}")
            if any(x > maxdeg for x in e):
                raise ParameterError(f"exponent {e} exceeds maxdeg={maxdeg}")
            if not isinstance(s, QSeries):
                raise ParameterError(f"coefficient at {e} is not a QSeries")
            if s.order != order:
                raise OrderMismatchError(
                    f"coefficient at {e} has order {s.order}, expected {order}"
                )
            clean[_code(e, radix)] = s
        mass = sum(map(_series_mass, clean.values()))
        coeffs = {code: s.coeffs for code, s in clean.items()}
        self._set(nvars, maxdeg, order, *_pack(coeffs, mass))

    def _set(self, nvars, maxdeg, order, bits, mass, terms, digits=None):
        values = (nvars, maxdeg, order, bits, mass, terms, digits)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _make(self, bits: int, mass: int, terms: dict, nvars=None) -> "MultiPoly":
        """A polynomial of this shape (or nvars) from trusted packed terms."""
        out = object.__new__(MultiPoly)
        nv = self.nvars if nvars is None else nvars
        out._set(nv, self.maxdeg, self.order, bits, mass, terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls, nvars: int, maxdeg: int, order: int) -> "MultiPoly":
        return cls(nvars, maxdeg, order)

    @classmethod
    def one(cls, nvars: int, maxdeg: int, order: int) -> "MultiPoly":
        return cls(nvars, maxdeg, order, {(0,) * nvars: QSeries.one(order)})

    def _at(self, bits: int) -> dict:
        """The packed terms at a width of at least self.bits, in a new dict."""
        return {code: repack(r, self.bits, bits, self.order) for code, r in self._terms.items()}

    def _series(self, residue: int) -> QSeries:
        return QSeries(self.order, unpack(residue, self.bits, self.order))

    def coeff(self, e) -> QSeries:
        e = tuple(e)
        if len(e) != self.nvars:
            raise ParameterError(f"exponent {e} has wrong arity for nvars={self.nvars}")
        if any(not 0 <= x <= self.maxdeg for x in e):
            return QSeries.zero(self.order)
        residue = self._terms.get(_code(e, 2 * self.maxdeg + 1))
        return QSeries.zero(self.order) if residue is None else self._series(residue)

    def terms(self):
        """Pairs (exponent tuple, QSeries) in sorted exponent order."""
        table = _exponents(self.nvars, self.maxdeg)
        return tuple((table[c], self._series(r)) for c, r in sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def _require_compatible(self, other: "MultiPoly"):
        if (self.nvars, self.maxdeg, self.order) != (
            other.nvars,
            other.maxdeg,
            other.order,
        ):
            raise OrderMismatchError(
                f"incompatible shapes {(self.nvars, self.maxdeg, self.order)} "
                f"vs {(other.nvars, other.maxdeg, other.order)}"
            )

    def _widths(self, other: "MultiPoly", mass: int):
        """Both operands' terms at one width that holds the result's mass."""
        bits = max(self.bits, other.bits, _bits_for(mass))
        return bits, self._at(bits), other._at(bits)

    def _plus(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        self._require_compatible(other)
        mass = self.mass + other.mass
        bits, merged, b = self._widths(other, mass)
        mask = layout(bits, self.order)[0]
        for code, r in b.items():
            value = (merged.get(code, 0) + sign * r) & mask
            if value:
                merged[code] = value
            else:
                merged.pop(code, None)
        return self._make(bits, mass, merged)

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self):
        mask = layout(self.bits, self.order)[0]
        return self._make(self.bits, self.mass, {c: -r & mask for c, r in self._terms.items()})

    def _scaled(self, factor: int, mass: int, bits: int) -> "MultiPoly":
        """Every term times factor: an int, or a series packed at bits."""
        mask = layout(bits, self.order)[0]
        terms = {c: v for c, r in self._at(bits).items() if (v := r * factor & mask)}
        return self._make(bits, mass, terms)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            if other.order != self.order:
                raise OrderMismatchError(f"order mismatch: {self.order} vs {other.order}")
            series_mass = _series_mass(other)
            mass = self.mass * series_mass
            # the width must hold the packed factor too, even when self is zero
            bits = max(self.bits, _bits_for(max(mass, series_mass)))
            return self._scaled(pack(other.coeffs, bits), mass, bits)
        if isinstance(other, int):
            mass = self.mass * abs(other)
            return self._scaled(other, mass, max(self.bits, _bits_for(mass)))
        if isinstance(other, Fraction):
            raise ParameterError(f"MultiPoly scalars must be integers, got {other!r}")
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_compatible(other)
        mass = self.mass * other.mass
        bits = max(self.bits, other.bits, _bits_for(mass))
        valid = _exponents(self.nvars, self.maxdeg)
        out: dict[int, int] = {}
        get = out.get
        dense, linear = (self, other) if other._digits is not None else (other, self)
        if linear._digits is not None:
            # each term product is a few shifted, signed copies of a residue
            shifts = [
                (c2, [(bits * t, sign) for t, sign in ds]) for c2, ds in linear._digits.items()
            ]
            for c1, r1 in dense._at(bits).items():
                for c2, ds in shifts:
                    c = c1 + c2
                    if c in valid:
                        value = get(c, 0)
                        for shift, sign in ds:
                            if sign > 0:
                                value += r1 << shift
                            else:
                                value -= r1 << shift
                        out[c] = value
        else:
            a, b = self._at(bits), other._at(bits)
            for c1, r1 in a.items():
                for c2, r2 in b.items():
                    c = c1 + c2
                    if c in valid:
                        out[c] = get(c, 0) + r1 * r2
        mask = layout(bits, self.order)[0]
        return self._make(bits, mass, {c: v for c, r in out.items() if (v := r & mask)})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QSeries)):
            return self.__mul__(other)
        return NotImplemented

    def embed(self, nvars_new: int, positions) -> "MultiPoly":
        """Send variable j to slot positions[j] of a wider polynomial."""
        positions = tuple(positions)
        if len(positions) != self.nvars or len(set(positions)) != self.nvars:
            raise ParameterError(f"positions {positions} must be {self.nvars} distinct slots")
        if any(not isinstance(p, int) or not 0 <= p < nvars_new for p in positions):
            raise ParameterError(f"positions {positions} out of range for nvars={nvars_new}")
        table, radix = _exponents(self.nvars, self.maxdeg), 2 * self.maxdeg + 1
        out: dict[int, int] = {}
        for c, r in self._terms.items():
            new_e = [0] * nvars_new
            for j, x in enumerate(table[c]):
                new_e[positions[j]] = x
            out[_code(new_e, radix)] = r
        return self._make(self.bits, self.mass, out, nvars=nvars_new)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if (self.nvars, self.maxdeg, self.order) != (other.nvars, other.maxdeg, other.order):
            return False
        _, a, b = self._widths(other, self.mass + other.mass)
        return a == b

    def __hash__(self):
        return hash((self.nvars, self.maxdeg, self.order, tuple(sorted(self._terms))))

    def __repr__(self):
        return (
            f"MultiPoly(nvars={self.nvars}, maxdeg={self.maxdeg}, "
            f"order={self.order}, {len(self._terms)} terms)"
        )


def _unit_exp(nvars: int, i: int) -> tuple:
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


def _poly(nvars: int, maxdeg: int, order: int, entries) -> MultiPoly:
    """Build from (exponent, QSeries) pairs, silently truncating past maxdeg."""
    terms: dict[tuple, QSeries] = {}
    for e, s in entries:
        e = tuple(e)
        if any(x > maxdeg for x in e):
            continue
        terms[e] = terms[e] + s if e in terms else s
    return MultiPoly(nvars, maxdeg, order, terms)


def _linear(nvars: int, maxdeg: int, order: int, entries) -> MultiPoly:
    """Build from (exponent, ((t, sign), ...)) pairs, the coefficient being
    the sum of sign q^t, silently dropping exponents past maxdeg and t past
    order.  The digits are kept for the shift path of products; mass is
    their count."""
    radix = 2 * maxdeg + 1
    digits: dict[int, list] = {}
    for e, ds in entries:
        if max(e, default=0) <= maxdeg:
            digits.setdefault(_code(e, radix), []).extend(d for d in ds if d[0] <= order)
    mass = sum(map(len, digits.values()))
    bits = _bits_for(mass)
    mask = layout(bits, order)[0]
    terms = {c: r for c, ds in digits.items() if (r := sum(s << bits * t for t, s in ds) & mask)}
    out = object.__new__(MultiPoly)
    out._set(nvars, maxdeg, order, bits, mass, terms, {c: digits[c] for c in terms})
    return out


def _bracket(n: int) -> tuple:
    return ((0, 1), (n, -1))  # the digits of 1 - q^n


_MINUS_ONE = ((0, -1),)


def _pair_cap(nvars: int, maxdeg: int, order: int, N: int, vy: int, vx: int) -> MultiPoly:
    # (1 - q^N) - u_vy - u_vx + u_vy u_vx; the two-variable top-boundary factor
    ey, ex = _unit_exp(nvars, vy), _unit_exp(nvars, vx)
    both = tuple(a + b for a, b in zip(ey, ex))
    return _linear(
        nvars,
        maxdeg,
        order,
        [((0,) * nvars, _bracket(N)), (ey, _MINUS_ONE), (ex, _MINUS_ONE), (both, ((0, 1),))],
    )


def xi_genfun(eps: int, M: int, N: int, r: int, maxdeg: int, order: int) -> MultiPoly:
    """Generating function of xi values: coefficient at e is xi(eps, e+1).

    Every leaf comes from one call of the models walker over all
    (maxdeg + 1)^(2r) pair indices, which shares the slots that leaves
    have in common at their ends, at a width that is a multiple of 32.  The
    polynomial's mass is the exact L1 norm, read from each leaf's digit sum,
    and series.repack moves every leaf to the width that mass needs, so no
    leaf is decoded (module docstring).  The leaves are not kept in the
    models cache."""
    check_eps(eps)
    check_window(M, N)
    check_count(r, "r")
    check_count(maxdeg, "maxdeg")
    return _xi_genfun(eps, M, N, r, maxdeg, order)


@lru_cache(maxsize=None)
def _xi_genfun(eps, M, N, r, maxdeg, order):
    table = _exponents(2 * r, maxdeg)
    cs = (tuple(x + 1 for x in e) for e in table.values())
    bits, walks = xi_packed(eps, cs, N=N, M=M, order=order)
    # nonnegative digits whose sum lies below 2^(bits - 1): the digit sum,
    # the residue mod 2^bits - 1, is each leaf's L1 norm
    ones = (1 << bits) - 1
    leaves = {code: walk for code, walk in zip(table, walks) if walk}
    mass = sum(walk % ones for walk in leaves.values())
    out = _bits_for(mass)
    leaves = {code: repack(walk, bits, out, order) for code, walk in leaves.items()}
    return MultiPoly.zero(2 * r, maxdeg, order)._make(out, mass, leaves)


def boundary_scaled(gp: MultiPoly, N: int) -> MultiPoly:
    """Multiply by one top-boundary factor per variable pair."""
    if gp.nvars % 2:
        raise ParameterError(f"need an even variable count, got {gp.nvars}")
    out = gp
    for i in range(gp.nvars // 2):
        out = out * _pair_cap(gp.nvars, gp.maxdeg, gp.order, N, 2 * i, 2 * i + 1)
    return out


def difference_kernels(eps: int, M: int, N: int, maxdeg: int, order: int):
    """The two geometric kernels of the window-shift identity.

    Returns (row, corner): row is univariate in the height variable off the
    inner boundary, corner is bivariate in (entry, height).  Both are plain
    truncated expansions; the shift identity relates their differences.
    """
    check_eps(eps)
    check_window(M, N, least=1)
    check_count(maxdeg, "maxdeg")

    one = QSeries.one(order)
    row = _poly(
        1, maxdeg, order, [((t,), inv_bracket_pow(N - M, t, order)) for t in range(maxdeg + 1)]
    )
    if eps:
        row = row * _poly(1, maxdeg, order, [((0,), one), ((1,), kernel(M, M, 1, order))])

    geo_height = _poly(
        2, maxdeg, order, [((0, t), inv_bracket_pow(N - M, t, order)) for t in range(maxdeg + 1)]
    )
    geo_entry = _poly(
        2, maxdeg, order, [((t, 0), inv_bracket_pow(M, t + 1, order)) for t in range(maxdeg + 1)]
    )
    cap = _pair_cap(2, maxdeg, order, N, 1, 0)
    corner = geo_height * cap * geo_entry * kernel(M, M, eps, order)
    return row, corner


def compare_polys(identity: str, params: dict, lhs: MultiPoly, rhs: MultiPoly) -> Report:
    """Report equality, witnessing the first mismatched (exponent, q-power)."""
    if (lhs.nvars, lhs.maxdeg, lhs.order) != (rhs.nvars, rhs.maxdeg, rhs.order):
        witness = {
            "reason": "shape mismatch",
            "lhs": (lhs.nvars, lhs.maxdeg, lhs.order),
            "rhs": (rhs.nvars, rhs.maxdeg, rhs.order),
        }
        return Report(identity, params, "fail", witness)
    if lhs == rhs:
        return Report(identity, params, "pass")
    a, b = dict(lhs.terms()), dict(rhs.terms())
    zero = QSeries.zero(lhs.order)
    e = next(e for e in sorted(a.keys() | b.keys()) if a.get(e, zero) != b.get(e, zero))
    x, y = a.get(e, zero).coeffs, b.get(e, zero).coeffs
    m = next(m for m in range(lhs.order + 1) if x[m] != y[m])
    witness = {"exponent": list(e), "q_power": m, "lhs": str(x[m]), "rhs": str(y[m])}
    return Report(identity, params, "fail", witness)


def verify_b_diff(eps: int, M: int, N: int, maxdeg: int, order: int) -> Report:
    """Differences of the corner kernel reduce to differences of the row kernel."""
    params = {"eps": eps, "M": M, "N": N, "maxdeg": maxdeg, "order": order}
    row, corner = difference_kernels(eps, M, N, maxdeg, order)
    # three slots: 0 = entry variable, 1 and 2 = the two height arguments
    lhs = corner.embed(3, (0, 1)) - corner.embed(3, (0, 2))
    rhs = (row.embed(3, (1,)) - row.embed(3, (2,))) * kernel(N, N, eps, order)
    return compare_polys("b-diff", params, lhs, rhs)


def verify_g_diff(eps: int, M: int, N: int, r: int, maxdeg: int, order: int) -> Report:
    """Peeling the inner boundary down one level, cross-multiplied.

    (b(N-M) - u1)(b(M) - u2) * F[M-1,N] agrees with
    b(N-M)(b(M) - u2)(1 + q^M u1 / b(M))^eps * F[M,N]
    + b(N-M) q^M / b(M)^eps * F[M,N] with the first pair of variables deleted,
    writing b(n) for 1 - q^n and F for xi_genfun.
    """
    check_window(M, N, least=1)
    check_count(r, "r", least=1)
    params = {"eps": eps, "M": M, "N": N, "r": r, "maxdeg": maxdeg, "order": order}
    nv = 2 * r
    zero = (0,) * nv
    peel_y = _linear(nv, maxdeg, order, [(zero, _bracket(N - M)), (_unit_exp(nv, 0), _MINUS_ONE)])
    peel_x = _linear(nv, maxdeg, order, [(zero, _bracket(M)), (_unit_exp(nv, 1), _MINUS_ONE)])
    lhs = peel_y * peel_x * xi_genfun(eps, M - 1, N, r, maxdeg, order)

    full = xi_genfun(eps, M, N, r, maxdeg, order)
    term = peel_x * full
    if eps:
        lift = kernel(M, M, 1, order)
        term = term * _poly(nv, maxdeg, order, [(zero, QSeries.one(order)), (_unit_exp(nv, 0), lift)])
    dropped = xi_genfun(eps, M, N, r - 1, maxdeg, order).embed(nv, tuple(range(2, nv)))
    closing = _linear(nv, maxdeg, order, [(zero, _bracket(N - M))])
    rhs = (term + dropped * kernel(M, M, eps, order)) * closing
    return compare_polys("g-diff", params, lhs, rhs)


def verify_recurrence(eps: int, M: int, N: int, r: int, maxdeg: int, order: int) -> Report:
    """Raising the top boundary one level, cross-multiplied.

    The product of the chained two-variable boundary factors against the
    window raised to N+1 agrees with (q^M - q^N) times the signed sum, over
    partial domino covers T, of the boundary-scaled genfun on the surviving
    variables, weighted by (q^N / (1-q^N)^eps)^(covered pairs).
    """
    check_eps(eps)
    check_window(M, N)
    check_count(r, "r")
    params = {"eps": eps, "M": M, "N": N, "r": r, "maxdeg": maxdeg, "order": order}
    nv = 2 * r
    zero = (0,) * nv
    # q^M - q^N, valid for M = 0 too; never a unit, so both sides carry it
    window_gap = _linear(nv, maxdeg, order, [(zero, ((M, 1), (N, -1)))])

    lhs = xi_genfun(eps, M, N + 1, r, maxdeg, order)
    if r == 0:
        lhs = lhs * window_gap
    else:
        gap = ((zero, ((M, 1), (N, -1))), (_unit_exp(nv, 0), ((M, -1),)))
        lhs = lhs * _linear(nv, maxdeg, order, gap)
        for i in range(1, r):
            lhs = lhs * _pair_cap(nv, maxdeg, order, N, 2 * i - 1, 2 * i)
        lhs = lhs * _linear(
            nv, maxdeg, order, [(zero, _bracket(N)), (_unit_exp(nv, nv - 1), _MINUS_ONE)]
        )

    total = MultiPoly.zero(nv, maxdeg, order)
    scaled = {}  # kappa(T) -> the boundary-scaled genfun on r - kappa(T) pairs
    for T in tilings(r):
        kap = kappa(T)
        small = scaled.get(kap)
        if small is None:
            small = scaled[kap] = boundary_scaled(xi_genfun(eps, M, N, r - kap, maxdeg, order), N)
        survivors = tuple(p - 1 for p in range(1, nv + 1) if p not in set(T))
        scalar = kernel(N * kap, N, eps * kap, order)
        sign = (-1) ** eo_count(T)
        total = total + small.embed(nv, survivors) * (scalar * sign)
    rhs = total * window_gap
    return compare_polys("recurrence", params, lhs, rhs)
