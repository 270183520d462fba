"""Desk-scale verification suite: every identity, bounded grids, exact math.

Each verifier compares two independently computed sides and returns a Report;
run_suite enumerates all instances inside a SuiteConfig's bounds.  Failures
are data, not exceptions, and carry a coefficient-level witness; a case whose
check raises becomes an "error" report naming the exception, and the run goes
on.  The case list is generated in a fixed order and run serially in that
order, so identical configs produce byte-identical JSON.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, NamedTuple

from .constructor import (
    classical_expansion_word,
    expansion_word,
    bz_word,
    reverse_pairs,
)
from .errors import ParameterError
from .genfun import verify_b_diff, verify_g_diff, verify_recurrence
from .models import (
    check_q_sample,
    classical_zeta_blocks,
    classical_zeta_diamond,
    verify_bridge,
    xi_value,
    z_map,
    zeta_dagger_finite,
    zeta_diamond_finite,
    zeta_infinite,
    zeta_reflected_blocks,
)
from .report import Report, compare_series
from .transforms import verify_transform
from .words import (
    BarIndex,
    bar_from_pairs,
    check_count,
    check_index,
    check_pairs,
    diamond_from_pairs,
    interleave_pairs,
    word_from_index,
)


# -- instance enumeration -----------------------------------------------------------


def pair_indices(max_weight: int) -> list:
    """Flattened pair tuples (even length, entries >= 1) with sum <= max_weight."""
    out = [()]

    def extend(prefix, budget):
        for l in range(1, budget):
            for k in range(1, budget - l + 1):
                cur = prefix + (l, k)
                out.append(cur)
                extend(cur, budget - l - k)

    extend((), max_weight)
    return out


def plain_indices(max_weight: int) -> list:
    """Index tuples (entries >= 1) with sum <= max_weight, the empty one first."""
    out = [()]

    def extend(prefix, budget):
        for k in range(1, budget + 1):
            cur = prefix + (k,)
            out.append(cur)
            extend(cur, budget - k)

    extend((), max_weight)
    return out


# -- single-identity verifiers ------------------------------------------------------


def verify_main_finite(eps: int, c, N: int, order: int) -> Report:
    """Nested-sum value vs evaluated constructed word, window (0, N)."""
    c = check_pairs(c)
    params = {"eps": eps, "c": c, "N": N, "order": order}
    lhs = xi_value(eps, c, N=N, order=order)
    rhs = z_map("dagger_finite", expansion_word(eps, c), N=N, order=order)
    return compare_series("main-finite", params, lhs, rhs)


def verify_main_finite_bz(c, N: int, order: int, qsamples=()) -> Report:
    """Strict-model side: series equality plus rational-point sign bridges."""
    c = check_pairs(c)
    qsamples = tuple(check_q_sample(q) for q in qsamples)
    params = {
        "c": c,
        "N": N,
        "order": order,
        "q_samples": tuple(str(q) for q in qsamples),
    }
    word = bz_word(c)
    lhs = zeta_diamond_finite("bz", diamond_from_pairs(c), N=N, order=order)
    rhs = z_map("bz_finite", word, N=N, order=order)
    series_report = compare_series("main-finite-bz", params, lhs, rhs)
    if not series_report.passed:
        return series_report
    for q in qsamples:
        for w, _ in word.terms():
            bridge = verify_bridge(w, N, q)
            if not bridge.passed:
                witness = dict(bridge.witness or {})
                witness.update({"word": w, "q": str(q)})
                return Report("main-finite-bz", params, "fail", witness)
    return Report("main-finite-bz", params, "pass")


def verify_main_infinite(side: str, c, order: int) -> Report:
    """Limit statement, checked on the independent infinite evaluators."""
    c = check_pairs(c)
    params = {"side": side, "c": c, "order": order}
    if side == "dagger":
        lhs = zeta_infinite("dagger", bar_from_pairs(c), order=order)
        rhs = z_map("dagger_inf", expansion_word(0, c), order=order)
    elif side == "bz":
        lhs = zeta_infinite("bz", diamond_from_pairs(c), order=order)
        rhs = z_map("bz_inf", bz_word(c), order=order)
    else:
        raise ParameterError(f"side must be 'dagger' or 'bz', got {side!r}")
    return compare_series("main-infinite", params, lhs, rhs)


def verify_remarks(kind: str, l, k, N: int, order: int) -> Report:
    """Reversal dualities of the finite models and the weak-block reflection."""
    kind = kind.replace("_", "-")
    if kind == "dual-flat":
        c = interleave_pairs(l, k)
        params = {"kind": kind, "c": c, "N": N, "order": order}
        lhs = zeta_dagger_finite(bar_from_pairs(c), N=N, order=order)
        rhs = zeta_dagger_finite(bar_from_pairs(reverse_pairs(c)), N=N, order=order)
        return compare_series("dual-flat", params, lhs, rhs)
    if kind == "dual-diamond":
        c = interleave_pairs(l, k)
        params = {"kind": kind, "c": c, "N": N, "order": order}
        lhs = zeta_diamond_finite("bz", diamond_from_pairs(c), N=N, order=order)
        rhs = zeta_diamond_finite(
            "bz", diamond_from_pairs(reverse_pairs(c)), N=N, order=order
        )
        return compare_series("dual-diamond", params, lhs, rhs)
    if kind == "qmsw":
        if l is not None:
            raise ParameterError("qmsw takes l = None")
        k = check_index(k)
        params = {"kind": kind, "k": k, "N": N, "order": order}
        lhs = zeta_dagger_finite(BarIndex(k), N=N, order=order)
        rhs = zeta_reflected_blocks(k, N=N, order=order)
        return compare_series("qmsw", params, lhs, rhs)
    raise ParameterError(f"unknown remark kind {kind!r}")


def verify_classical(c, N: int) -> Report:
    """Exact rational check of both classical-limit statements."""
    c = check_pairs(c)
    params = {"c": c, "N": N}
    lhs_plain = classical_zeta_blocks(c, N)
    rhs_plain = z_map("classical", classical_expansion_word(0, c), N=N)
    if lhs_plain != rhs_plain:
        witness = {"side": "plain", "lhs": str(lhs_plain), "rhs": str(rhs_plain)}
        return Report("classical", params, "fail", witness)
    lhs_diamond = classical_zeta_diamond(diamond_from_pairs(c), N)
    rhs_diamond = z_map("classical", classical_expansion_word(1, c), N=N)
    if lhs_diamond != rhs_diamond:
        witness = {"side": "diamond", "lhs": str(lhs_diamond), "rhs": str(rhs_diamond)}
        return Report("classical", params, "fail", witness)
    return Report("classical", params, "pass")


# -- injectivity evidence -----------------------------------------------------------


def exact_rank(matrix) -> int:
    """Row rank over the rationals by fraction-exact forward elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        prow = [x * inv for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def independence_check(model: str, max_weight: int, N_list, order: int) -> Report:
    """Full row rank of the word-to-coefficient matrix: evidence, not proof."""
    if model not in ("dagger_finite", "bz_finite"):
        raise ParameterError(f"model must be a finite model, got {model!r}")
    N_list = tuple(N_list)
    words = plain_indices(max_weight)
    params = {
        "model": model,
        "max_weight": max_weight,
        "N_list": N_list,
        "order": order,
    }
    matrix = []
    for k in words:
        word = word_from_index(k)
        row = []
        for N in N_list:
            row.extend(z_map(model, word, N=N, order=order).coeffs)
        matrix.append(row)
    rank = exact_rank(matrix)
    expected = len(words)
    status = "pass" if rank == expected else "fail"
    witness = {"rank": rank, "expected": expected, "evidence": "desk scale only"}
    return Report("independence", params, status, witness)


# -- the identity registry ----------------------------------------------------------


class Identity(NamedTuple):
    """One identity family: its parameters in call order, each named after
    the `qmzv verify` flag that carries it, and the check they are passed to."""

    params: tuple
    check: Callable[..., Report]


# Each check looks its verifier up by name when it is called, never holding
# the function object, so a verifier replaced on this module (by a tracer,
# say) is the one that runs.
IDENTITIES = {
    "main-finite": Identity(("eps", "c", "N", "order"), lambda *a: verify_main_finite(*a)),
    "main-finite-bz": Identity(("c", "N", "order", "q"), lambda *a: verify_main_finite_bz(*a)),
    "main-infinite": Identity(("side", "c", "order"), lambda *a: verify_main_infinite(*a)),
    "g-diff": Identity(("eps", "M", "N", "r", "maxdeg", "order"), lambda *a: verify_g_diff(*a)),
    "recurrence": Identity(
        ("eps", "M", "N", "r", "maxdeg", "order"), lambda *a: verify_recurrence(*a)
    ),
    "b-diff": Identity(("eps", "M", "N", "maxdeg", "order"), lambda *a: verify_b_diff(*a)),
    "transform": Identity(("which", "l", "k", "order"), lambda *a: verify_transform(*a)),
    "dual-flat": Identity(("l", "k", "N", "order"), lambda *a: verify_remarks("dual-flat", *a)),
    "dual-diamond": Identity(
        ("l", "k", "N", "order"), lambda *a: verify_remarks("dual-diamond", *a)
    ),
    "qmsw": Identity(("k", "N", "order"), lambda *a: verify_remarks("qmsw", None, *a)),
    "classical": Identity(("c", "N"), lambda *a: verify_classical(*a)),
    "bridge": Identity(("word", "N", "q"), lambda *a: verify_bridge(*a)),
    "independence": Identity(
        ("model", "max_weight", "N_list", "order"), lambda *a: independence_check(*a)
    ),
}


# -- suite --------------------------------------------------------------------------


_DEFAULT_Q_SAMPLES = ("2", "1/2", "3", "-2", "5/7")


@dataclass(frozen=True)
class SuiteConfig:
    max_weight: int = 5
    max_N: int = 6
    order: int = 20
    maxdeg: int = 2
    max_r: int = 2
    rational_q_samples: tuple = _DEFAULT_Q_SAMPLES

    def __post_init__(self):
        for name in ("max_weight", "order", "maxdeg", "max_r"):
            check_count(getattr(self, name), name)
        check_count(self.max_N, "max_N", least=1)
        samples = self.rational_q_samples
        if not isinstance(samples, (list, tuple)):
            raise ParameterError(f"rational_q_samples must be a list, got {samples!r}")
        try:
            samples = tuple(check_q_sample(Fraction(str(q))) for q in samples)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"bad rational in rational_q_samples {samples!r}") from None
        object.__setattr__(self, "rational_q_samples", samples)


def config_from_mapping(data: dict) -> SuiteConfig:
    """A SuiteConfig from its fields.  The retired key 'parallelism' is
    accepted so old configs keep loading; it is ignored with a warning."""
    data = dict(data)
    if "parallelism" in data:
        del data["parallelism"]
        warnings.warn("config key 'parallelism' is ignored: the suite runs serially")
    unknown = set(data) - {f.name for f in fields(SuiteConfig)}
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return SuiteConfig(**data)


def config_from_json(text: str) -> SuiteConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParameterError("config must be a flat JSON object")
    return config_from_mapping(data)


def _enumerate_cases(cfg: SuiteConfig):
    """Fixed-order list of (identity, args) pairs covering every family;
    IDENTITIES[identity].check(*args) runs one case."""
    cases = []

    def add(identity, *args):
        cases.append((identity, args))

    pairs = pair_indices(cfg.max_weight)
    plains = plain_indices(cfg.max_weight)
    o = cfg.order

    for c in pairs:
        for N in range(1, cfg.max_N + 1):
            for eps in (0, 1):
                add("main-finite", eps, c, N, o)
            add("main-finite-bz", c, N, o, cfg.rational_q_samples)
        for side in ("dagger", "bz"):
            add("main-infinite", side, c, o)

    for eps in (0, 1):
        for N in range(1, cfg.max_N + 1):
            for M in range(0, N):
                for r in range(0, cfg.max_r + 1):
                    if M >= 1 and r >= 1:
                        add("g-diff", eps, M, N, r, cfg.maxdeg, o)
                    add("recurrence", eps, M, N, r, cfg.maxdeg, o)
                if M >= 1:
                    add("b-diff", eps, M, N, cfg.maxdeg, o)

    for c in pairs:
        if not c:
            continue
        if len(c) // 2 > cfg.max_r:
            continue
        l, k = c[0::2], c[1::2]
        add("transform", 1, l, k, o)
        add("transform", 3, l, k, o)
    for k in plains:
        if k and len(k) <= cfg.max_r:
            add("transform", 2, None, k, o)
            add("transform", 4, None, k, o)

    for c in pairs:
        l, k = c[0::2], c[1::2]
        for N in range(1, cfg.max_N + 1):
            add("dual-flat", l, k, N, o)
            add("dual-diamond", l, k, N, o)
    for k in plains:
        for N in range(1, cfg.max_N + 1):
            add("qmsw", k, N, o)

    for c in pairs:
        for N in range(1, cfg.max_N + 1):
            add("classical", c, N)

    for k in plains:
        w = word_from_index(k)
        for N in range(1, min(cfg.max_N, 5) + 1):
            for q in cfg.rational_q_samples:
                add("bridge", w, N, q)

    # Rank evidence needs windows up to 6 and order >= 10 to separate the
    # weight <= 4 words, so this case keeps its own floor under small configs.
    iw = min(cfg.max_weight, 4)
    ilist = tuple(range(1, 7))
    for model in ("dagger_finite", "bz_finite"):
        add("independence", model, iw, ilist, max(o, 12))
    return cases


def _run_case(name: str, args: tuple) -> Report:
    """One case's report; an exception in its check becomes an error report."""
    identity = IDENTITIES[name]
    try:
        return identity.check(*args)
    except Exception as exc:  # one broken case must not end the run
        params = dict(zip(identity.params, args))
        return Report(name, params, "error", {"type": type(exc).__name__, "message": str(exc)})


def run_suite(cfg: SuiteConfig, filter_identity: str | None = None):
    """Run every case, merge reports in enumeration order, summarize.

    Returns (reports, summary).  Failures and errors are carried as data;
    the summary's "failed" count, which includes the errors, is what drives
    exit status upstream.
    """
    if filter_identity is not None and filter_identity not in IDENTITIES:
        raise ParameterError(
            f"unknown identity {filter_identity!r}; choose one of {tuple(IDENTITIES)}"
        )
    cases = _enumerate_cases(cfg)
    if filter_identity is not None:
        cases = [(name, args) for name, args in cases if name == filter_identity]
    reports = [_run_case(name, args) for name, args in cases]

    by_identity: dict[str, dict] = {}
    for r in reports:
        slot = by_identity.setdefault(r.identity, {"cases": 0, "failed": 0})
        slot["cases"] += 1
        slot["failed"] += 0 if r.passed else 1
    summary = {
        "cases": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": sum(1 for r in reports if not r.passed),
        "identities": by_identity,
    }
    return reports, summary
