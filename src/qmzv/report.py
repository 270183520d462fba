"""Pass/fail reports for identity checks.

A Report names the identity instance that was checked, carries the parameters
that pin it down, and on failure a witness: the first place the two sides
disagree, with both exact values rendered as strings.  Reports serialize to
JSON deterministically (insertion order of the params dict is preserved), so
identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .series import QSeries


@dataclass(frozen=True)
class Report:
    identity: str
    params: dict
    status: str  # "pass", "fail", or "error" (the check raised); only "pass" passes
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _jsonify(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def report_to_json(r: Report) -> dict:
    return {
        "identity": r.identity,
        "params": _jsonify(r.params),
        "status": r.status,
        "witness": _jsonify(r.witness),
    }


def reports_to_json(reports) -> str:
    return json.dumps([report_to_json(r) for r in reports], indent=2)


def format_report(r: Report) -> str:
    params = " ".join(f"{k}={v}" for k, v in _jsonify(r.params).items())
    head = f"{r.status.upper()} {r.identity} {params}".rstrip()
    if r.witness is None:
        return head
    detail = " ".join(f"{k}={v}" for k, v in _jsonify(r.witness).items())
    return f"{head} | {detail}"


def compare_series(identity: str, params: dict, lhs: QSeries, rhs: QSeries) -> Report:
    """Report equality of two series, witnessing the first mismatched exponent."""
    if lhs.order != rhs.order:
        witness = {"reason": "order mismatch", "lhs": lhs.order, "rhs": rhs.order}
        return Report(identity, params, "fail", witness)
    for m in range(lhs.order + 1):
        a, b = lhs.coeffs[m], rhs.coeffs[m]
        if a != b:
            return Report(
                identity,
                params,
                "fail",
                {"exponent": m, "lhs": str(a), "rhs": str(b)},
            )
    return Report(identity, params, "pass")


def compare_values(identity: str, params: dict, lhs, rhs) -> Report:
    """Report equality of two exact rationals."""
    if lhs != rhs:
        return Report(identity, params, "fail", {"lhs": str(lhs), "rhs": str(rhs)})
    return Report(identity, params, "pass")
