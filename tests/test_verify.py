"""Suite-level checks: single verifiers, config handling, determinism,
rank evidence against an independent oracle, and sign-mutation detection."""

import hashlib
import json
from fractions import Fraction

import pytest
import sympy

from qmzv import constructor, models, verify
from qmzv.errors import ParameterError
from qmzv.models import z_map
from qmzv.report import format_report, reports_to_json
from qmzv.verify import (
    IDENTITIES,
    SuiteConfig,
    _enumerate_cases,
    config_from_json,
    config_from_mapping,
    exact_rank,
    independence_check,
    pair_indices,
    plain_indices,
    run_suite,
    verify_classical,
    verify_main_finite,
    verify_main_finite_bz,
    verify_main_infinite,
    verify_remarks,
)
from qmzv.words import diamond_from_pairs, word_from_index


SMALL = SuiteConfig(max_weight=3, max_N=3, order=10, maxdeg=2, max_r=1)


def test_enumerators():
    assert len(pair_indices(5)) == 16
    assert len(pair_indices(6)) == 32
    assert plain_indices(2) == [(), (1,), (1, 1), (2,)]
    assert len(plain_indices(4)) == 16


def test_single_verifiers_pass():
    assert verify_main_finite(0, (2, 1), 2, 12).passed
    assert verify_main_finite(1, (2, 1), 2, 12).passed
    assert verify_main_finite_bz((2, 1), 2, 12, (Fraction(2), Fraction(1, 2))).passed
    assert verify_main_finite_bz((), 3, 8).passed
    assert verify_main_infinite("dagger", (2, 1), 12).passed
    assert verify_main_infinite("bz", (1, 1, 2, 1), 12).passed
    with pytest.raises(ParameterError):
        verify_main_infinite("sz", (2, 1), 12)


def test_remarks_and_classical():
    assert verify_remarks("dual-flat", (1, 2), (2, 1), 3, 15).passed
    assert verify_remarks("dual_diamond", (1, 2), (2, 1), 3, 15).passed
    assert verify_remarks("qmsw", None, (2, 1), 3, 15).passed
    with pytest.raises(ParameterError):
        verify_remarks("qmsw", (1,), (2, 1), 3, 15)
    with pytest.raises(ParameterError):
        verify_remarks("nope", (1,), (1,), 3, 15)
    # a missing index is refused by the index validator, not by tuple()
    for args in (("dual-flat", None, (1,)), ("dual-diamond", (1,), None),
                 ("qmsw", None, None)):
        with pytest.raises(ParameterError, match="must be a sequence"):
            verify_remarks(*args, 3, 5)
    assert verify_classical((2, 1), 4).passed
    assert verify_classical((), 2).passed


def test_main_finite_bz_reports_a_failed_bridge(monkeypatch):
    # the dagger model at a rational point is off by one; the series sides
    # still agree, so the first bridge of the first word carries the witness
    real = models._model_sum

    def skewed(family, entries, low, top, ring, param):
        value = real(family, entries, low, top, ring, param)
        return value + 1 if (family, ring) == ("dagger", models._PointValues) else value

    monkeypatch.setattr(models, "_model_sum", skewed)
    c, N = (2, 1), 3
    r = verify_main_finite_bz(c, N, 8, (Fraction(2), Fraction(1, 2)))
    w = constructor.bz_word(c).terms()[0][0]
    bridge = models.verify_bridge(w, N, 2)
    assert r.status == "fail" and not bridge.passed
    assert r.witness == {**bridge.witness, "word": w, "q": "2"}


@pytest.mark.parametrize("side, name", [
    ("plain", "classical_zeta_blocks"),
    ("diamond", "classical_zeta_diamond"),
])
def test_classical_reports_the_failed_side(monkeypatch, side, name):
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: real(*args) + 1)
    c, N = (2, 1), 4
    r = verify_classical(c, N)
    value = real(c if side == "plain" else diamond_from_pairs(c), N)
    assert r.status == "fail"
    assert r.witness == {"side": side, "lhs": str(value + 1), "rhs": str(value)}


def test_exact_rank_matches_sympy():
    for max_weight, expected in ((0, 1), (1, 2), (2, 4)):
        matrix = []
        for k in plain_indices(max_weight):
            row = []
            for N in range(1, 7):
                row.extend(z_map("dagger_finite", word_from_index(k), N=N, order=12).coeffs)
            matrix.append(row)
        assert exact_rank(matrix) == sympy.Matrix(matrix).rank() == expected


def test_independence_check():
    r = independence_check("dagger_finite", 2, range(1, 7), 12)
    assert r.passed and r.witness["rank"] == 4
    r = independence_check("bz_finite", 2, range(1, 7), 12)
    assert r.passed and r.witness["rank"] == 4
    with pytest.raises(ParameterError):
        independence_check("classical", 2, range(1, 7), 12)


def test_config_validation():
    cfg = SuiteConfig()
    assert cfg.max_weight == 5
    assert cfg.rational_q_samples == (
        Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2), Fraction(5, 7),
    )
    with pytest.raises(ParameterError):
        SuiteConfig(max_N=0)
    with pytest.raises(ParameterError):
        SuiteConfig(rational_q_samples=("1",))
    with pytest.raises(ParameterError):
        SuiteConfig(rational_q_samples=("0",))
    for bad in (("abc",), ("1/0",), 5, "2", None):
        with pytest.raises(ParameterError):
            SuiteConfig(rational_q_samples=bad)
    for name in ("max_weight", "max_N", "order", "maxdeg", "max_r"):
        with pytest.raises(ParameterError):
            SuiteConfig(**{name: True})
    with pytest.raises(ParameterError):
        config_from_json('{"rational_q_samples": ["abc"]}')
    with pytest.raises(ParameterError):
        config_from_json('{"max_weight": true}')


def test_config_from_json():
    cfg = config_from_json('{"max_weight": 2, "rational_q_samples": ["2", "-1/3"]}')
    assert cfg.max_weight == 2 and cfg.max_N == 6
    assert cfg.rational_q_samples == (Fraction(2), Fraction(-1, 3))
    with pytest.raises(ParameterError):
        config_from_json('{"max_weigth": 2}')
    with pytest.raises(ParameterError):
        config_from_json("[1, 2]")
    with pytest.raises(ParameterError):
        config_from_json("{not json")
    with pytest.raises(ParameterError):
        config_from_mapping({"order": -1})


# sha256 of the SMALL suite's JSON report stream; it changes only when a
# report changes, which a refactor must not do
SMALL_SUITE_SHA256 = "d63dbf717ba84d95e1b66f11185a67753abbb3a7bfe6fba11bb052bd06f24141"


def test_small_suite_all_pass():
    reports, summary = run_suite(SMALL)
    assert summary["failed"] == 0
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == SMALL_SUITE_SHA256
    assert summary["cases"] == len(reports) > 200
    assert summary["passed"] == summary["cases"]
    assert set(summary["identities"]) >= {
        "main-finite", "main-finite-bz", "main-infinite", "g-diff", "recurrence",
        "b-diff", "transform", "dual-flat", "dual-diamond", "qmsw", "classical",
        "bridge", "independence",
    }


def test_retired_parallelism_key_is_ignored():
    fields = {"max_weight": 3, "max_N": 3, "order": 10, "maxdeg": 2, "max_r": 1}
    with pytest.warns(UserWarning, match="parallelism"):
        cfg = config_from_mapping({**fields, "parallelism": 4})
    assert cfg == SMALL
    assert reports_to_json(run_suite(cfg)[0]) == reports_to_json(run_suite(SMALL)[0])


def test_suite_filter():
    reports, summary = run_suite(SMALL, filter_identity="classical")
    assert summary["cases"] == len(reports) > 0
    assert {r.identity for r in reports} == {"classical"}
    with pytest.raises(ParameterError):
        run_suite(SMALL, filter_identity="no-such-identity")


def test_identity_registry_matches_enumeration():
    names = {name for name, _ in _enumerate_cases(SuiteConfig())}
    assert len(set(IDENTITIES)) == len(IDENTITIES)
    assert names == set(IDENTITIES)


def test_weight_zero_suite_is_vacuous_but_passes():
    reports, summary = run_suite(SuiteConfig(max_weight=0, max_N=2, order=6, max_r=0))
    assert summary["failed"] == 0
    assert summary["cases"] > 0


def test_corrupted_constructor_fails_suite():
    constructor.clear_cache()
    original = constructor._TERM1_SIGN
    constructor._TERM1_SIGN = -original
    try:
        reports, summary = run_suite(SMALL, filter_identity="main-finite")
        assert summary["failed"] >= 1
        bad = next(r for r in reports if not r.passed)
        assert bad.witness is not None and "exponent" in bad.witness
    finally:
        constructor._TERM1_SIGN = original
        constructor.clear_cache()
    _, summary = run_suite(SMALL, filter_identity="main-finite")
    assert summary["failed"] == 0


def test_summary_structure_json_safe():
    _, summary = run_suite(SuiteConfig(max_weight=2, max_N=2, order=6, max_r=1))
    text = json.dumps(summary)
    assert json.loads(text) == summary


def test_suite_reports_an_exception_and_runs_on(monkeypatch):
    # a case whose check raises becomes an error report; the run finishes
    def broken(c, N):
        if N == 2:
            raise ZeroDivisionError("no room at N = 2")
        return verify_classical(c, N)

    monkeypatch.setitem(IDENTITIES, "classical", verify.Identity(("c", "N"), broken))
    reports, summary = run_suite(SMALL, filter_identity="classical")
    errors = [r for r in reports if r.status == "error"]
    assert errors and all(r.params["N"] == 2 and not r.passed for r in errors)
    assert errors[0].witness == {"type": "ZeroDivisionError", "message": "no room at N = 2"}
    assert format_report(errors[0]).startswith("ERROR classical c=")
    assert summary["cases"] == len(reports) > len(errors)
    assert summary["failed"] == len(errors) == summary["identities"]["classical"]["failed"]
    assert sum(r.passed for r in reports) == summary["passed"] == len(reports) - len(errors)
    doc = json.loads(reports_to_json(errors))[0]
    assert doc["status"] == "error" and doc["witness"]["type"] == "ZeroDivisionError"
