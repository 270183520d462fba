"""End-to-end exit-code contract and output formats of the command shell."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qmzv.cli import _EVAL_MODELS, emit_report, main
from qmzv.report import Report, report_to_json, reports_to_json
from qmzv.series import series_from_json
from qmzv.verify import IDENTITIES, SuiteConfig, _enumerate_cases, run_suite
from qmzv.words import element_from_json, AlgebraElement


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_cli_lines():
    """(command, expected output or None) for each `qmzv eval|word|transform|
    verify` line of the README's CLI block; a `# -> value` comment, on the
    line or the one after it, gives the expected output."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0].splitlines()
    out = []
    for line, after in zip(lines, lines[1:] + [""]):
        command, _, comment = line.partition("#")
        if not re.match(r"qmzv (eval|word|transform|verify) ", command):
            continue
        note = (comment if comment.strip() else after.strip().removeprefix("#")).strip()
        expected = note.removeprefix("->").strip() if note.startswith("->") else None
        out.append((command.strip(), expected))
    return out


@pytest.mark.parametrize("command, expected", readme_cli_lines())
def test_readme_cli_examples(capsys, command, expected):
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert (code, err) == (0, ""), command
    if expected is not None:
        assert out.strip() == expected, command


def test_word_example(capsys):
    code, out, _ = run(capsys, "word", "--eps", "D", "--c", "2,1")
    assert code == 0 and out == "y x^2\n"


def test_eval_example(capsys):
    code, out, _ = run(capsys, "eval", "--model", "dagger", "--index", "b,1",
                       "--N", "2", "--order", "5")
    assert code == 0 and out == "q + 2q^2 + 3q^3 + 4q^4 + 5q^5\n"


def test_eval_json_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "--model", "bz", "--index", "2,1",
                       "--N", "3", "--order", "8", "--json")
    assert code == 0
    s = series_from_json(json.loads(out))
    assert s.order == 8


def test_eval_infinite_and_point(capsys):
    code, out, _ = run(capsys, "eval", "--model", "sz", "--index", "2", "--order", "6")
    assert code == 0
    code, out, _ = run(capsys, "eval", "--model", "dagger", "--index", "2,1",
                       "--q", "1/2", "--N", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"value": "64/63"}
    # window M = 1: the sum of 2^n / (1 - 2^n)^2 over n = 2, 3, 4
    code, out, _ = run(capsys, "eval", "--model", "dagger", "--index", "2",
                       "--N", "5", "--M", "1", "--q", "2")
    assert code == 0 and out.strip() == "7484/11025"


def test_eval_classical(capsys):
    code, out, _ = run(capsys, "eval", "--model", "classical", "--index", "3", "--N", "3")
    assert code == 0 and out == "9/8\n"
    code, out, _ = run(capsys, "eval", "--model", "classical-diamond",
                       "--index", "1,2", "--N", "3")
    assert code == 0 and out == "9/8\n"


# (model, flags, output): at least one pinned case per --model name
EVAL_CASES = [
    ("dagger", "--index b,2 --order 6", "q + 4q^2 + 6q^3 + 12q^4 + 10q^5 + 24q^6"),
    ("bz", "--index 1,2 --order 6", "q^2 + 3q^3 + 7q^4 + 10q^5 + 19q^6"),
    ("sz", "--index 0,2 --order 6", "q^4 + 4q^6"),
    ("diamond-dagger", "--index 1,2 --N 4 --M 1 --order 6", "q^2 + 2q^3 + 4q^4 + 3q^5 + 11q^6"),
    ("diamond-bz", "--index 1,2 --N 3 --order 6", "q^2 + 3q^3 + 7q^4 + 10q^5 + 18q^6"),
    ("reflected", "--index 2 --N 4 --order 6", "q + 3q^2 + 4q^3 + 6q^4 + 5q^5 + 11q^6"),
    ("xi", "--eps 0 --index 2,1 --N 4 --M 1 --order 6", "q^2 + 2q^3 + 3q^4 + 2q^5 + 6q^6"),
    ("xi", "--eps 1 --index 2,1 --N 4 --order 6", "q + 4q^2 + 7q^3 + 13q^4 + 15q^5 + 30q^6"),
    ("classical", "--index 2,1 --N 5", "181/144"),
    ("classical-blocks", "--index 2,1 --N 5", "205/144"),
    ("classical-diamond", "--index 1,2 --N 5", "2035/1728"),
]


def test_eval_cases_cover_every_model():
    assert tuple(dict.fromkeys(model for model, _, _ in EVAL_CASES)) == _EVAL_MODELS


@pytest.mark.parametrize("model, flags, expected", EVAL_CASES)
def test_eval_every_model(capsys, model, flags, expected):
    code, out, err = run(capsys, "eval", "--model", model, *flags.split())
    assert (code, out, err) == (0, expected + "\n", "")


@pytest.mark.parametrize("model", ["diamond-dagger", "diamond-bz", "reflected"])
def test_eval_refuses_an_infinite_form_it_lacks(capsys, model):
    code, out, err = run(capsys, "eval", "--model", model, "--index", "2", "--order", "6")
    assert (code, out) == (1, "")
    assert err == f"error: {model} has no infinite form; give --N\n"


def test_word_json_roundtrip(capsys):
    code, out, _ = run(capsys, "word", "--eps", "0", "--c", "1,1,2,1", "--json")
    assert code == 0
    u = element_from_json(json.loads(out))
    assert isinstance(u, AlgebraElement) and not u.is_zero()


def test_transform_output(capsys):
    code, out, _ = run(capsys, "transform", "--direction", "SZ_from_dagger",
                       "--l", "2", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["-1 1", "+1 b,1"]
    code, out, _ = run(capsys, "transform", "--direction", "dagger_from_SZ",
                       "--k", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(set(t) == {"coeff", "target"} for t in doc)


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "recurrence", "--eps", "1",
                       "--M", "1", "--N", "3", "--r", "1", "--maxdeg", "2",
                       "--order", "10")
    assert code == 0 and out.startswith("PASS recurrence")
    code, out, _ = run(capsys, "verify", "--identity", "bridge", "--word", "yx",
                       "--N", "3", "--q", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["status"] == "pass" and doc[0]["identity"] == "bridge"


def test_verify_failure_exits_3(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "independence",
                       "--model", "dagger_finite", "--max-weight", "4",
                       "--N-list", "1,2", "--order", "12")
    assert code == 3 and out.startswith("FAIL independence")


@pytest.mark.parametrize("argv,extra", [
    (("--identity", "main-finite", "--eps", "0", "--c", "1,2", "--N", "3",
      "--order", "5", "--M", "2", "--r", "7", "--maxdeg", "9"), ("--M", "--r", "--maxdeg")),
    (("--identity", "independence", "--model", "bz_finite", "--order", "12",
      "--c", "9"), ("--c",)),
])
def test_verify_refuses_flags_the_identity_does_not_take(capsys, argv, extra):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1 and out == "" and err.startswith("error:")
    assert all(flag in err for flag in extra)


def test_verify_independence_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "independence",
                       "--model", "bz_finite", "--order", "12", "--json")
    assert code == 0
    params = json.loads(out)[0]["params"]
    assert params["max_weight"] == 4 and params["N_list"] == [1, 2, 3, 4, 5, 6]


def test_verify_help_lists_every_identity(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    lines = out.splitlines()
    for name, identity in IDENTITIES.items():
        line = next(line.split() for line in lines if line.split()[:1] == [name])
        assert [flag.strip("[]") for flag in line[1:]] == [
            "--" + p.replace("_", "-") for p in identity.params
        ]


def _flag_args(identity, args):
    argv = []
    for name, value in zip(IDENTITIES[identity].params, args):
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


def test_verify_matches_suite_case_for_every_identity(capsys):
    small = SuiteConfig(max_weight=3, max_N=3, order=10, maxdeg=2, max_r=1)
    first = {}
    for (name, args), report in zip(_enumerate_cases(small), run_suite(small)[0]):
        if name not in first and all(a != () and a != "" for a in args):
            first[name] = args, report
    assert set(first) == set(IDENTITIES)
    for name, (args, report) in first.items():
        code, out, err = run(capsys, "verify", "--identity", name,
                             *_flag_args(name, args), "--json")
        assert (code, err) == (0, ""), (name, err)
        assert json.loads(out) == [report_to_json(report)], name
        assert out == reports_to_json([report]) + "\n", name


def test_exit_codes(capsys):
    assert run(capsys, "eval", "--model", "dagger", "--nonsense")[0] == 2
    assert run(capsys, "nonsense-command")[0] == 2
    code, _, err = run(capsys, "eval", "--model", "dagger", "--index", "0,1",
                       "--N", "2", "--order", "5")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "eval", "--model", "dagger", "--index", "2,b",
                       "--N", "3", "--q", "2")
    assert code == 1 and "ends with a bar entry" in err
    code, _, err = run(capsys, "verify", "--identity", "main-finite",
                       "--eps", "0", "--N", "2", "--order", "10")
    assert code == 1 and "--c" in err


@pytest.mark.parametrize("argv", [
    ("--model", "bz", "--index", "2", "--N", "3", "--order", "4"),
    ("--model", "bz", "--index", "2", "--N", "5", "--order", "4"),
    ("--model", "diamond-bz", "--index", "2", "--N", "3", "--order", "4"),
    ("--model", "reflected", "--index", "2", "--N", "3", "--order", "4"),
    ("--model", "dagger", "--index", "2", "--order", "4"),
    ("--model", "sz", "--index", "2", "--order", "4"),
    ("--model", "classical", "--index", "2", "--N", "3"),
    ("--model", "classical-diamond", "--index", "2", "--N", "3"),
])
def test_eval_rejects_lower_bound_without_window(capsys, argv):
    code, out, err = run(capsys, "eval", *argv, "--M", "1")
    assert code == 1 and "error:" in err and "--M" in err and out == ""


def test_missing_order_is_domain_error(capsys):
    code, _, err = run(capsys, "eval", "--model", "dagger", "--index", "2,1", "--N", "2")
    assert code == 1 and "--order" in err


def test_suite_small_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_weight": 2, "max_N": 2, "order": 6, "max_r": 1}))
    code, out, err = run(capsys, "suite", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert len(doc) > 0 and all(r["status"] == "pass" for r in doc)
    assert "failed" in err and "warning:" not in err

    old = tmp_path / "old.json"
    old.write_text(json.dumps({"max_weight": 2, "max_N": 2, "order": 6, "max_r": 1,
                               "parallelism": 3}))
    code, out2, err = run(capsys, "suite", "--config", str(old))
    assert code == 0 and out2 == out
    assert sum(line.startswith("warning:") for line in err.splitlines()) == 1


def test_suite_filter(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_weight": 2, "max_N": 2, "order": 6, "max_r": 0}))
    code, out, _ = run(capsys, "suite", "--config", str(cfg), "--filter", "classical")
    assert code == 0
    assert {r["identity"] for r in json.loads(out)} == {"classical"}


def test_suite_case_error_exits_3(capsys, tmp_path, monkeypatch):
    def broken(c, N):
        raise ZeroDivisionError("broken check")

    monkeypatch.setitem(IDENTITIES, "classical", IDENTITIES["classical"]._replace(check=broken))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_weight": 2, "max_N": 2, "order": 6, "max_r": 0}))
    code, out, err = run(capsys, "suite", "--config", str(cfg), "--filter", "classical")
    doc = json.loads(out)
    assert code == 3 and f"{len(doc)} failed" in err
    assert all(r["status"] == "error" for r in doc)
    assert doc[0]["witness"] == {"type": "ZeroDivisionError", "message": "broken check"}


def test_unknown_suite_filter_is_usage_error(capsys):
    code, out, err = run(capsys, "suite", "--config", "default", "--filter", "bogus")
    assert code == 2 and out == "" and "bogus" in err


def test_suite_bad_config(capsys, tmp_path):
    assert run(capsys, "suite", "--config", str(tmp_path / "missing.json"))[0] == 1
    bad = tmp_path / "bad.json"
    for text in ('{"max_weigth": 2}', '{"rational_q_samples": ["abc"]}',
                 '{"rational_q_samples": 5}', '{"max_weight": true}'):
        bad.write_text(text)
        code, _, err = run(capsys, "suite", "--config", str(bad))
        assert code == 1 and err.startswith("error:"), text


def test_emit_report_contract():
    assert emit_report([], "json") == "[]"
    assert emit_report([], "text") == "[]"
    one = [Report("bridge", {"q": "2"}, "pass")]
    doc = json.loads(emit_report(one, "json"))
    assert len(doc) == 1 and doc[0]["status"] == "pass"


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qmzv.cli", "word", "--eps", "classical-D", "--c", "2,1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "y x^2"


@pytest.mark.parametrize("eps,expected", [
    ("0", "y x"), ("E", "y x"), ("1", "y x^2"),
    ("classical-E", "y x"), ("classical-D", "y x^2"),
])
def test_word_builders(capsys, eps, expected):
    code, out, _ = run(capsys, "word", "--eps", eps, "--c", "2,1")
    assert code == 0 and out.strip() == expected
