"""Command shell over the evaluators, word constructors, transforms, and suite.

Exit codes: 0 success, 1 domain error (message names the violated
precondition), 2 usage error, 3 verification failure.  All numeric output is
exact; --json switches any subcommand to machine-readable form.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

from .constructor import bz_word, classical_expansion_word, expansion_word
from .errors import ParameterError, QmzvError
from .genfun import verify_b_diff, verify_g_diff, verify_recurrence
from .models import (
    classical_zeta,
    classical_zeta_blocks,
    classical_zeta_diamond,
    eval_at_rational_q,
    verify_bridge,
    xi_value,
    zeta_bz_finite,
    zeta_dagger_finite,
    zeta_diamond_finite,
    zeta_infinite,
    zeta_reflected_blocks,
)
from .report import format_report, reports_to_json
from .series import format_qseries, series_to_json
from .transforms import DIRECTIONS, expand, verify_transform
from .verify import (
    IDENTITIES,
    SuiteConfig,
    config_from_json,
    independence_check,
    run_suite,
    verify_classical,
    verify_main_finite,
    verify_main_finite_bz,
    verify_main_infinite,
    verify_remarks,
)
from .words import BarIndex, element_to_json, format_element, parse_index, render_index


# -- small parsers ------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"bad rational {text!r}") from None


def _fraction_list(text: str) -> tuple:
    return tuple(_fraction(piece) for piece in text.split(",") if piece.strip())

def _plain_index(text: str, flag: str) -> tuple:
    k = parse_index(text)
    if isinstance(k, BarIndex):
        raise ParameterError(f"{flag} takes a plain index without bar entries")
    return k


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(piece) for piece in text.split(",") if piece.strip())
    except ValueError:
        raise ParameterError(f"bad integer list {text!r}") from None


def _require(args, identity: str, *names):
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ParameterError(f"{identity} requires {flag}")


# -- output -------------------------------------------------------------------------


def emit_report(reports, mode: str) -> str:
    """Reports as a JSON array, or as PASS/FAIL lines in text mode."""
    if mode == "json":
        return reports_to_json(list(reports))
    if not reports:
        return "[]"
    return "\n".join(format_report(r) for r in reports)


def _print_value(value, as_json: bool):
    if as_json:
        print(json.dumps({"value": str(value)}))
    else:
        print(value)


def _print_series(s, as_json: bool):
    if as_json:
        print(json.dumps(series_to_json(s)))
    else:
        print(format_qseries(s))


# -- subcommands --------------------------------------------------------------------


_EVAL_MODELS = (
    "dagger",
    "bz",
    "sz",
    "diamond-dagger",
    "diamond-bz",
    "reflected",
    "xi",
    "classical",
    "classical-blocks",
    "classical-diamond",
)


_WINDOW_MODELS = ("dagger", "diamond-dagger", "xi")


def _cmd_eval(args) -> int:
    k = parse_index(args.index)
    model = args.model
    if args.M and (args.N is None or model not in _WINDOW_MODELS):
        raise ParameterError(
            f"--M needs --N and one of the models {_WINDOW_MODELS}; got {model}"
        )
    if args.q is not None:
        _require(args, f"point evaluation of {model}", "N")
        value = eval_at_rational_q(model, k, _fraction(args.q), N=args.N, M=args.M)
        _print_value(value, args.json)
        return 0
    if model.startswith("classical"):
        _require(args, model, "N")
        fn = {
            "classical": classical_zeta,
            "classical-blocks": classical_zeta_blocks,
            "classical-diamond": classical_zeta_diamond,
        }[model]
        _print_value(fn(k, args.N), args.json)
        return 0
    _require(args, model, "order")
    if model == "xi":
        _require(args, "xi", "eps", "N")
        s = xi_value(args.eps, k, N=args.N, order=args.order, M=args.M)
    elif args.N is None:
        if model not in ("dagger", "bz", "sz"):
            raise ParameterError(f"{model} has no infinite form; give --N")
        s = zeta_infinite(model, k, order=args.order)
    elif model == "dagger":
        s = zeta_dagger_finite(k, N=args.N, order=args.order, M=args.M)
    elif model == "bz":
        s = zeta_bz_finite(k, N=args.N, order=args.order)
    elif model == "diamond-dagger":
        s = zeta_diamond_finite("dagger", k, N=args.N, order=args.order, M=args.M)
    elif model == "diamond-bz":
        s = zeta_diamond_finite("bz", k, N=args.N, order=args.order)
    elif model == "reflected":
        s = zeta_reflected_blocks(k, N=args.N, order=args.order)
    else:
        raise ParameterError(f"{model} is an infinite-sum model; omit --N")
    _print_series(s, args.json)
    return 0


_WORD_BUILDERS = {
    "0": lambda c: expansion_word(0, c),
    "1": lambda c: expansion_word(1, c),
    "E": lambda c: expansion_word(0, c),
    "D": bz_word,
    "classical-E": lambda c: classical_expansion_word(0, c),
    "classical-D": lambda c: classical_expansion_word(1, c),
}


def _cmd_word(args) -> int:
    c = _plain_index(args.c, "--c")
    u = _WORD_BUILDERS[args.eps](c)
    if args.json:
        print(json.dumps(element_to_json(u)))
    else:
        print(format_element(u))
    return 0


def _cmd_transform(args) -> int:
    with_bars = args.l is not None
    l = _plain_index(args.l, "--l") if with_bars else None
    k = _plain_index(args.k, "--k")
    terms = expand(args.direction, with_bars, l, k)
    if args.json:
        doc = [{"coeff": c, "target": render_index(t)} for c, t in terms]
        print(json.dumps(doc))
    else:
        for c, t in terms:
            print(f"{c:+d} {render_index(t)}")
    return 0


def _run_verify(args) -> list:
    identity = args.identity
    if identity == "main-finite":
        _require(args, identity, "eps", "c", "N", "order")
        return [verify_main_finite(args.eps, _plain_index(args.c, "--c"), args.N, args.order)]
    if identity == "main-finite-bz":
        _require(args, identity, "c", "N", "order")
        qs = _fraction_list(args.q) if args.q is not None else (
            Fraction(2), Fraction(1, 2), Fraction(3),
        )
        return [verify_main_finite_bz(_plain_index(args.c, "--c"), args.N, args.order, qs)]
    if identity == "main-infinite":
        _require(args, identity, "side", "c", "order")
        return [verify_main_infinite(args.side, _plain_index(args.c, "--c"), args.order)]
    if identity == "g-diff":
        _require(args, identity, "eps", "M", "N", "r", "maxdeg", "order")
        return [verify_g_diff(args.eps, args.M, args.N, args.r, args.maxdeg, args.order)]
    if identity == "recurrence":
        _require(args, identity, "eps", "M", "N", "r", "maxdeg", "order")
        return [verify_recurrence(args.eps, args.M, args.N, args.r, args.maxdeg, args.order)]
    if identity == "b-diff":
        _require(args, identity, "eps", "M", "N", "maxdeg", "order")
        return [verify_b_diff(args.eps, args.M, args.N, args.maxdeg, args.order)]
    if identity == "transform":
        _require(args, identity, "which", "k", "order")
        l = _plain_index(args.l, "--l") if args.l is not None else None
        return [verify_transform(args.which, l, _plain_index(args.k, "--k"), args.order)]
    if identity in ("dual-flat", "dual-diamond"):
        _require(args, identity, "l", "k", "N", "order")
        return [verify_remarks(identity, _plain_index(args.l, "--l"),
                               _plain_index(args.k, "--k"), args.N, args.order)]
    if identity == "qmsw":
        _require(args, identity, "k", "N", "order")
        return [verify_remarks("qmsw", None, _plain_index(args.k, "--k"), args.N, args.order)]
    if identity == "classical":
        _require(args, identity, "c", "N")
        return [verify_classical(_plain_index(args.c, "--c"), args.N)]
    if identity == "bridge":
        _require(args, identity, "word", "N", "q")
        return [verify_bridge(args.word, args.N, _fraction(args.q))]
    if identity == "independence":
        _require(args, identity, "model", "order")
        return [independence_check(args.model, args.max_weight, args.N_list, args.order)]
    raise ParameterError(f"unknown identity {identity!r}")


def _cmd_verify(args) -> int:
    reports = _run_verify(args)
    print(emit_report(reports, "json" if args.json else "text"))
    return 0 if all(r.passed for r in reports) else 3


def _cmd_suite(args) -> int:
    if args.config == "default":
        cfg = SuiteConfig()
    else:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParameterError(f"cannot read config {args.config!r}: {exc}") from None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = config_from_json(text)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    reports, summary = run_suite(cfg, filter_identity=args.filter)
    print(emit_report(reports, "json"))
    print(f"suite: {summary['cases']} cases, {summary['failed']} failed", file=sys.stderr)
    return 0 if summary["failed"] == 0 else 3


# -- parser -------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(prog="qmzv", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate one model at one index")
    p.add_argument("--model", required=True, choices=_EVAL_MODELS)
    p.add_argument("--index", required=True, help="comma list, bar entries as 'b'")
    p.add_argument("--N", type=int, default=None, help="window top; omit for infinite sums")
    p.add_argument("--M", type=int, default=0, help="window bottom (default 0)")
    p.add_argument("--q", default=None, help="rational point instead of a series")
    p.add_argument("--eps", type=int, choices=(0, 1), default=None)
    p.add_argument("--order", type=int, default=None, help="truncation order")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("word", parents=[common], help="construct a recursion word")
    p.add_argument("--eps", required=True, choices=sorted(_WORD_BUILDERS))
    p.add_argument("--c", required=True, help="flattened pair index, comma list")
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("transform", parents=[common], help="expand one model in another")
    p.add_argument("--direction", required=True, choices=DIRECTIONS)
    p.add_argument("--l", default=None, help="block lengths; omit for the barless form")
    p.add_argument("--k", required=True, help="block tops, comma list")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", parents=[common], help="check one identity instance")
    p.add_argument("--identity", required=True, choices=IDENTITIES)
    p.add_argument("--eps", type=int, choices=(0, 1), default=None)
    p.add_argument("--c", default=None)
    p.add_argument("--l", default=None)
    p.add_argument("--k", default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--maxdeg", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--q", default=None, help="rational, or comma list for main-finite-bz")
    p.add_argument("--side", choices=("dagger", "bz"), default=None)
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4), default=None)
    p.add_argument("--word", default=None)
    p.add_argument("--model", choices=("dagger_finite", "bz_finite"), default=None)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--N-list", type=_int_list, default=tuple(range(1, 7)))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", parents=[common], help="run the verification suite")
    p.add_argument("--config", required=True, help="JSON config path, or 'default'")
    p.add_argument("--filter", default=None, choices=IDENTITIES, help="run only this identity")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except QmzvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
