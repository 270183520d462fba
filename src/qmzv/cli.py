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
from .models import (
    _FINITE,
    _INFINITE,
    FINITE_Z_MODELS,
    classical_zeta,
    classical_zeta_blocks,
    classical_zeta_diamond,
    eval_at_rational_q,
    xi_value,
    zeta_finite,
    zeta_infinite,
)
from .report import format_report, reports_to_json
from .series import format_qseries, series_to_json
from .transforms import DIRECTIONS, expand
from .verify import IDENTITIES, SuiteConfig, config_from_json, run_suite
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


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(args, identity: str, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"{identity} requires {_flag(name)}")


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


_CLASSICAL = {
    "classical": classical_zeta,
    "classical-blocks": classical_zeta_blocks,
    "classical-diamond": classical_zeta_diamond,
}

_EVAL_MODELS = (*dict.fromkeys((*_INFINITE, *_FINITE)), "xi", *_CLASSICAL)


# the finite models that take M > 0, and xi, whose two families both do
_WINDOW_MODELS = tuple(model for model, (_, takes_M) in _FINITE.items() if takes_M) + ("xi",)


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
    if model in _CLASSICAL:
        _require(args, model, "N")
        _print_value(_CLASSICAL[model](k, args.N), args.json)
        return 0
    _require(args, model, "order")
    if model == "xi":
        _require(args, "xi", "eps", "N")
        s = xi_value(args.eps, k, N=args.N, order=args.order, M=args.M)
    elif args.N is None:
        if model not in _INFINITE:
            raise ParameterError(f"{model} has no infinite form; give --N")
        s = zeta_infinite(model, k, order=args.order)
    else:
        s = zeta_finite(model, k, N=args.N, order=args.order, M=args.M)
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


# Every parameter of a registry identity is a verify flag of the same name.
_VERIFY_FLAGS = tuple(dict.fromkeys(p for i in IDENTITIES.values() for p in i.params))

# argparse keywords of the verify flags; a flag not listed takes a string
_VERIFY_FLAG_ARGS = {
    "eps": {"type": int, "choices": (0, 1)},
    "N": {"type": int},
    "M": {"type": int},
    "r": {"type": int},
    "maxdeg": {"type": int},
    "order": {"type": int},
    "max_weight": {"type": int},
    "N_list": {"type": _int_list},
    "q": {"help": "rational, or comma list for main-finite-bz"},
    "side": {"choices": ("dagger", "bz")},
    "which": {"type": int, "choices": (1, 2, 3, 4)},
    "model": {"choices": FINITE_Z_MODELS},
}

# What turns a string flag into its argument, per flag or per (identity, flag)
_VERIFY_PARSERS = {
    "c": lambda text: _plain_index(text, "--c"),
    "l": lambda text: _plain_index(text, "--l"),
    "k": lambda text: _plain_index(text, "--k"),
    "q": _fraction,
    ("main-finite-bz", "q"): _fraction_list,
}

# The flags an identity may omit, with the argument that stands in for them;
# every other flag an identity takes is required.
_VERIFY_DEFAULTS = {
    ("main-finite-bz", "q"): (Fraction(2), Fraction(1, 2), Fraction(3)),
    ("transform", "l"): None,
    ("independence", "max_weight"): 4,
    ("independence", "N_list"): tuple(range(1, 7)),
}


def _verify_epilog() -> str:
    lines = ["identities and their flags ([optional]):"]
    for name, identity in IDENTITIES.items():
        flags = (
            f"[{_flag(p)}]" if (name, p) in _VERIFY_DEFAULTS else _flag(p)
            for p in identity.params
        )
        lines.append(f"  {name:<15} {' '.join(flags)}")
    return "\n".join(lines)


def _run_verify(args) -> list:
    name = args.identity
    params = IDENTITIES[name].params
    extra = [_flag(p) for p in _VERIFY_FLAGS if p not in params and getattr(args, p) is not None]
    if extra:
        raise ParameterError(f"{name} does not take {', '.join(extra)}")
    _require(args, name, *(p for p in params if (name, p) not in _VERIFY_DEFAULTS))
    values = []
    for p in params:
        value = getattr(args, p)
        if value is None:
            value = _VERIFY_DEFAULTS[name, p]
        elif parse := _VERIFY_PARSERS.get((name, p), _VERIFY_PARSERS.get(p)):
            value = parse(value)
        values.append(value)
    return [IDENTITIES[name].check(*values)]


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

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="check one identity instance",
        epilog=_verify_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--identity", required=True, choices=tuple(IDENTITIES))
    for name in _VERIFY_FLAGS:
        p.add_argument(_flag(name), default=None, **_VERIFY_FLAG_ARGS.get(name, {}))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", parents=[common], help="run the verification suite")
    p.add_argument("--config", required=True, help="JSON config path, or 'default'")
    p.add_argument(
        "--filter", default=None, choices=tuple(IDENTITIES), help="run only this identity"
    )
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
