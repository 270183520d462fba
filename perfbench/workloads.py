"""The three benchmark workloads: inputs from a seed, the timed work, checks.

Each workload is built in a fresh process by build(name, seed, size).  The
returned object has

* ``ops``: how many operations one pass performs;
* ``run(tracer)``: the timed work; returns (outputs, op_seconds) where
  op_seconds holds one latency per operation;
* ``check(outputs)``: untimed correctness checks; returns (failed_ops,
  problems), failed_ops being a set of operation indices.

Seed 0 is the default seed.  For it every output is compared with digests
recorded at the seed commit (expected.json).  For every seed a seeded subset
of outputs is re-derived through a second route the library has: the main
identity, a transform-free evaluator of the same sum, or a window-peeling
identity.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0
NAMES = ("suite-mid", "eval-high-order", "words-classical")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected(name: str, size: str) -> dict:
    """Digests recorded for this workload at the full size; {} otherwise."""
    if size != "full" or not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(name, {})


def _timed_ops(ops):
    """Run (label, thunk) pairs in order; an exception fails that op only."""
    outputs, seconds = [], []
    for _, thunk in ops:
        t0 = perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # one failing operation must not end the pass
            out = exc
        seconds.append(perf_counter() - t0)
        outputs.append(out)
    return outputs, seconds


def _agrees(first, second):
    """Whether two routes give the same value; one that raises does not."""
    try:
        return first() == second()
    except Exception:  # a broken library must fail the check, not the pass
        return False


def _rational(rng, lo, hi):
    """A seeded rational +-p/r in lowest terms, lo <= p, r <= hi and p != r."""
    while True:
        p, r = rng.randint(lo, hi), rng.randint(lo, hi)
        if p != r and gcd(p, r) == 1:
            return Fraction(p * rng.choice((1, -1)), r)


# -- suite-mid --------------------------------------------------------------------


class SuiteMid:
    """run_suite over the mid config, then the JSON report, as `qmzv suite` does.

    The seed picks the five rational q samples of the sign bridges; seed 0
    keeps the library's defaults.  Every seed draws samples of the same shape
    (n, 1/n, m, -k, p/r with one-digit parts), so the work per pass does not
    depend on the seed.
    """

    name = "suite-mid"

    def __init__(self, seed, size):
        from qmzv.verify import SuiteConfig

        self.seed = seed
        bounds = dict(max_weight=6, max_N=8, order=30) if size == "full" else \
            dict(max_weight=3, max_N=3, order=10)
        samples = SuiteConfig().rational_q_samples if seed == DEFAULT_SEED else \
            self._samples(random.Random(seed))
        self.cfg = SuiteConfig(rational_q_samples=tuple(str(q) for q in samples), **bounds)
        self.expected = load_expected(self.name, size)
        self.ops = None  # known after the run: one op per suite case

    @staticmethod
    def _samples(rng):
        while True:
            n, m, k = rng.randint(2, 4), rng.randint(2, 5), rng.randint(2, 4)
            p = abs(_rational(rng, 2, 9))
            samples = (Fraction(n), Fraction(1, n), Fraction(m), Fraction(-k), p)
            if len(set(samples)) == len(samples):
                return samples

    def run(self, tracer):
        from qmzv.report import reports_to_json
        from qmzv.verify import run_suite

        reports, summary = run_suite(self.cfg)
        text = reports_to_json(reports)
        self.ops = len(reports)
        return (reports, summary, text, list(tracer.cases)), tracer.case_seconds()

    def normalized_groups(self, text):
        """Per-identity digests of the report JSON with the seeded q samples
        replaced by their positions, so they agree across seeds."""
        names = {str(q): f"q#{i}" for i, q in enumerate(self.cfg.rational_q_samples)}
        groups = {}
        for doc in json.loads(text):
            params = doc["params"]
            if "q" in params:
                params["q"] = names.get(params["q"], params["q"])
            if "q_samples" in params:
                params["q_samples"] = [names.get(q, q) for q in params["q_samples"]]
            groups.setdefault(doc["identity"], []).append(doc)
        return {k: digest(json.dumps(v, sort_keys=True, separators=(",", ":")))
                for k, v in groups.items()}

    def digests(self, outputs):
        text = outputs[2]
        out = {"groups": self.normalized_groups(text)}
        if self.seed == DEFAULT_SEED:
            out["seed0_json"] = digest(text)
        return out

    def check(self, outputs):
        from qmzv.constructor import expansion_word
        from qmzv.models import eval_at_rational_q, z_map_at_q
        from qmzv.verify import pair_indices
        from qmzv.words import bar_from_pairs

        reports, summary, text, cases = outputs
        problems = []
        failed = {i for i, r in enumerate(reports) if not r.passed}
        if len(cases) != len(reports) or summary["cases"] != len(reports):
            problems.append(f"timed {len(cases)} cases, suite reported {summary['cases']}")
        if summary["failed"] != len(failed):
            problems.append("suite summary disagrees with the reports")
        if self.expected:
            groups = self.normalized_groups(text)
            for identity, want in self.expected["groups"].items():
                if groups.get(identity) != want:
                    problems.append(f"report digest of {identity} differs")
                    failed |= {i for i, r in enumerate(reports) if r.identity == identity}
            if set(groups) != set(self.expected["groups"]):
                problems.append("identity set differs from the recorded one")
            if self.seed == DEFAULT_SEED and digest(text) != self.expected["seed0_json"]:
                problems.append("suite JSON digest differs for the default seed")
        # seeded subset: each q sample against the main identity at a point
        rng = random.Random(self.seed)
        pairs = [c for c in pair_indices(min(self.cfg.max_weight, 5)) if c]
        for q in self.cfg.rational_q_samples:
            c, N = rng.choice(pairs), rng.randint(1, min(self.cfg.max_N, 5))
            if not _agrees(
                    lambda: z_map_at_q("dagger", expansion_word(0, c), 1 / q, N=N),
                    lambda: eval_at_rational_q("dagger", bar_from_pairs(c), 1 / q, N=N)):
                problems.append(f"main identity at q={1 / q} fails for c={c}, N={N}")
        return failed, problems


# -- eval-high-order --------------------------------------------------------------


class EvalHighOrder:
    """Distinct seeded evaluations at high truncation order.

    The plan is stratified: every seed gets the same number of evaluations per
    (model, depth) stratum and draws only the entries, so the cost of a pass
    barely depends on the seed.  No (model, index, window) repeats in a pass.
    """

    name = "eval-high-order"
    # (family, shape, count per pass).  The shape is the depth r, or (r, L)
    # with L the sum of the l_j, which sets the number of walker positions.
    PLAN = (
        ("dagger-inf", 1, 8), ("dagger-inf", 2, 6), ("dagger-inf", 3, 2),
        ("bz-inf", 1, 6), ("bz-inf", 2, 6), ("bz-inf", 3, 2),
        ("sz-inf", 1, 6), ("sz-inf", 2, 6), ("sz-inf", 3, 2),
        ("xi", (1, 1), 16), ("xi", (1, 2), 16), ("xi", (2, 3), 16), ("xi", (2, 4), 16),
        ("xi", (3, 4), 16),
        ("dagger-window", (1, 1), 16), ("dagger-window", (1, 2), 16),
        ("dagger-window", (2, 3), 12), ("dagger-window", (2, 4), 12),
        ("dagger-window", (3, 4), 12),
    )
    # windows cycle through fixed values so that the seed picks only entries
    XI_N = (12, 16, 20, 24)
    WINDOWS = ((2, 14), (4, 16), (6, 18), (8, 20))

    def __init__(self, seed, size):
        self.seed = seed
        full = size == "full"
        self.order = 100 if full else 20
        rng = random.Random(seed)
        seen = set()
        self.items = []
        for family, shape, count in self.PLAN:
            for j in range(count if full else 1):
                while True:
                    item = self._draw(rng, family, shape, j, full)
                    if item not in seen:
                        break
                seen.add(item)
                self.items.append(item)
        self.ops = len(self.items)
        self.expected = load_expected(self.name, size)

    @staticmethod
    def _draw(rng, family, shape, j, full):
        if family in ("bz-inf", "sz-inf"):
            return (family, tuple(rng.randint(1, 4) for _ in range(shape - 1))
                    + (rng.randint(2, 9 if shape == 1 else 5),))
        if family == "dagger-inf":
            ls = [rng.randint(1, 4) for _ in range(shape)]
        else:
            r, total = shape
            cuts = sorted(rng.sample(range(1, total), r - 1))
            ls = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        c = tuple(x for l in ls for x in (l, rng.randint(1, 6)))
        if family == "dagger-inf":
            return (family, c)
        if family == "xi":
            N = EvalHighOrder.XI_N[j % 4] if full else 8
            return (family, (j // 4) % 2, c, N)
        M, N = EvalHighOrder.WINDOWS[j % 4] if full else (2, 8)
        return (family, c, M, N)

    def thunk(self, item):
        from qmzv.models import xi_value, zeta_dagger_finite, zeta_infinite
        from qmzv.words import bar_from_pairs

        o = self.order
        family = item[0]
        if family == "dagger-inf":
            return lambda: zeta_infinite("dagger", bar_from_pairs(item[1]), order=o)
        if family == "bz-inf":
            return lambda: zeta_infinite("bz", item[1], order=o)
        if family == "sz-inf":
            return lambda: zeta_infinite("sz", item[1], order=o)
        if family == "xi":
            _, eps, c, N = item
            return lambda: xi_value(eps, c, N=N, order=o)
        _, c, M, N = item
        return lambda: zeta_dagger_finite(bar_from_pairs(c), N=N, M=M, order=o)

    def run(self, tracer):
        return _timed_ops([(item, self.thunk(item)) for item in self.items])

    @staticmethod
    def series_digest(s):
        return digest(",".join(str(c) for c in s.coeffs))

    def digests(self, outputs):
        if self.seed != DEFAULT_SEED:
            return {}
        return {"seed0_ops": [self.series_digest(s) if hasattr(s, "coeffs") else "error"
                              for s in outputs]}

    def second_route(self, item):
        """The same value by another evaluator or identity of the library."""
        from qmzv.constructor import expansion_word
        from qmzv.models import z_map, zeta_bz_finite, zeta_dagger_finite, zeta_poly
        from qmzv.series import QSeries, inv_bracket_pow, pow_kernel
        from qmzv.words import BAR1, BarIndex, bar_from_pairs

        o = self.order
        family = item[0]
        if family == "dagger-inf":  # main identity, infinite side
            return z_map("dagger_inf", expansion_word(0, item[1]), order=o)
        if family == "bz-inf":  # finite strict sum with every point below the order
            return zeta_bz_finite(item[1], N=o + 1, order=o)
        if family == "sz-inf":  # numerator form: Q_j(x) = x^(k_j)
            k = item[1]
            return zeta_poly(k, [[0] * e + [1] for e in k], order=o)
        if family == "xi":  # main identity, finite side
            _, eps, c, N = item
            return z_map("dagger_finite", expansion_word(eps, c), N=N, order=o)
        # window peeling: Z(e; M) = Z(e; 0) - sum_{m<=M} f_1(m) Z(e[1:]; m-1+gap)
        _, c, M, N = item
        e = bar_from_pairs(c).entries
        total = zeta_dagger_finite(BarIndex(e), N=N, order=o)
        for m in range(1, M + 1):
            if e[0] is BAR1:
                f, low = inv_bracket_pow(N - m, 1, o), m - 1
            else:
                f, low = pow_kernel(m, e[0], o), m
            tail = zeta_dagger_finite(BarIndex(e[1:]), N=N, M=low, order=o) if e[1:] \
                else QSeries.one(o)
            total = total - f * tail
        return total

    def check(self, outputs):
        problems = []
        failed = {i for i, s in enumerate(outputs) if not hasattr(s, "coeffs")}
        for i in sorted(failed):
            problems.append(f"{self.items[i]} raised {outputs[i]!r}")
        want = self.expected.get("seed0_ops") if self.seed == DEFAULT_SEED else None
        if want is not None:
            got = self.digests(outputs)["seed0_ops"]
            bad = {i for i, (a, b) in enumerate(zip(got, want)) if a != b}
            if len(got) != len(want):
                problems.append("evaluation count differs from the recorded one")
            if bad:
                problems.append(f"{len(bad)} coefficient vectors differ from the record")
            failed |= bad
        # seeded subset: two cheap evaluations per family
        rng = random.Random(self.seed)
        for family in ("dagger-inf", "bz-inf", "sz-inf", "xi", "dagger-window"):
            choices = [i for i, item in enumerate(self.items)
                       if item[0] == family and i not in failed and self._cheap(item)]
            for i in rng.sample(choices, min(2, len(choices))):
                if not _agrees(lambda: self.second_route(self.items[i]), lambda: outputs[i]):
                    problems.append(f"second route disagrees on {self.items[i]}")
                    failed.add(i)
        return failed, problems

    def _cheap(self, item):
        """Whether the second route of item costs about as much as item.

        The main identity evaluates every word of an expansion, and their
        number grows fast with the weight, so those routes stop at weight 4.
        """
        family = item[0]
        if family in ("dagger-inf", "xi"):
            c = item[1] if family == "dagger-inf" else item[2]
            return sum(c) - len(c) // 2 <= 4
        return self._depth(item) <= 2

    @staticmethod
    def _depth(item):
        family = item[0]
        return len(item[1]) if family in ("bz-inf", "sz-inf") else \
            len(item[2] if family == "xi" else item[1]) // 2


# -- words-classical --------------------------------------------------------------


class WordsClassical:
    """The word constructors and the exact classical and rational-point checks.

    Every pair index up to the weight cap goes through both expansions, the bz
    twist, both classical expansions and verify_classical; then seeded sign
    bridges at rational points run.  Nothing here builds a QSeries.
    """

    name = "words-classical"
    BUILDERS = ("expansion_word/0", "expansion_word/1", "bz_word",
                "classical_expansion_word/0", "classical_expansion_word/1")

    def __init__(self, seed, size):
        from qmzv.verify import pair_indices, plain_indices
        from qmzv.words import pair_weight, word_from_index

        self.seed = seed
        full = size == "full"
        max_weight, self.N = (10, 10) if full else (4, 4)
        self.pairs = sorted((c for c in pair_indices(max_weight) if c),
                            key=lambda c: (pair_weight(c), c))
        rng = random.Random(seed)
        words = [word_from_index(k) for k in plain_indices(5 if full else 3) if k]
        bridges, seen = [], set()
        while len(bridges) < (400 if full else 10):
            case = (rng.choice(words), rng.randint(2, 6), _rational(rng, 1, 7))
            if case not in seen:
                seen.add(case)
                bridges.append(case)
        self.bridges = bridges
        self.ops = len(self.pairs) * (len(self.BUILDERS) + 1) + len(bridges)
        self.expected = load_expected(self.name, size)
        self._weight = pair_weight

    def _ops(self):
        from qmzv.constructor import bz_word, classical_expansion_word, expansion_word
        from qmzv.models import verify_bridge
        from qmzv.verify import verify_classical

        ops = []
        for c in self.pairs:
            ops += [
                (("expansion_word/0", c), lambda c=c: expansion_word(0, c)),
                (("expansion_word/1", c), lambda c=c: expansion_word(1, c)),
                (("bz_word", c), lambda c=c: bz_word(c)),
                (("classical_expansion_word/0", c), lambda c=c: classical_expansion_word(0, c)),
                (("classical_expansion_word/1", c), lambda c=c: classical_expansion_word(1, c)),
                (("verify_classical", c), lambda c=c: verify_classical(c, self.N)),
            ]
        for w, N, q in self.bridges:
            ops.append((("bridge", w), lambda w=w, N=N, q=q: verify_bridge(w, N, q)))
        return ops

    def run(self, tracer):
        ops = self._ops()
        outputs, seconds = _timed_ops(ops)
        self.labels = [label for label, _ in ops]
        return outputs, seconds

    def digests(self, outputs):
        """Digest per (builder, weight) of the constructed words; seed-free."""
        from qmzv.words import element_to_json

        groups = {}
        for (kind, c), out in zip(self.labels, outputs):
            if kind in self.BUILDERS:
                text = json.dumps(element_to_json(out)) if not isinstance(out, Exception) \
                    else "error"
                groups.setdefault(f"{kind}@{self._weight(c)}", []).append(text)
        return {"words": {k: digest("\n".join(v)) for k, v in sorted(groups.items())}}

    def check(self, outputs):
        from qmzv.constructor import expansion_word
        from qmzv.models import eval_at_rational_q, z_map_at_q
        from qmzv.words import index_from_word

        problems = []
        failed = set()
        for i, ((kind, _), out) in enumerate(zip(self.labels, outputs)):
            if isinstance(out, Exception):
                failed.add(i)
                problems.append(f"{self.labels[i]} raised {out!r}")
            elif kind in ("verify_classical", "bridge") and not out.passed:
                failed.add(i)
                problems.append(f"{self.labels[i]} failed: {out.witness}")
        if self.expected:
            got = self.digests(outputs)["words"]
            for group, want in self.expected["words"].items():
                if got.get(group) != want:
                    problems.append(f"constructed words differ in {group}")
                    kind, weight = group.split("@")
                    failed |= {i for i, (k, c) in enumerate(self.labels)
                               if k == kind and self._weight(c) == int(weight)}
        # seeded subset: bridge values against the main identity at the point
        rng = random.Random(self.seed)
        start = len(self.labels) - len(self.bridges)
        for i in rng.sample(range(len(self.bridges)), min(4, len(self.bridges))):
            w, N, q = self.bridges[i]
            c = tuple(x for e in index_from_word(w) for x in (1, e))
            if not _agrees(
                    lambda: z_map_at_q("dagger", expansion_word(0, c), 1 / q, N=N),
                    lambda: eval_at_rational_q("dagger", index_from_word(w), 1 / q, N=N)):
                problems.append(f"main identity at q={1 / q} fails for {w}, N={N}")
                failed.add(start + i)
        return failed, problems


def build(name: str, seed: int, size: str):
    classes = {cls.name: cls for cls in (SuiteMid, EvalHighOrder, WordsClassical)}
    return classes[name](seed, size)
