"""Outside-in tracing of the qmzv layers.

Nothing under src/qmzv knows about this module.  It replaces public functions
and methods with timing wrappers for the length of one traced pass and puts
the originals back afterwards.  A function imported by name into several qmzv
modules is replaced in every module namespace that holds the same object, so
calls made through any of those names are seen.

Each wrapped call keeps a stack frame.  A call's self time is its duration
minus the wall time of the wrapped calls it made, measured around their
wrappers, so a wrapper's own bookkeeping is charged to no layer: it shows
only in the overhead of the traced pass against an untraced one.

Spans (name, start, end, parent) are kept in memory for every wrapped call
except those of the hot leaf groups: the QSeries methods run about a million
times in one suite pass, the word products and combinatorics a few hundred
thousand times in one words pass.  Those are counted and timed in aggregate
only.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_right
from time import perf_counter

# (group, module, attribute path).  Groups become metric prefixes.
SERIES_TARGETS = (
    ("series.mul", "qmzv.series", "QSeries.__mul__"),
    ("series.add", "qmzv.series", "QSeries.__add__"),
    ("series.init", "qmzv.series", "QSeries.__init__"),
)

LAYER_TARGETS = (
    ("models.finite", "qmzv.models", "zeta_dagger_finite"),
    ("models.finite", "qmzv.models", "zeta_bz_finite"),
    ("models.finite", "qmzv.models", "zeta_diamond_finite"),
    ("models.finite", "qmzv.models", "zeta_reflected_blocks"),
    ("models.finite", "qmzv.models", "xi_value"),
    ("models.infinite", "qmzv.models", "zeta_infinite"),
    ("models.infinite", "qmzv.models", "zeta_poly"),
    ("models.point", "qmzv.models", "eval_at_rational_q"),
    ("models.point", "qmzv.models", "z_map_at_q"),
    ("models.classical", "qmzv.models", "classical_zeta"),
    ("models.classical", "qmzv.models", "classical_zeta_blocks"),
    ("models.classical", "qmzv.models", "classical_zeta_diamond"),
    ("models.z_map", "qmzv.models", "z_map"),
    ("constructor.expansion", "qmzv.constructor", "expansion_word"),
    ("constructor.expansion", "qmzv.constructor", "classical_expansion_word"),
    ("constructor.expansion", "qmzv.constructor", "bz_word"),
    ("constructor.expansion", "qmzv.constructor", "dagger_word"),
    ("words.element_mul", "qmzv.words", "AlgebraElement.__mul__"),
    ("genfun.xi_genfun", "qmzv.genfun", "xi_genfun"),
    ("genfun.multipoly_mul", "qmzv.genfun", "MultiPoly.__mul__"),
    ("transforms.expand", "qmzv.transforms", "expand"),
    ("verify.exact_rank", "qmzv.verify", "exact_rank"),
    ("report.compare", "qmzv.report", "compare_series"),
    ("report.compare", "qmzv.report", "compare_values"),
    ("report.json", "qmzv.report", "reports_to_json"),
)

# Functions that return a Report for one identity instance.  Only the
# outermost call counts as a case; verify_bridge also runs nested inside
# verify_main_finite_bz.
VERIFIER_TARGETS = tuple(
    ("verify", module, name)
    for module, name in (
        ("qmzv.verify", "verify_main_finite"),
        ("qmzv.verify", "verify_main_finite_bz"),
        ("qmzv.verify", "verify_main_infinite"),
        ("qmzv.verify", "verify_remarks"),
        ("qmzv.verify", "verify_classical"),
        ("qmzv.verify", "independence_check"),
        ("qmzv.genfun", "verify_recurrence"),
        ("qmzv.genfun", "verify_g_diff"),
        ("qmzv.genfun", "verify_b_diff"),
        ("qmzv.transforms", "verify_transform"),
        ("qmzv.models", "verify_bridge"),
    )
)

# Every public function of qmzv.combinat is one group.
COMBINAT_MODULE = "qmzv.combinat"

HOT_GROUPS = ("series.mul", "series.add", "series.init", "words.element_mul", "combinat")


def _resolve(module_name, path):
    """(owner, attribute, object) for a dotted path, or None if it is gone."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if obj is None:
        return None
    return owner, attr, obj


def _qmzv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qmzv" or name.startswith("qmzv."))]


class Patcher:
    """Replaces attributes and restores every one of them on restore()."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, owner, attr, original, wrapper):
        """Replace original at owner.attr and wherever a qmzv module binds it."""
        self._set(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in _qmzv_modules():
            for name, value in list(vars(module).items()):
                if value is original and (module, name) != (owner, attr):
                    self._set(module, name, wrapper)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# -- cache discovery -------------------------------------------------------------


def find_caches():
    """Every cache in the loaded qmzv modules, keyed by layer.

    An attribute counts as a cache if it has a callable cache_info(); the same
    object imported into several modules is counted once, under the module
    that defined it (its __module__).  A module-level dict named _cache
    (the word constructor's memo table) is read as well.  Returns
    {layer: {"lru": [objects], "dicts": [dicts]}}.
    """
    seen = set()
    out = {}
    for module in _qmzv_modules():
        holders = [vars(module)]
        holders += [vars(v) for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == module.__name__]
        for namespace in holders:
            for value in list(namespace.values()):
                info = getattr(value, "cache_info", None)
                if not callable(info) or id(value) in seen:
                    continue
                seen.add(id(value))
                home = getattr(value, "__module__", None) or module.__name__
                layer = home.rsplit(".", 1)[-1]
                out.setdefault(layer, {"lru": [], "dicts": []})["lru"].append(value)
        table = vars(module).get("_cache")
        if isinstance(table, dict) and id(table) not in seen:
            seen.add(id(table))
            layer = module.__name__.rsplit(".", 1)[-1]
            out.setdefault(layer, {"lru": [], "dicts": []})["dicts"].append(table)
    return out


def cache_snapshot(caches):
    """{layer: (hits, misses, entries, counted)} summed over the layer's caches.

    counted is False when the layer has only dict memo tables, which keep no
    hit or miss counters.
    """
    snap = {}
    for layer, found in caches.items():
        hits = misses = entries = 0
        for obj in found["lru"]:
            try:
                info = obj.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
                entries += info.currsize
            except (TypeError, AttributeError):
                continue  # a cache_info() of another shape: left out, not fatal
        entries += sum(len(d) for d in found["dicts"])
        snap[layer] = (hits, misses, entries, bool(found["lru"]))
    return snap


def cache_metrics(before, after):
    """Per-layer cache metrics for the interval between two snapshots.

    The series kernels are reported as series.kernel.*, every other layer as
    <layer>.cache.*; a layer without hit counters reports entries alone.
    """
    out = {}
    for layer, (hits, misses, entries, counted) in after.items():
        h0, m0 = before.get(layer, (0, 0))[:2]
        prefix = "series.kernel" if layer == "series" else f"{layer}.cache"
        out[f"{prefix}.entries"] = entries
        if counted:
            dh, dm = hits - h0, misses - m0
            out[f"{prefix}.hits"] = dh
            out[f"{prefix}.misses"] = dm
            out[f"{prefix}.hit_ratio"] = dh / (dh + dm) if dh + dm else 0.0
    return out


# -- the tracer ------------------------------------------------------------------


class Tracer:
    """Wraps the qmzv layers for one pass.

    full=False wraps only the verifiers, to time suite cases one by one in an
    untraced pass; full=True wraps every target and records spans.
    """

    def __init__(self, full: bool):
        self.full = full
        self.calls = {}
        self.self_s = {}
        self.extra = {}
        self.cases = []  # (identity, seconds) of outermost verifier calls
        self.spans = []  # (name, start, end, parent index or -1)
        self._frames = []  # per active call: [child seconds, span index]
        self._depth_verify = 0
        self._patcher = Patcher()
        self.groups = set()  # groups with at least one wrapped target
        self.missing = []  # (group, target) pairs that no longer exist

    # bookkeeping shared by every wrapper
    def _enter(self, record_span):
        span = -1
        if record_span:
            span = len(self.spans)
            self.spans.append(None)
        self._frames.append([0.0, span])

    def _leave(self, group, name, t_outer, t0, t1, record_span):
        child, span = self._frames.pop()
        self.calls[group] = self.calls.get(group, 0) + 1
        self.self_s[group] = self.self_s.get(group, 0.0) + (t1 - t0) - child
        if record_span:
            parent = self._frames[-1][1] if self._frames else -1
            self.spans[span] = (name, t0, t1, parent)
        if self._frames:
            self._frames[-1][0] += perf_counter() - t_outer

    def _wrap(self, group, name, fn, hook=None, record_span=True):
        tracer = self

        def wrapper(*args, **kwargs):
            t_outer = perf_counter()
            tracer._enter(record_span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._leave(group, name, t_outer, t0, t1, record_span)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_verifier(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            outermost = tracer._depth_verify == 0
            tracer._depth_verify += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._depth_verify -= 1
            if outermost:
                tracer.cases.append((result.identity, t1 - t0))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count(self, key, n):
        self.extra[key] = self.extra.get(key, 0) + n

    def _series_mul_hook(self, args, result):
        a, b = args
        if not hasattr(b, "coeffs"):
            if b:
                self._count("series.mul.term_ops", sum(1 for c in a.coeffs if c))
            return
        n = a.order
        nz_b = [j for j, c in enumerate(b.coeffs) if c]
        self._count("series.mul.term_ops", sum(
            bisect_right(nz_b, n - i) for i, c in enumerate(a.coeffs) if c))

    def _multipoly_mul_hook(self, args, result):
        a, b = args
        if not hasattr(b, "nvars"):
            return
        cap = a.maxdeg
        exps_a = [e for e, _ in a.terms()]
        exps_b = [e for e, _ in b.terms()]
        kept = sum(1 for e1, e2 in itertools.product(exps_a, exps_b)
                   if all(x + y <= cap for x, y in zip(e1, e2)))
        self._count("genfun.multipoly_mul.pairs_kept", kept)
        self._count("genfun.multipoly_mul.pairs_tried", len(exps_a) * len(exps_b))

    def _json_hook(self, args, result):
        self._count("report.json.bytes", len(result.encode("utf-8")))

    def install(self):
        hooks = {
            "QSeries.__mul__": self._series_mul_hook,
            "MultiPoly.__mul__": self._multipoly_mul_hook,
            "reports_to_json": self._json_hook,
        }
        targets = VERIFIER_TARGETS
        if self.full:
            combinat = sys.modules.get(COMBINAT_MODULE)
            combinat_targets = tuple(
                ("combinat", COMBINAT_MODULE, name)
                for name, value in sorted(vars(combinat).items())
                if callable(value) and not name.startswith("_")
                and getattr(value, "__module__", None) == COMBINAT_MODULE
            ) if combinat else ()
            targets = SERIES_TARGETS + LAYER_TARGETS + combinat_targets + VERIFIER_TARGETS
        for group, module_name, path in targets:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append((group, f"{module_name}.{path}"))
                continue
            owner, attr, original = found
            if group == "verify":
                wrapper = self._wrap_verifier(path, original)
                if self.full:
                    wrapper = self._wrap("verify.self", path, wrapper)
            else:
                wrapper = self._wrap(group, path, original, hooks.get(path),
                                     record_span=group not in HOT_GROUPS)
            self._patcher.replace_everywhere(owner, attr, original, wrapper)
            self.groups.add(group)
        return self

    def uninstall(self):
        self._patcher.restore()

    # -- results

    def case_seconds(self):
        return [seconds for _, seconds in self.cases]

    def layer_metrics(self):
        """Counts and self times per group, plus the per-identity case table."""
        out = {}
        for group in self.groups - {"verify"}:
            out[f"{group}.calls"] = self.calls.get(group, 0)
            out[f"{group}.self_s"] = self.self_s.get(group, 0.0)
        if "series.mul" in self.groups:
            out["series.mul.term_ops"] = 0
        if "report.json" in self.groups:
            out["report.json.bytes"] = 0
        out.update(self.extra)
        tried = out.pop("genfun.multipoly_mul.pairs_tried", 0)
        kept = out.pop("genfun.multipoly_mul.pairs_kept", 0)
        out["genfun.multipoly_mul.kept_ratio"] = kept / tried if tried else 0.0
        if "report.json.self_s" in out:
            out["report.json.s"] = out.pop("report.json.self_s")
        for identity, seconds in self.cases:
            out[f"verify.{identity}.cases"] = out.get(f"verify.{identity}.cases", 0) + 1
            out[f"verify.{identity}.s"] = out.get(f"verify.{identity}.s", 0.0) + seconds
        return out

    def span_records(self):
        """[id, name, start, end, parent id or -1], times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans and self.spans[0] else 0.0
        for index, span in enumerate(self.spans):
            if span is not None:
                name, t0, t1, parent = span
                yield [index, name, round(t0 - origin, 7), round(t1 - origin, 7), parent]
