"""qmzv benchmark: closed-loop, single-threaded, one cold process per pass.

    python3 perfbench/run.py --workload suite-mid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

Run it from the root of a checkout: the library is imported from ./src.  One
caller runs passes one after another until --seconds have gone by; each pass
is a fresh Python process that imports qmzv, builds the seeded inputs, runs
the workload once and checks every output (see child.py and workloads.py).

With --trace 0 the last line of stdout is one JSON object holding every
end-to-end metric of BENCHMARK.json.  With --trace 1 untraced and traced
passes alternate; the last line holds every per-layer metric, and
trace.overhead_frac compares the two kinds of pass.  Lines before it show the
environment and a table of every metric with its unit.  The exit code is 0
when the passes ran; the "correct" field says whether every output checked
out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD = HERE / "child.py"
OUT = HERE / "out"
DEADLINE_S = 170  # every run ends well inside three minutes
SETUPS = 7  # set-up-only processes per run, besides the set-up of every pass
MIN_PASSES = 4  # untraced passes per run at least: each latency is a median over them


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no BENCHMARK.json in {ROOT}; run from the root of a checkout")
    if not (ROOT / "src" / "qmzv" / "__init__.py").is_file():
        fail(f"no src/qmzv in {ROOT}; nothing to measure")
    return json.loads(path.read_text(encoding="utf-8"))


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def run_pass(name, seed, size, mode, deadline):
    spans = OUT / f"spans-{name}.jsonl"
    cmd = [sys.executable, str(CHILD), str(ROOT), name, str(seed), size, mode, str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail(f"a {name} pass ran past the {DEADLINE_S} s deadline")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"a {name} pass exited with code {done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        fail(f"a {name} pass printed no result")


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def measure(name, seed, seconds, trace, size):
    """Set up SETUPS times (untraced runs), then run passes until `seconds`
    have elapsed and MIN_PASSES have run; traced runs alternate untraced and
    traced passes."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    setups = [run_pass(name, seed, size, "setup", deadline)["setup_s"]
              for _ in range(0 if trace else SETUPS)]
    start = time.monotonic()
    plain, traced = [], []
    longest = 0.0
    while True:
        want_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        mode = "trace" if want_trace else "run"
        (traced if want_trace else plain).append(run_pass(name, seed, size, mode, deadline))
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        done = now - start >= seconds and (traced if trace else len(plain) >= MIN_PASSES)
        if done or now + longest > deadline:
            break
    if trace and not traced:
        fail(f"no time left for a traced {name} pass")
    return setups + [p["setup_s"] for p in plain + traced], plain, traced


def op_latencies(plain, problems):
    """Each operation's median time over the passes, ascending.

    Every pass runs the same operations in the same order.  A slow stretch of
    the machine hits some operations of one pass and moves a percentile of
    sub-millisecond operations far more than the pass time; the median of the
    passes' times for the same operation does not see it.
    """
    if len({len(p["op_s"]) for p in plain}) > 1:
        problems.append("passes timed different numbers of operations")
        return sorted(s for p in plain for s in p["op_s"])
    return sorted(statistics.median(times) for times in zip(*(p["op_s"] for p in plain)))


def end_to_end(setups, plain, problems):
    """Time metrics as medians over the run's passes, which do identical work.

    On a shared machine the speed wanders by a quarter and more, for seconds
    to minutes at a time.  The median pass and each operation's median time
    follow the state the machine spent most of the run in; the fastest pass
    follows a rare fast stretch, and whether a run caught one.
    """
    latencies = op_latencies(plain, problems)
    run_s = statistics.median(p["run_s"] for p in plain)
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "run_cpu_s": statistics.median(p["run_cpu_s"] for p in plain),
        "ops_per_s": plain[0]["ops"] / run_s,
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }, len(latencies)


def per_layer(plain, traced, declared, problems):
    layers = {}
    for key in sorted({k for p in traced for k in p["layers"]}):
        values = [p["layers"][key] for p in traced if key in p["layers"]]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                problems.append(f"count {key} differs between traced passes: {values}")
            layers[key] = values[0]
        else:
            layers[key] = statistics.median(values)
    layers["trace.overhead_frac"] = (
        statistics.median(p["run_s"] for p in traced)
        / statistics.median(p["run_s"] for p in plain) - 1)
    verifiers_wrapped = not any(group == "verify" for p in traced for group, _ in p["unwrapped"])
    for metric in declared:
        if metric not in layers and verifiers_wrapped and metric.startswith("verify.") \
                and metric.endswith((".cases", ".s")) and metric != "verify.exact_rank.self_s":
            layers[metric] = 0  # no case of this identity ran in this workload
    return layers


def run_workload(name, seed, seconds, trace, size, spec):
    OUT.mkdir(exist_ok=True)
    setups, plain, traced = measure(name, seed, seconds, trace, size)
    passes = plain + traced
    problems = [msg for p in passes for msg in p["problems"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {json.dumps(p["digests"], sort_keys=True) for p in passes}
    if len(digests) > 1:
        problems.append("outputs differ between passes of the same seed")
    e2e, samples = end_to_end(setups, plain, problems)
    e2e["ok_frac"] = 1 - failed / attempted
    kind = "per_layer" if trace else "end_to_end"
    values = per_layer(plain, traced, [m["name"] for m in spec[kind]], problems) \
        if trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind] if m["name"] in values}
    absent = [m["name"] for m in spec[kind] if m["name"] not in values]
    env = {
        "workload": name, "seed": seed, "size": size, "trace": int(trace),
        "python": platform.python_version(), "cpus": os.cpu_count(), "git_sha": git_sha(),
        "passes": len(plain), "traced_passes": len(traced), "latency_samples": samples,
    }
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(env=env, result=result, absent=absent, problems=problems,
                  end_to_end=e2e, layers=values if trace else None, setups_s=setups,
                  passes=[{k: p[k] for k in ("setup_s", "run_s", "run_cpu_s", "peak_rss_mb")}
                          for p in plain])
    (OUT / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print("env: " + json.dumps(env))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    if absent:
        print("absent: " + ", ".join(absent))
    print(f"{name}: {attempted} ops, fail_frac {failed / attempted:.6f}, "
          f"{samples} latencies, each the median of {len(plain)} untraced passes")
    for metric, entry in metrics.items():
        print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = load_spec()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size, spec)
    else:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      args.size, spec) for name in NAMES}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
