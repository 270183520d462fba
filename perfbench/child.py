"""One cold pass of one workload, in its own process.

    python3 perfbench/child.py ROOT WORKLOAD SEED SIZE MODE [SPANS_PATH]

ROOT is the checkout whose src/qmzv is measured.  The pass imports the
library, builds the seeded inputs (together: set-up), runs the workload once
(timed), then checks the outputs (untimed) and prints one JSON line.  MODE is
"setup" (stop after set-up), "run", or "trace": the layers are wrapped for
the timed part only and the spans are written to SPANS_PATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def import_library(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qmzv

    where = Path(qmzv.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"qmzv imported from {where}, not from {src}")
    import qmzv.cli  # noqa: F401  (loads every layer, as the command does)


def main(argv):
    t_start = time.perf_counter()
    root, name, seed, size, mode = Path(argv[0]), argv[1], int(argv[2]), argv[3], argv[4]
    trace = mode == "trace"
    spans_path = argv[5] if len(argv) > 5 else None
    import_library(root)
    import tracer as tracing  # this script's directory is on sys.path
    import workloads

    workload = workloads.build(name, seed, size)
    setup_s = time.perf_counter() - t_start
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    caches = tracing.find_caches()
    before = tracing.cache_snapshot(caches)
    tracer = tracing.Tracer(full=trace)
    if trace or name == "suite-mid":
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        outputs, op_seconds = workload.run(tracer)
    finally:
        run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = tracing.cache_snapshot(caches)

    failed, problems = workload.check(outputs)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": workload.ops,
        "failed": len(failed),
        "op_s": op_seconds,
        "problems": problems,
        "digests": workload.digests(outputs),
    }
    if trace:
        layers = tracer.layer_metrics()
        layers.update(tracing.cache_metrics(before, after))
        result["layers"] = layers
        result["unwrapped"] = tracer.missing
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in tracer.span_records():
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
