"""Write expected.json: the output digests of every workload at the default seed.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right; the
benchmark then fails any later output that differs.  Every check of the
record run itself must pass, or nothing is written.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, EXPECTED_PATH, NAMES  # noqa: E402


def main():
    EXPECTED_PATH.unlink(missing_ok=True)  # the record run checks nothing against it
    expected = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(Path.cwd()), name,
             str(DEFAULT_SEED), "full", "run"],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["failed"] or result["problems"]:
            raise SystemExit(f"{name}: {result['failed']} failed, {result['problems']}")
        expected[name] = result["digests"]
        print(f"{name}: {result['ops']} ops in {result['run_s']:.2f} s")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
