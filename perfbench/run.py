"""The repository benchmark: one workload, one seed, end-to-end or per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-rmw --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats untraced rounds of the seeded simulation for about
``--seconds`` wall seconds and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  The run fails (``"correct": false``, exit status 1)
if a round's outputs fail the workload's correctness checks or if two
rounds of the seed disagree; it exits with status 2, printing nothing on
standard output, when the simulator sources are missing.

The last line of standard output is the result object; the line before
it holds the details (host facts, per-round figures, the deterministic
fingerprint).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("ledger-repl", "ycsb-read", "ycsb-rmw")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no simulator sources at {src}", file=sys.stderr)
        return 2
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.measure import measure

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in report["details"]["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"details": report["details"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
