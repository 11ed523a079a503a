"""Regenerate reference.json: the check values of one full cycle of every
workload at the reference seed.

    python3 perfbench/make_reference.py [--workload NAME]

Run it only when the model's arithmetic is meant to change; a reference made
from a wrong program makes the correctness gate check the wrong thing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import REFERENCE, run_workload
from workloads import REFERENCE_SEED, WORKLOADS

SECONDS = 60  # long enough for every workload to reach the end of its cycle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    stored = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as f:
            stored = json.load(f)
    for name in [args.workload] if args.workload else list(WORKLOADS):
        w = WORKLOADS[name]
        result = run_workload(w, REFERENCE_SEED, SECONDS, trace=False, reference=None)
        checks = result["observed"]
        if result["failed"] or len(checks) != w.cycle:
            sys.exit(f"{name}: {result['failed']} failed steps, {len(checks)} of "
                     f"{w.cycle} cycle positions seen: {result['failures']}")
        stored[name] = checks
        print(f"{name}: {len(checks)} cycle positions", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
