"""One round of one workload, in a process of its own.

``run.py`` starts this file once per (workload, round) so that every
round pays interpreter boot and imports afresh (that is ``setup_s``),
owns its peak RSS, and cannot warm anything for the next round.  The
last line of standard output is the round's result as one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--profile", type=int, default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()

    from layers import layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, bool(args.smoke), args.tmp)
    workload.setup()

    profile = cProfile.Profile() if args.profile else None
    wall_start = time.perf_counter()
    setup_s = time.process_time()
    if profile is not None:
        profile.enable()
    workload.run()
    if profile is not None:
        profile.disable()
    cpu_s = time.process_time() - setup_s
    wall_s = time.perf_counter() - wall_start
    # Read before the digest and the checks below allocate: the peak is
    # the simulator's, not the ledger's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = workload.outcome()
    result.update(cpu_s=cpu_s, wall_s=wall_s, setup_s=setup_s,
                  peak_rss_mb=peak_rss_mb)
    if profile is not None:
        result["layers"] = layer_metrics(profile, result["packets"])
        if hasattr(workload, "datapath_micro"):
            result["counters"].update(workload.datapath_micro())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
