"""Re-record ``expected.json``: the pinned report digest and workload
shape of the default seed (7) and the held-out seed (11), plus each
workload's shape-class tolerances.

Run it only when a change is meant to alter the profiler's output or
the simulated traffic, and say so in the change::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, WORKLOADS, derived_shape, shape_problems, spawn

PINNED_SEEDS = (7, 11)
REFERENCE_SEED = "7"

#: Shape class: how far another seed's session may sit from the
#: reference seed's and still count as the same workload.  "rel" is a
#: share of the reference value, "abs" a difference in the value's own
#: unit (percentage points for the *_pct shares).  Set from seeds 1, 2,
#: 3, 7 and 11, whose widest deviations were: samples 1.3 %, epoch maps
#: 17 % (fleet), map records 13 % (steady_state), distinct keys 1 pp,
#: JIT share 2.3 pp (fleet), earlier-epoch share 3.5 pp (fleet).
SHAPE_CLASS = {
    "samples": ["rel", 0.05],
    "epoch_maps": ["rel", 0.3],
    "map_records": ["rel", 0.25],
    "domains": ["abs", 0],
    "distinct_key_pct": ["abs", 3.0],
    "jit_pct": ["abs", 4.0],
    "earlier_epoch_pct": ["abs", 6.0],
}


def main() -> int:
    work = ROOT / ".perfbench" / "pin"
    expected: dict[str, dict] = {}
    try:
        for workload in WORKLOADS:
            seeds = {}
            for seed in PINNED_SEEDS:
                r = spawn(workload, seed, work, trace=False, timeout=600)
                if "crash" in r or r["problems"]:
                    print(f"{workload} seed {seed}: {r}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = {"digest": r["digest"], "shape": r["shape"]}
                print(workload, seed, derived_shape(r["shape"]))
            expected[workload] = {
                "reference_seed": REFERENCE_SEED,
                "shape_class": SHAPE_CLASS,
                "seeds": seeds,
            }
            # The held-out seed must land in the reference seed's class.
            held_out = {REFERENCE_SEED: seeds[REFERENCE_SEED]}
            problems = shape_problems(
                workload, -1, seeds["11"]["shape"],
                {workload: {**expected[workload], "seeds": held_out}},
            )
            if problems:
                print(f"{workload}: seed 11 {problems}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
