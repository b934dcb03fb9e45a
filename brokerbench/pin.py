"""Pin the output digests of every workload seed into expected.json.

    python3 brokerbench/pin.py

Runs each workload twice in fresh processes and refuses to pin unless both runs
wrote the same bytes. Re-pin only in a change that alters the output files on
purpose and says why.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, run_rep, work_dir
from workloads import WORKLOADS


def main() -> int:
    pinned: dict[str, dict[str, dict[str, str]]] = {}
    with work_dir("pin-") as reps_dir:
        for name, workload in WORKLOADS.items():
            seeds = list(workload.seeds)
            reps = [run_rep(name, seeds, False, reps_dir / f"{name}-{i}", 600.0) for i in range(2)]
            for rep in reps:
                if rep.error:
                    print(f"{name}: {rep.error}", file=sys.stderr)
                    return 1
            if reps[0].digests != reps[1].digests:
                print(f"{name}: two runs wrote different bytes", file=sys.stderr)
                return 1
            pinned[name] = {str(seed): reps[0].digests[seed] for seed in seeds}
            print(f"{name}: pinned seeds {seeds}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
