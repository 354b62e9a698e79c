"""Record the golden output and problem sizes of every benchmark job.

    python3 perfbench/record_goldens.py

Run from the repository root, at the commit whose outputs are the
reference.  The fixed workloads do not depend on the seed; the query stream
is recorded for the default and the held-out seed.  Writes goldens.json.
"""

import json
import os
import sys

from jobs import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS
from run import GOLDENS, load_jetcalc, output_sizes, run_job


def main() -> int:
    cli_main = load_jetcalc(os.getcwd())
    from tracer import SIZE_TARGETS, Tracer

    goldens = {}
    for make in WORKLOADS.values():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for job in make(seed).jobs:
                if job.key in goldens:
                    continue
                tracer = Tracer(SIZE_TARGETS)
                tracer.install()
                try:
                    code, stdout, _ = run_job(cli_main, job.argv)
                finally:
                    tracer.uninstall()
                err = f"exit {code}" if code != job.exit else job.check(json.loads(stdout))
                if err:
                    raise SystemExit(f"error: {' '.join(job.argv)}: {err}")
                goldens[job.key] = {"exit": code, "stdout": stdout,
                                    "sizes": {"solver": tracer.solver_sizes().get(0, []),
                                              **output_sizes(stdout)}}
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(goldens)} jobs in {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
