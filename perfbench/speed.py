"""Host speed during a run, from a fixed reference kernel.

On a shared host, other tenants slow this process down by up to 2x for
minutes at a time: the fastest and the median repetition of a job then
both move with the host, and no amount of repetition inside one run
removes that.  The benchmark therefore runs a fixed kernel between jobs, for
a set share of the time the jobs took, and scales its timings by
`REFERENCE_S / mean kernel time`: a run on a busy host and one on an idle
host then report the same figure, in seconds of an idle host.

The kernel does the kind of work jetcalc does (products of sparse
polynomials keyed by sorted factor tuples, with Fraction coefficients) but
does not use jetcalc, so no change to the program changes it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Seconds one kernel call takes on the idle 2-vCPU Xeon host the benchmark
# was defined on.  It sets the scale of normalized figures only.
REFERENCE_S = 0.00115
# Kernel time spent after each job, as a share of the job's time.
SHARE = 0.05

_A = {tuple(sorted({(i % 7, 1), ((i * 3) % 11 + 7, 2)})): Fraction(i + 1, 3) for i in range(16)}
_B = {tuple(sorted({(j % 5 + 20, 1), (j % 9, 1)})): Fraction(j - 7, 5) for j in range(16)}


def kernel() -> int:
    out: dict = {}
    for fa, ca in _A.items():
        for fb, cb in _B.items():
            d = dict(fa)
            for v, e in fb:
                d[v] = d.get(v, 0) + e
            f = tuple(sorted(d.items()))
            s = out.get(f, 0) + ca * cb
            if s:
                out[f] = s
            else:
                out.pop(f, None)
    return len(out)


class HostSpeed:
    """Kernel timings spread over a run in proportion to the jobs' time."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, job_seconds: float):
        spent = 0.0
        while True:
            t = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t
            self.samples.append(dt)
            spent += dt
            if spent >= SHARE * job_seconds:
                return

    def factor(self) -> float:
        """Multiply a time measured during the run by this to normalize it."""
        return REFERENCE_S / statistics.mean(self.samples)
