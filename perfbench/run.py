"""Run one workload of the jetcalc benchmark and print its metrics.

    python3 perfbench/run.py --workload solve_ansatz --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: jetcalc is imported from ./src.
One single-threaded, closed-loop client calls `jetcalc.cli.main([...,
"--format", "structured"])` in this process, each job after the previous one
returned.  A pass runs the workload's whole job list, rotated by one job
per pass; passes repeat until `--seconds` have passed.

`--trace 0` reports the end-to-end metrics.  A job's latency is its mean
over the run, scaled to an idle host by the reference kernel of speed.py;
`wall_s` is the sum of these over the job list (one pass), `query_p50_ms`
their median and `query_tail_ms` the highest of the 50th, 90th, 95th, 99th
and 99.9th percentiles that has at least ten jobs beyond it (the median for
lists shorter than twenty jobs).  `setup_s` is the median, scaled alike, of
fresh processes, started between passes, that import jetcalc and parse the
workload's equation files; `peak_rss_mb` is the peak resident size of this
process.  `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics of tracer.py; the spans of the last traced
pass go to perfbench/results/, next to a JSON file with the details of
every run.

Every job's exit code and facts are checked, and where a golden output was
recorded (goldens.json, see record_goldens.py) the output must match it
byte for byte and the problem sizes must equal the recorded ones.  Timing
uses only `time.perf_counter` and `resource.getrusage` of this process and
its probes.  The last line of output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")
RESULTS = os.path.join(HERE, "results")
# About this many set-up probes, spread evenly over the run.
SETUP_PROBES = 15
# At least this many timed passes and set-up probes, whatever --seconds says.
MIN_PASSES = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
SAMPLES_BEYOND = 10


def load_jetcalc(root: str):
    """Import jetcalc from root/src, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "jetcalc", "cli.py")):
        raise SystemExit(f"error: no jetcalc sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import jetcalc

    if not os.path.abspath(jetcalc.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported jetcalc from {jetcalc.__file__}, not from {src}")
    from jetcalc.cli import main

    return main


def run_job(cli_main, argv) -> tuple[object, str, float]:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv) + ["--format", "structured"])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # a traceback is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - t0


def output_sizes(stdout: str) -> dict:
    """Iterate count, term count of every reported polynomial, output bytes."""
    doc = json.loads(stdout) if stdout else {}
    polys = []
    for key in ("basis", "result"):
        value = doc.get(key)
        items = value if isinstance(value, list) else [value]
        for item in items:
            for s in (item if isinstance(item, list) else [item]):
                if isinstance(s, str):
                    polys.append(s)
    terms = [0 if s == "0" else 1 + s.count(" + ") + s.count(" - ") for s in polys]
    iterates = len(doc["result"]) if doc.get("command") == "apply-recursion" else None
    return {"iterates": iterates, "terms": terms, "output_bytes": len(stdout.encode())}


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


class Checker:
    """Counts jobs attempted and failed; keeps the first messages."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, job, code, stdout, solver_sizes=None, facts=True):
        self.attempted += 1
        err = self._problem(job, code, stdout, solver_sizes, facts)
        if err:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{' '.join(job.argv)[:120]}: {err}")

    def _problem(self, job, code, stdout, solver_sizes, facts):
        if code != job.exit:
            return f"exit {code!r}, expected {job.exit}"
        golden = self.goldens.get(job.key)
        if golden is not None and stdout != golden["stdout"]:
            return "structured output differs from the golden"
        if golden is None or facts:
            try:
                doc = json.loads(stdout)
            except ValueError:
                return "output is not JSON"
            err = job.check(doc) if job.check else None
            if err:
                return err
        if golden is not None and solver_sizes is not None:
            sizes = {"solver": solver_sizes, **output_sizes(stdout)}
            if sizes != golden["sizes"]:
                return f"problem size changed: {sizes} != recorded {golden['sizes']}"
        return None


def probe_setup(files) -> float:
    """Seconds to import jetcalc and parse `files` in a fresh process."""
    root = os.getcwd()
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), root] + list(files)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_pass(cli_main, jobs, offset, checker, tracer=None, facts=False, speed=None):
    """One pass over the rotated job list; returns per-job latencies.  With
    `speed`, the host-speed kernel runs after each job, outside its timing."""
    order = jobs[offset % len(jobs):] + jobs[:offset % len(jobs)]
    gc.collect()
    latencies = []
    outputs = []
    for k, job in enumerate(order):
        if tracer is not None:
            tracer.job[0] = k
        code, stdout, dt = run_job(cli_main, job.argv)
        latencies.append(dt)
        outputs.append((job, code, stdout))
        if speed is not None:
            speed.sample(dt)
    sizes = tracer.solver_sizes() if tracer is not None else {}
    for k, (job, code, stdout) in enumerate(outputs):
        checker.check(job, code, stdout, sizes.get(k, []) if tracer is not None else None, facts)
    return latencies, outputs


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least SAMPLES_BEYOND samples above
    it; the median when there are fewer samples than that."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= SAMPLES_BEYOND:
            return p
    return 50.0


def percentile(values, p):
    s = sorted(values)
    if p == 50.0:
        return statistics.median(s)
    k = min(len(s) - 1, int(len(s) * p / 100.0))
    return s[k]


def run_untraced(cli_main, workload, args, checker):
    from speed import HostSpeed
    from tracer import SIZE_TARGETS, Tracer

    jobs = list(workload.jobs)
    t0 = time.perf_counter()
    # The first pass warms up and records problem sizes; it is not timed.
    probe = Tracer(SIZE_TARGETS)
    probe.install()
    try:
        run_pass(cli_main, jobs, 0, checker, tracer=probe, facts=True)
    finally:
        probe.uninstall()
    # Job latencies are means over the run, normalized to an idle host
    # (speed.py); set-up is probed between passes all through the run.
    speed = HostSpeed()
    passes = []
    per_job = {job.key: [] for job in jobs}
    setup = []
    next_probe = t0
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        latencies, outputs = run_pass(cli_main, jobs, len(passes) + 1, checker, speed=speed)
        passes.append(latencies)
        for (job, _, _), dt in zip(outputs, latencies):
            per_job[job.key].append(dt)
        if time.perf_counter() >= next_probe:
            setup.append(probe_setup(workload.files))
            next_probe = time.perf_counter() + args.seconds / SETUP_PROBES
    while len(setup) < MIN_PASSES:
        setup.append(probe_setup(workload.files))
    factor = speed.factor()
    values = [statistics.mean(v) * factor for v in per_job.values()]
    p = tail_percentile(len(values))
    tail = percentile(values, p)
    metrics = {
        "wall_s": (sum(values), "s"),
        "query_p50_ms": (1000 * statistics.median(values), "ms"),
        "query_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(setup) * factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [round(sum(lat), 6) for lat in passes],
        "query_samples": len(values),
        "query_tail_percentile": p,
        "query_samples_beyond_tail": sum(1 for v in values if v > tail),
        "setup_probes_s": [round(s, 6) for s in setup],
        "speed_factor": factor,
        "kernel_samples": len(speed.samples),
        "job_latencies_s": per_job,
    }
    return metrics, detail


SIZES = ("monomials", "unknowns", "rows", "nonzeros", "rank", "nullity")


def layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "rank_per_row", "coverage", "overhead_frac")):
        return "ratio"
    if name.endswith("output_bytes"):
        return "bytes"
    if name.endswith(("_calls", "remainder_solves")) or name.split(".", 1)[1] in SIZES:
        return "count"
    return "s"


def run_traced(cli_main, workload, args, checker):
    """Alternate untraced and traced passes; per-layer metrics are medians
    over traced passes, and every count must repeat exactly.  The passes
    alternate, so the tracing overhead compares each job's fastest traced
    and untraced repetitions directly."""
    from tracer import Tracer

    jobs = list(workload.jobs)
    tracer = Tracer()
    untraced = {job.key: [] for job in jobs}
    traced = {job.key: [] for job in jobs}
    layers = []
    t0 = time.perf_counter()
    while len(layers) < 2 or time.perf_counter() - t0 < args.seconds:
        latencies, outputs = run_pass(cli_main, jobs, len(layers), checker, facts=True)
        for (job, _, _), dt in zip(outputs, latencies):
            untraced[job.key].append(dt)
        tracer.reset()
        tracer.install()
        try:
            latencies, outputs = run_pass(cli_main, jobs, len(layers), checker, tracer=tracer)
        finally:
            tracer.uninstall()
        for (job, _, _), dt in zip(outputs, latencies):
            traced[job.key].append(dt)
        m = tracer.analyse(sum(latencies))
        m["cli.output_bytes"] = sum(len(out.encode()) for _, _, out in outputs)
        layers.append(m)
    tracer.write_spans(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.tsv.gz"))
    counts = [k for k in layers[0] if layer_unit(k) in ("count", "bytes")]
    counts_repeat = all(m[k] == layers[0][k] for m in layers[1:] for k in counts)
    if not counts_repeat:
        checker.failed += 1
        checker.messages.append("trace self-check: counts differ between traced passes")
    metrics = {k: (layers[0][k] if k in counts else statistics.median(m[k] for m in layers), layer_unit(k))
               for k in layers[0]}
    fastest = {mode: sum(min(v) for v in lat.values()) for mode, lat in (("untraced", untraced), ("traced", traced))}
    metrics["trace.overhead_frac"] = (fastest["traced"] / fastest["untraced"] - 1, "ratio")
    detail = {"traced_passes": len(layers), "wall_s": fastest, "counts_repeat": counts_repeat}
    return metrics, detail


def main(argv=None) -> int:
    from jobs import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli_main = load_jetcalc(os.getcwd())
    workload = WORKLOADS[args.workload](args.seed)
    checker = Checker(load_goldens())
    run = run_traced if args.trace else run_untraced
    metrics, detail = run(cli_main, workload, args, checker)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs_per_pass": len(workload.jobs),
              "fail_frac": checker.failed / checker.attempted,
              "failures": checker.messages, **detail}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({k: v for k, v in detail.items() if k != "job_latencies_s"}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
