"""The wbq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, in one process, as a closed loop
with one client: each job starts when the previous one has finished.  The
timed phase repeats the workload's job list (a pass) as often as it fits in
--seconds at the workload's nominal pass time; at least one pass runs.
Set-up time is measured in fresh child processes, from spawn to the first
job being ready.  Every job's output is checked after its pass, outside the
timed region.

Times are reported in reference seconds (see speed.py): wall time rescaled
by the core's speed, sampled while the run goes, so that the figures do not
follow the speed swings of a shared host.  The plain wall-clock figures are
printed next to them.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics of BENCHMARK.json.  With --trace 1 the run wraps the
package's layers (see tracing.py), runs one traced pass and then the same
pass untraced, whatever --seconds says, prints the per-layer metrics and
writes the spans to .bench_out/trace-<workload>-<seed>.jsonl.

Every run points WBQ_CACHE_DIR at a fresh directory under .bench_out, so
no user cache leaks in, and removes it at exit.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics():
    """(name, unit) of the end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def measure_setup(workload, env):
    """Set-up times of fresh interpreters run one after another: from spawn
    to the child starting its script in wall seconds, plus the child's own
    import and set-up in reference seconds (both read CLOCK_MONOTONIC)."""
    samples = []
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    for _ in range(SETUP_SAMPLES):
        spawned = clock()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up probe timed out")
        if proc.returncode != 0:
            raise BenchError("set-up probe failed: %s"
                             % proc.stderr.strip().splitlines()[-1:])
        report = json.loads(proc.stdout)
        samples.append(report["start"] - spawned + report["setup"])
    return samples


def run_pass(wbq, jobs, tracer=None):
    """Run ``jobs`` back to back; returns ((start, end), outcomes).  Traced
    jobs are numbered from 1; the set-up is job 0."""
    outcomes = []
    start = clock()
    for number, job in enumerate(jobs, 1):
        if tracer is not None:
            tracer.job = number
        t0 = clock()
        try:
            value, error = job.run(wbq), None
        except Exception as exc:  # a failed job is counted, not fatal
            value, error = None, exc
        t1 = clock()
        if tracer is not None:
            tracer.job = None
        outcomes.append(workloads.Outcome(job, value, error, t0, t1))
    return (start, clock()), outcomes


def judge(outcomes):
    """Check every outcome and drop its value; returns CLI output bytes."""
    output_bytes = 0
    for outcome in outcomes:
        outcome.judge()
        output_bytes += outcome.output_bytes
        outcome.value = None
    return output_bytes


def percentile(values, fraction):
    """The ``fraction`` quantile by linear interpolation between order
    statistics (statistics.quantiles' inclusive method)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def timed_phase(wbq, workload, seconds):
    """As many passes as fit in ``seconds`` at the workload's nominal pass
    time, at least one; the count does not depend on the machine's speed,
    so every run of one seed does the same work.  Returns the pass
    intervals, the outcomes and the speedometer that sampled them."""
    passes, outcomes = [], []
    with speed.Speedometer() as meter:
        for index in range(max(1, int(seconds // workload.pass_seconds))):
            workload.reset()
            interval, done = run_pass(wbq, workload.jobs(index))
            judge(done)
            passes.append(interval)
            outcomes.extend(done)
    return passes, outcomes, meter


def traced_phase(wbq, workload, tracer):
    """Pass 0 traced, then the same job list untraced.  Returns the traced
    and untraced outcomes, the speedometer and the figures the spans do
    not give."""
    with speed.Speedometer() as meter:
        workload.reset()
        traced_pass, traced = run_pass(wbq, workload.jobs(0), tracer)
        output_bytes = judge(traced)
        extra = {
            "engine.table_memo.entries": len(
                getattr(wbq.engine, "_TABLE_MEMO", ())),
            "repthy.sw_memo.entries": len(
                getattr(wbq.repthy, "_SW_MEMO", ())),
        }
        tracer.uninstall()
        workload.reset()
        untraced_pass, untraced = run_pass(wbq, workload.jobs(0))
        judge(untraced)
    extra["cli.output_bytes"] = output_bytes
    extra["trace.traced_wall_s"] = meter.normalized(*traced_pass)
    extra["trace.untraced_wall_s"] = meter.normalized(*untraced_pass)
    extra["trace.overhead_s"] = (extra["trace.traced_wall_s"]
                                 - extra["trace.untraced_wall_s"])
    extra["trace.spans"] = len(tracer.spans)
    return traced, untraced, meter, extra


def summarize(outcomes):
    attempted = len(outcomes)
    known = sum(1 for o in outcomes if o.known_failure)
    failed = sum(1 for o in outcomes if not o.ok)
    wrong = [o.job.label for o in outcomes if not o.ok]
    return attempted, failed, known, wrong


def timings(walls, latencies):
    """The time metrics from pass durations and job latencies (seconds)."""
    latencies_ms = sorted(x * 1000.0 for x in latencies)
    p90 = percentile(latencies_ms, 0.9)
    return {
        "wall_s": statistics.median(walls),
        "jobs_per_s": len(latencies) / sum(walls),
        "job_p50_ms": statistics.median(latencies_ms),
        "job_p90_ms": p90,
        "beyond_p90": sum(1 for x in latencies_ms if x > p90),
    }


def end_to_end(setup_samples, passes, outcomes, meter):
    """End-to-end metrics with every time of the timed phase in reference
    seconds, and the same figures in plain wall seconds."""
    values = timings([meter.normalized(a, b) for a, b in passes],
                     [meter.normalized(o.start, o.end) for o in outcomes])
    raw = timings([b - a for a, b in passes], [o.seconds for o in outcomes])
    values["setup_s"] = statistics.median(setup_samples)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return values, raw


def report(args, values, units, details):
    print("workload %s  seed %d  trace %d"
          % (args.workload, args.seed, args.trace))
    for name, unit in units:
        print("  %-48s %14.6g %-6s %s"
              % (name, values[name], unit, details.get(name, "")))


def run(args, workdir):
    e2e_units, layer_units = declared_metrics()
    env = dict(os.environ)
    env["WBQ_CACHE_DIR"] = os.path.join(workdir, "cache")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["WBQ_CACHE_DIR"])
    os.makedirs(env["TMPDIR"])
    os.environ.update(WBQ_CACHE_DIR=env["WBQ_CACHE_DIR"],
                      TMPDIR=env["TMPDIR"])
    tempfile.tempdir = env["TMPDIR"]

    setup_samples = measure_setup(args.workload, env)
    sys.path.insert(0, SRC)
    import wbq
    import wbq.cli  # not imported by the package itself

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(wbq)
        tracer.job = 0
    workloads.setup(args.workload, wbq)
    if tracer is not None:
        tracer.job = None
    workload = workloads.make(args.workload, args.seed, workdir, wbq)

    if tracer is None:
        passes, outcomes, meter = timed_phase(wbq, workload, args.seconds)
        attempted, failed, known, wrong = summarize(outcomes)
        values, raw = end_to_end(setup_samples, passes, outcomes, meter)
        units = e2e_units
        details = {
            "setup_s": "median of %d set-ups" % len(setup_samples),
            "wall_s": "median of %d passes" % len(passes),
            "jobs_per_s": "%d jobs" % attempted,
            "job_p50_ms": "%d jobs" % attempted,
            "job_p90_ms": "%d jobs, %d beyond" % (attempted,
                                                   values["beyond_p90"]),
        }
        for name in details:
            if name in raw:
                details[name] += "; wall clock %.6g" % raw[name]
        details["wall_s"] += "; %d speed samples, median %.3g ms" % (
            len(meter.durations),
            1000 * statistics.median(meter.durations or [0]))
    else:
        traced, untraced, meter, extra = traced_phase(wbq, workload, tracer)
        attempted, failed, known, wrong = summarize(traced + untraced)
        values = tracer.metrics(meter.normalized)
        values.update(extra)
        units = layer_units
        details = {}
        tracer.write(os.path.join(OUT, "trace-%s-%d.jsonl"
                                  % (args.workload, args.seed)),
                     ["setup"] + [o.job.label for o in traced])
    report(args, values, units, details)
    print("  %-48s %14.6g %-6s %d of %d jobs, %d of them known defects"
          % ("failed_frac", (failed + known) / attempted, "ratio",
             failed + known, attempted, known))
    for label in wrong:
        print("  WRONG OUTPUT: %s" % label)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units}
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wbq", "__init__.py")):
        sys.stderr.write("error: no wbq package under %s\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        result = run(args, workdir)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
