"""One benchmark process: set up a workload, then run its timed passes.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  It prints ``SETUP_DONE <monotonic clock> <input digest>`` as soon
as set-up ends (the parent measures set-up from its own clock reading
before the start), then ``SETUP_KERNEL <kernel seconds> <seconds spent
calibrating>``: the mean calibration-kernel time at the start and at the
end of set-up, and the time the first samples took inside the set-up
window.  Unless ``--setup-only``, it prints one JSON line with the pass
results at the end.  A traced run also writes its spans, one JSON
object a line, to ``perfbench-out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def run_job(wl, job, sentinel, tracer=None):
    """Run one job; returns its record.  The latency excludes the check
    and ``kernel_s``, the mean of calibration samples taken just before
    and just after the job."""
    import calibration
    import workloads

    if job.cold:
        workloads.clear_context_cache()
    gc.collect()  # garbage left by earlier jobs is not charged to this one
    kernel_before = calibration.sample()
    before = sentinel.snapshot()
    if tracer is not None:
        tracer.begin_job(job.name)
    error = defect = None
    start = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a failing job is counted, the pass goes on
        out = None
        error = "%s: %s" % (type(exc).__name__, exc)
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_job()
    kernel_s = (kernel_before + calibration.sample()) / 2
    if out is workloads.SKIPPED:
        return None
    after = sentinel.snapshot()
    built = after["Homology.__init__"] - before["Homology.__init__"]
    orbits = after["sl2z_orbit"] - before["sl2z_orbit"]
    if error is None:
        try:
            job.check(out)
        except workloads.KnownDefect as exc:
            defect = str(exc)
        except workloads.CheckFailed as exc:
            error = "check: %s" % exc
        except Exception as exc:  # malformed output, e.g. a missing JSON key
            error = "check: %s: %s" % (type(exc).__name__, exc)
    flag = None
    if wl.name == "homology-cold" and error is None and built == 0 and orbits == 0:
        error = "guard: built no Homology and enumerated no orbit (ran warm)"
    if wl.name == "walks" and orbits:
        flag = "enumerated %d orbit(s) in the timed phase" % orbits
    return {"job": job.name, "s": latency, "kernel_s": kernel_s, "error": error, "flag": flag, "defect": defect}


def run_pass(wl, sentinel, tracer=None):
    wl.begin_pass()
    start = time.perf_counter()
    records = [r for r in (run_job(wl, job, sentinel, tracer) for job in wl.jobs) if r]
    return {"elapsed": time.perf_counter() - start, "jobs": records}


def write_spans(tracer, wl):
    """Write the traced spans as JSON lines; returns the path written."""
    path = ROOT / "perfbench-out" / ("spans-%s-%d.jsonl" % (wl.name, wl.seed))
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for job, sid, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"job": job, "id": sid, "parent": parent,
                                 "name": name, "start": start, "end": end}) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None):
    args = parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, workdir):
    sys.path.insert(0, str(HERE))
    import calibration

    start = time.perf_counter()
    kernel_start = statistics.median(calibration.sample() for _ in range(5))
    calibrating_s = time.perf_counter() - start  # run.py subtracts it from set-up

    import spec
    import tracing
    import workloads

    try:
        wl = workloads.build(args.workload, args.seed, ROOT, workdir)
    except workloads.SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    print("SETUP_DONE %.9f %s" % (time.monotonic(), wl.digest), flush=True)
    kernel_end = statistics.median(calibration.sample() for _ in range(5))
    print("SETUP_KERNEL %.9f %.9f" % ((kernel_start + kernel_end) / 2, calibrating_s), flush=True)
    if args.setup_only:
        return 0

    sentinel = tracing.Sentinel()
    sentinel.install()
    passes = []
    trace_report = None
    t0 = time.perf_counter()
    if args.trace:
        # one untraced pass, then one traced pass of the same jobs
        passes.append(run_pass(wl, sentinel))
        tracer = tracing.Tracer(spec.INTENDED_LAYERS[wl.name])
        tracer.install()
        traced = run_pass(wl, sentinel, tracer)
        tracer.uninstall()
        untraced_wall = sum(calibration.scaled(r["s"], r["kernel_s"]) for r in passes[0]["jobs"])
        traced_wall = sum(calibration.scaled(r["s"], r["kernel_s"]) for r in traced["jobs"])
        overhead = traced_wall / untraced_wall if untraced_wall else 0.0
        trace_report = {
            "metrics": tracer.metrics(overhead),
            "absent": tracer.absent,
            "shares": tracer.layer_shares(),
            "intended_layers": list(spec.INTENDED_LAYERS[wl.name]),
            "spans": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "spans_file": write_spans(tracer, wl),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
        }
        passes.append(traced)
    else:
        while True:
            passes.append(run_pass(wl, sentinel))
            elapsed = time.perf_counter() - t0
            typical = statistics.median(p["elapsed"] for p in passes)
            if elapsed + typical > args.seconds:
                break
    sentinel.uninstall()

    import numpy

    result = {
        "digest": wl.digest,
        "fixtures": wl.fixtures,
        "passes": passes,
        "trace": trace_report,
        "absent_sentinels": [k for k, ok in sentinel.present.items() if not ok],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report the set-up failure to the parent and exit non-zero
        traceback.print_exc()
        sys.exit(3)
