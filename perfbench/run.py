#!/usr/bin/env python3
"""origami-lab benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload walks --seed 1 --seconds 30 --trace 0

runs set-up five times (four set-up-only processes and the measuring
process itself), then repeats the workload's job list back to back for
about ``--seconds`` and reports the end-to-end metrics, scaled to a
reference machine speed (see calibration.py).  ``--trace 1``
runs one untraced and one traced pass instead and reports the per-layer
metrics and writes the spans to perfbench-out/.  The last line of
standard output is the result object.

    python3 perfbench/run.py --self-test     proves every output check fires
    python3 perfbench/run.py --write-spec    rewrites BENCHMARK.json

See perfbench/README.md for the workloads, metrics and layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import spec  # noqa: E402  (plain data: importable without the library)
import tracing  # noqa: E402

SETUP_RUNS = 5  # set-up samples per run; the measuring process is one of them
TIME_LIMIT = 170.0  # seconds for the whole run, children included

BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class RunFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def preflight():
    if not (ROOT / "src" / "origami_lab" / "__init__.py").is_file():
        raise RunFailed("no origami_lab package under %s/src: run from a full checkout" % ROOT)


def run_child(args, extra, deadline):
    """Start a worker; returns (set-up seconds, kernel seconds after
    set-up, digest, result or None)."""
    workdir = ROOT / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + extra
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=str(ROOT), text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker exceeded the %.0f s time limit" % TIME_LIMIT)
    if proc.returncode != 0:
        raise RunFailed("worker exited with %d:\n%s" % (proc.returncode, err.strip()))
    setup_s = kernel_s = digest = result = None
    for line in out.splitlines():
        if line.startswith("SETUP_DONE "):
            _tag, stamp, digest = line.split()
            setup_s = float(stamp) - start
        elif line.startswith("SETUP_KERNEL "):
            _tag, kernel, calibrating = line.split()
            kernel_s = float(kernel)
            setup_s -= float(calibrating)
        elif line.startswith("{"):
            result = json.loads(line)
    if setup_s is None or kernel_s is None:
        raise RunFailed("worker did not report the end of set-up")
    return setup_s, kernel_s, digest, result


def percentile(values, p):
    """Nearest-rank percentile: at least (100 - p)% of values lie at or above."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def job_latencies(passes, scale=True):
    """Each job's latency: the median of its latencies over the passes,
    scaled to reference speed unless ``scale`` is false."""
    runs = {}
    for p in passes:
        for r in p["jobs"]:
            s = calibration.scaled(r["s"], r["kernel_s"]) if scale else r["s"]
            runs.setdefault(r["job"], []).append(s)
    return [statistics.median(v) for v in runs.values()]


def environment(args):
    src = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "src_py_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args):
    deadline = time.monotonic() + TIME_LIMIT
    setups, kernels, digests = [], [], []
    for extra in [["--setup-only"]] * (0 if args.trace else SETUP_RUNS - 1) + [[]]:
        s, k, d, result = run_child(args, extra, deadline)
        setups.append(s)
        kernels.append(k)
        digests.append(d)
    if result is None:
        raise RunFailed("worker printed no result")

    records = [r for p in result["passes"] for r in p["jobs"]]
    failures = [r for r in records if r["error"]]
    flags = [r for r in records if r["flag"]]
    tail_p = spec.TAIL_PERCENTILE[args.workload]
    latencies = job_latencies(result["passes"])
    raw = job_latencies(result["passes"], scale=False)
    scaled_setups = [calibration.scaled(s, k) for s, k in zip(setups, kernels)]
    walls = [sum(r["s"] for r in p["jobs"]) for p in result["passes"]]
    jobs_per_pass = [len(p["jobs"]) for p in result["passes"]]
    same_inputs = len(set(digests)) == 1

    report = {
        "environment": dict(environment(args), python=result["python"], numpy=result["numpy"],
                            blas_threads=result["blas_threads"]),
        "input_digest": digests[-1],
        "fixtures": result["fixtures"],
        "passes": len(result["passes"]),
        "jobs_per_pass": jobs_per_pass,
        "pass_wall_s": walls,
        "setup_samples_s": setups,
        "setup_kernel_s": kernels,
        "kernel_ref_s": calibration.REF_S,
        "kernel_median_s": statistics.median(r["kernel_s"] for r in records) if records else None,
        "unscaled": {
            "setup_s": statistics.median(setups),
            "wall_s": sum(raw),
            "job_p50_s": statistics.median(raw),
            "job_tail_s": percentile(raw, tail_p),
        },
        "tail_percentile": tail_p,
        "tail_jobs_beyond": len(latencies) - max(1, math.ceil(tail_p / 100.0 * len(latencies))),
        "error_rate": len(failures) / len(records) if records else 1.0,
        "failures": [(r["job"], r["error"]) for r in failures][:20],
        "walks_flags": [(r["job"], r["flag"]) for r in flags][:20],
        "known_defect_jobs": sum(1 for r in records if r["defect"]),
        "known_defects": sorted({r["defect"] for r in records if r["defect"]}),
        "absent_sentinels": result["absent_sentinels"],
        "slowest_jobs": sorted(((r["s"], r["job"]) for r in result["passes"][-1]["jobs"]), reverse=True)[:5],
    }
    if args.trace:
        t = result["trace"]
        metrics = {n: {"value": t["metrics"][n], "unit": u} for n, u, _b in tracing.per_layer_spec()}
        report["trace"] = {k: v for k, v in t.items() if k != "metrics"}
    else:
        values = {
            "setup_s": statistics.median(scaled_setups),
            "wall_s": sum(latencies),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": percentile(latencies, tail_p),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {n: {"value": values[n], "unit": spec.END_TO_END[n][0]} for n in spec.END_TO_END}
    correct = not failures and same_inputs and bool(records)
    if not same_inputs:
        report["failures"].append(("set-up", "input digests differ between set-ups: %s" % digests))
    return report, {"correct": correct, "attempted": len(records), "failed": len(failures), "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="prove that every output check can fail")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json from this file")
    args = p.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    try:
        preflight()
        if args.self_test:
            return subprocess.run([sys.executable, str(HERE / "selftest.py")], env=child_env(),
                                  cwd=str(ROOT), timeout=900).returncode
        if not args.workload:
            p.error("--workload is required")
        report, result = measure(args)
    except RunFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    for name, m in result["metrics"].items():
        if m["value"] or not args.trace:  # a traced pass touches only some layers
            print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for key in ("failures", "known_defect_jobs", "known_defects", "walks_flags"):
        if report[key]:
            print("%s: %s" % (key, json.dumps(report[key])), file=sys.stderr)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
