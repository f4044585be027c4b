"""What the benchmark measures: workloads, metrics and their bounds.

Plain data, importable without the library.  ``run.py --write-spec``
renders it as BENCHMARK.json.
"""

import tracing

RUN_SECONDS = 30

# name -> one-line reason it was chosen
WORKLOADS = {
    "homology-cold": "cold Homology builds and cold CLI kz calls, where the homology layer does over 90% of the work",
    "walks": "word searches, certificates, cocycle products and Monte Carlo walks on orbit contexts warmed in set-up",
    "survey": "CLI info/orbit/veech/ekz/spin on many small random surfaces plus z6, led by canonical forms and orbits",
}

# Layers whose charged self time should dominate each workload's trace.
INTENDED_LAYERS = {
    "homology-cold": ("homology",),
    "walks": ("simplicity", "galois", "lyapunov"),
    "survey": ("cli", "perm", "origami", "orbit"),
}

# Fixed per workload: the highest percentile that keeps at least ten of
# the jobs of one pass beyond it, for the smallest job count the
# workload can generate.
TAIL_PERCENTILE = {"homology-cold": 75, "walks": 75, "survey": 90}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "job_p50_s": ("s", "lower", 0.25),
    "job_tail_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": k, "unit": u, "better": b, "bound": bound}
            for k, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in tracing.per_layer_spec()
        ],
    }
