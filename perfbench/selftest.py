"""Proves that every output check of the benchmark can fail.

For each workload (seed 1) every job runs once: its check must accept
the real output and reject a corrupted copy of it.  The coldness guard
must fail a homology-cold job that runs warm, the warmth flag must mark
a walks job that enumerates an orbit, the known-defect signature must
separate a surface with the defect from a genuine hyperelliptic one, and
the quaternionic block report
(run cold once, about half a minute) must pass its golden check and
fail it when corrupted.  Exit code 0 iff everything fired as it should.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from origami_lab import covers, origami, simplicity  # noqa: E402
from origami_lab.orbit import Sl2zWord  # noqa: E402
from origami_lab.perm import Permutation  # noqa: E402

# H(2,2) surfaces that component() calls hyperelliptic: the involution of
# the first fixes both zeros (spin parity 1, the defect), that of the
# second swaps them (parity 0, a genuine hyperelliptic surface).
DEFECT_SURFACE = ((2, 5, 4, 3, 6, 1), (3, 6, 1, 5, 4, 2))
HYPERELLIPTIC_SURFACE = ((1, 5, 2, 3, 4, 6), (2, 1, 6, 4, 3, 5))


def _cli_field(result, mutate):
    payload = json.loads(result["stdout"])
    mutate(payload)
    return dict(result, stdout=json.dumps(payload))


def _corrupt_info(p):
    p["genus"] += 1
    p["stratum"] = "H(0)"


def _corrupt_certify(out):
    if isinstance(out, simplicity.NotFound):
        return simplicity.NotFound(explored_depth=out.explored_depth - 1)
    longer = Sl2zWord(("T",) * (workloads.DEMA_DEPTH + 2))
    return dataclasses.replace(out, pinching_word=longer)


CORRUPT = {
    "homology": lambda out: dict(out, rank=out["rank"] + 2),
    "kz": lambda r: _cli_field(r, lambda p: p["charpoly"].__setitem__(1, p["charpoly"][1] + 1)),
    "certify": _corrupt_certify,
    "verify": lambda out: not out,
    "search": lambda out: (Sl2zWord(("T",)), None),
    "kz_product": lambda out: [[x + (i == j == 0) for j, x in enumerate(r)] for i, r in enumerate(out)],
    "mc": lambda est: dataclasses.replace(est, estimates=[est.estimates[0] + 0.5] + est.estimates[1:]),
    "info": lambda r: _cli_field(r, _corrupt_info),
    "orbit": lambda r: _cli_field(r, lambda p: p["nodes"].pop()),
    "veech": lambda r: _cli_field(r, lambda p: p.__setitem__("index", p["index"] + 1)),
    "ekz": lambda r: _cli_field(r, lambda p: p["total"].__setitem__("num", p["total"]["num"] + 1)),
    "spin": lambda r: _cli_field(r, lambda p: p.__setitem__("spin_parity", 1 - p["spin_parity"])),
    "component": lambda r: _cli_field(r, lambda p: p.__setitem__(
        "component", "hyperelliptic" if p["component"] == "connected" else "connected")),
    "cover": lambda r: dict(r, stdout="n = 1\nh = (1)\nv = (1)\n"),
}


def check_block_report(report):
    """Golden: dim W = 12, both targets ok, span 8, no diagnostics."""
    workloads.expect(not report["diagnostics"], "block report diagnostics: %r" % report["diagnostics"])
    workloads.expect(report["dim_W"] == 12, "dim_W %r, want 12" % report["dim_W"])
    workloads.expect(len(report["targets"]) == 2 and all(t["ok"] for t in report["targets"]),
                     "block report targets not all ok")
    workloads.expect(report["span_dim_1_eigenspaces"] == 8,
                     "eigenspace span %r, want 8" % report["span_dim_1_eigenspaces"])


BLOCK_CORRUPTIONS = (
    lambda r: dict(r, dim_W=11),
    lambda r: dict(r, targets=[dict(r["targets"][0], ok=False)] + r["targets"][1:]),
    lambda r: dict(r, span_dim_1_eigenspaces=7),
    lambda r: dict(r, diagnostics=["no deck composition matched"]),
)


def fires(check, out):
    """True iff the check rejects ``out`` as a failure (a known library
    defect is reported, not a rejection)."""
    try:
        check(out)
    except workloads.KnownDefect as exc:
        print("known defect:", exc)
        return False
    except workloads.CheckFailed:
        return True
    return False


def main():
    problems = []
    checked = {}
    sentinel = tracing.Sentinel()
    sentinel.install()
    for name in ("homology-cold", "walks", "survey"):
        workdir = ROOT / ".perfbench_work" / ("selftest-%s" % name)
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.build(name, 1, ROOT, workdir)
            wl.begin_pass()
            for job in wl.jobs:
                if job.cold:
                    workloads.clear_context_cache()
                out = job.run()
                if out is workloads.SKIPPED:
                    continue
                if fires(job.check, out):
                    problems.append("%s: check rejects the real output" % job.name)
                    continue
                state = copy.deepcopy(wl.state)
                if not fires(job.check, CORRUPT[job.kind](out)):
                    problems.append("%s: check accepts a corrupted output" % job.name)
                wl.state.clear()
                wl.state.update(state)
                checked[job.kind] = checked.get(job.kind, 0) + 1

            # guards: a warm homology-cold job fails, an orbit in walks is flagged
            if name == "homology-cold":
                # kz without --zero on a cached context builds nothing
                argv = ["kz", str(workloads.fixture_dir(ROOT) / "dema.txt"), workloads.DEMA_WORD, "--json"]
                warm = workloads.Job("warm-kz", "kz", lambda: workloads.run_cli(argv), lambda out: None)
                warm.run()  # leaves the context cached
                record = worker.run_job(wl, warm, sentinel)
                if not (record["error"] or "").startswith("guard:"):
                    problems.append("coldness guard did not fail a warm job")
            if name == "walks":
                kz = next(j for j in wl.jobs if j.kind == "kz_product")
                workloads.clear_context_cache()
                record = worker.run_job(wl, kz, sentinel)
                if not record["flag"]:
                    problems.append("warmth flag missed an orbit enumeration in a walks job")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    for (h, v), want in ((DEFECT_SURFACE, True), (HYPERELLIPTIC_SURFACE, False)):
        o = origami.Origami(Permutation(h), Permutation(v))
        if workloads.involution_fixes_two_zeros(o) is not want:
            problems.append("known-defect signature is %s for %r" % (not want, (h, v)))
    checked["defect_signature"] = 2

    workloads.clear_context_cache()
    kz = workloads.ltilde_kz_job(workloads.fixture_dir(ROOT))
    out = kz.run()
    if fires(kz.check, out) or not fires(kz.check, CORRUPT[kz.kind](out)):
        problems.append("%s: check does not separate the real and a corrupted output" % kz.name)
    checked[kz.kind] += 1

    workloads.clear_context_cache()
    start = time.perf_counter()
    report = covers.quaternionic_block_report()
    print("quaternionic_block_report (cold): %.1f s" % (time.perf_counter() - start))
    if fires(check_block_report, report):
        problems.append("block report fails its golden check: %r" % report)
    for corrupt in BLOCK_CORRUPTIONS:
        if not fires(check_block_report, corrupt(report)):
            problems.append("block report check accepts a corrupted report")
    checked["block_report"] = 1

    for kind, n in sorted(checked.items()):
        print("%-14s %4d outputs checked, each corruption rejected" % (kind, n))
    for p in problems:
        print("FAIL", p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
