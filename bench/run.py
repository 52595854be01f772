"""The simds benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {scan-q8,enum-q8,check-mix} --seed N
                         --seconds S --trace {0,1} [--smoke]

Runs from the root of a source checkout and imports the program from
`src/`.  A workload's distinct pass inputs are made first; passes then
cycle through them while another one is expected to end within
`--seconds` (there is always at least one).  Each pass is timed, then
checked by the gate.  Times are taken as the best of their repeats:
other tenants of a shared machine only ever add time, for seconds at a time.
With `--trace 0` the last line of stdout is the result with every
end-to-end metric of BENCHMARK.json; with `--trace 1` each pass runs
twice on the same input, untraced then traced, and the result holds
every per-layer metric.  The line before it is the full
run record, also written to `.bench_out/`.  `--smoke` shrinks the
workloads for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MAX_LISTED_PROBLEMS = 20


def probe_setup(workload: str, smoke: bool) -> float:
    """Seconds from launching a fresh interpreter to the end of the
    workload's set-up in it."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload]
    if smoke:
        cmd.append("--smoke")
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "git_commit": git_commit()}


def measure(wl, seconds: float, tracer) -> dict:
    """Run passes while the next is expected to end within `seconds`,
    and gate every one.  Keeps, per distinct input, the fastest pass and
    each check's fastest latency."""
    batches = [wl.batch(j) for j in range(wl.inputs)]
    best_pass = [math.inf] * wl.inputs
    best_checks = [None] * wl.inputs
    untraced, traced, traced_ids = [], [], []
    attempted = failed = 0
    problems = []
    started = perf_counter()
    k = 0
    while True:
        j = k % wl.inputs
        batch = batches[j]
        for trace_on in ((False, True) if tracer else (False,)):
            if trace_on:
                tracer.install(pass_id=k, item=j)
            t0 = perf_counter()
            out = wl.solve(batch, tracer.mark if trace_on else None)
            elapsed = perf_counter() - t0
            if trace_on:
                tracer.restore()
                traced.append(elapsed)
                traced_ids.append(k)
            else:
                untraced.append(elapsed)
                best_pass[j] = min(best_pass[j], elapsed)
                lat = wl.samples(out)
                best_checks[j] = lat if best_checks[j] is None else \
                    [min(a, b) for a, b in zip(best_checks[j], lat)]
            for op, found in enumerate(wl.check(batch, out)):
                attempted += 1
                if found:
                    failed += 1
                    if len(problems) < MAX_LISTED_PROBLEMS:
                        problems.append({"pass": k, "op": op, "problems": found})
        k += 1
        elapsed = perf_counter() - started
        if elapsed + elapsed / k > seconds:
            break
    return {"untraced_s": untraced, "traced_s": traced, "traced_passes": traced_ids,
            "items": wl.items(batches[0]),
            "best_pass_s": [b for b in best_pass if b < math.inf],
            "samples": [s for c in best_checks if c for s in c],
            "attempted": attempted, "failed": failed, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan-q8", "enum-q8", "check-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="GF(4) scans and short check-mix passes, for tests")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracing
        import workloads
    except ImportError as err:
        print(f"error: cannot import the program from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    wl = workloads.make(args.workload, args.seed, args.smoke)
    tracer = tracing.Tracer() if args.trace else None
    probes = [] if tracer else [probe_setup(args.workload, args.smoke)
                                for _ in range(SETUP_PROBES)]
    if tracer:
        tracer.install(pass_id=-1)
    wl.setup()
    if tracer:
        tracer.restore()
    run = measure(wl, args.seconds, tracer)

    if tracer:
        values = tracing.per_layer(tracer, wl, run["items"], run["traced_passes"],
                                   run["untraced_s"], run["traced_s"])
        kind = "per_layer"
    else:
        values = {"setup_s": statistics.median(probes),
                  "solve_s": statistics.fmean(run["best_pass_s"]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not "
                           f"match BENCHMARK.json {kind}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    attempted, failed = run["attempted"], run["failed"]
    percentiles = (np.percentile(run["samples"], [50, 99]).tolist()
                   if run["samples"] else [None, None])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "params": wl.params, "provenance": provenance(),
              "setup_probes_s": probes,
              "passes_untraced_s": run["untraced_s"],
              "passes_traced_s": run["traced_s"],
              "best_pass_s": run["best_pass_s"],
              "check_samples": len(run["samples"]),
              "check_p50_us": percentiles[0], "check_p99_us": percentiles[1],
              "fail_ratio": failed / attempted,
              "fail_ratio_base": f"{failed} failed of {attempted} operations",
              "problems": run["problems"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.save(OUT / f"{stem}-spans.npz")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
