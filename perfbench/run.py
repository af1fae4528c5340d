"""yflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics of real jobs: ``python -m yflow.cli ...`` as a child process, one
job at a time from this single harness process (a closed loop with one
client).  It times the job cut to one step several times (``setup_s``),
then repeats the full job for ``--seconds`` (at least twice) and reports
medians.  ``--trace 1`` runs the traced in-process pass of layers.py and
reports the per-layer metrics.  ``--workload all`` runs every workload's
end-to-end measurement in turn.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from checks import job_problems, load_reference
from jobs import ROOT, SRC, THREAD_ENV, Tally, yflow
from workloads import WORKLOADS, Workload

WORK = Path(__file__).resolve().parent / ".work"
SETUP_REPEATS = 9       # timed cut jobs, after one untimed warm-up
MIN_JOBS = 2            # the rerun check needs a second run
RUN_LIMIT = 165.0       # seconds; a run must end within 180
ADDRESS_SPACE_LIMIT = 2 << 30   # bytes, for this process and every job


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = " ".join(f"{pkg} {importlib.metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (f"python {platform.python_version()} {versions}; nproc {os.cpu_count()}; "
            f"cpu {cpu}; {threads}")


def tail(values: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail: none (n={n}, needs >= 11)"
    return f"p{100.0 * (n - 10) / n:.1f} {sorted(values)[n - 11]:.6g}"


def measure(wl: Workload, seed: int, seconds: float, work: Path) -> Tuple[Dict[str, float], Tally, List[str]]:
    start = time.perf_counter()
    reference = load_reference()
    config, cut = work / "scenario.cfg", work / "scenario-cut.cfg"
    if wl.is_flow:
        config.write_text(wl.config_text(seed), encoding="ascii")
        cut.write_text(wl.config_text(seed, cut=True), encoding="ascii")
    tally = Tally()

    def remaining() -> float:
        return start + RUN_LIMIT - time.perf_counter()

    setup = []
    for i in range(SETUP_REPEATS + 1):
        job = yflow(wl.argv(cut, work / f"cut{i}", seed, cut=True), work / f"cut{i}", remaining())
        tally.record(f"set-up job {i}", [] if job.code == 0 else [f"exit code {job.code}"])
        if i and job.code == 0:
            setup.append(job.seconds)

    jobs, work_done, first = [], [], None
    t0 = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - t0 < seconds:
        if jobs and remaining() < 1.5 * max(j.seconds for j in jobs):
            break
        out = work / f"job{len(jobs)}"
        job = yflow(wl.argv(config, out, seed), out, remaining())
        problems, prints, done = job_problems(wl, job.code, job.stdout, out, reference, first)
        tally.record(f"job {len(jobs)}", problems)
        if first is None:
            first = prints
        jobs.append(job)
        work_done.append(done)
    if not setup or not any(j.code == 0 for j in jobs):
        raise SystemExit(f"{wl.name}: no job completed; " + "; ".join(tally.problems[:3]))

    times = [j.seconds for j in jobs]
    values = {
        "job_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "work_per_s": statistics.median(w / t for w, t in zip(work_done, times)),
        "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
    }
    rate = "steps_per_s" if wl.is_flow else "samples_per_s"
    lines = [
        f"[{wl.name}] seed {seed}; closed loop, one client, one job at a time",
        f"  job_s        {values['job_s']:.6g} s    median of {len(times)} jobs; {tail(times)}",
        "               jobs: " + " ".join(f"{t:.4g}" for t in times),
        f"  setup_s      {values['setup_s']:.6g} s    median of {len(setup)} cut jobs",
        f"  {rate:<12} {values['work_per_s']:.6g} 1/s  (work_per_s; {work_done[0]} per job)",
        f"  peak_rss_mb  {values['peak_rss_mb']:.6g} MB   median ru_maxrss",
        f"  failed_share {tally.failed / tally.attempted:.6g}    "
        f"{tally.failed} of {tally.attempted} jobs",
    ]
    lines += [f"  sha256 {key} {digest}" for key, digest in sorted((first or {}).items())]
    return values, tally, lines


def result(values: Dict[str, float], tally: Tally, section: str) -> dict:
    """The JSON result line; units come from BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in declared()[section]}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if values.get(name) is not None},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> Tuple[dict, List[str]]:
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            from layers import traced_run
            values, tally, lines = traced_run(WORKLOADS[name], seed, work)
            section = "per_layer"
        else:
            values, tally, lines = measure(WORKLOADS[name], seed, seconds, work)
            section = "end_to_end"
    finally:
        for child in work.iterdir():         # keep the trace files, drop job outputs
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
    res = result(values, tally, section)
    absent = [m["name"] for m in declared()[section] if m["name"] not in res["metrics"]]
    if absent:
        lines.append(f"  absent metrics: {', '.join(absent)}")
    lines += [f"  problem: {p}" for p in tally.problems]
    return res, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "yflow" / "cli.py").is_file():
        print(f"yflow sources not found under {SRC}", file=sys.stderr)
        return 2
    # a runaway job fails with MemoryError instead of starving the machine
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT,
                                            resource.getrlimit(resource.RLIMIT_AS)[1]))
    seed = args.seed % 2**31     # numpy generators take non-negative seeds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace and len(names) > 1:
        ap.error("--trace 1 covers every workload already; name one")

    print(environment())
    results = {}
    for name in names:
        results[name], lines = run_one(name, seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
