"""The traced run: the per-layer metrics of BENCHMARK.json.

One traced run covers all four workloads, so that each per-layer metric
is taken on the workload it is meant to explain (README.md has the map);
``trace.overhead`` and ``trace.unattributed_share`` belong to the
``--workload`` given.  Every pass runs in a fresh interpreter, so no pass
inherits warm caches from another:

- import probes, and the sweep's four scenarios as solo jobs next to the
  sweep itself (child processes, as in the end-to-end run);
- ``python perfbench/layers.py job``: one workload's job in process
  (``yflow.cli.main``), traced or not; the sweep runs its four scenarios
  in turn.  Two untraced runs of the given workload, just before and just
  after its traced run, are the base of ``trace.overhead``; their outputs
  must match the traced run's byte for byte;
- ``python perfbench/layers.py steps`` and ``... samples``: time per step
  of ``flow.run`` on each sweep scenario, and time per sample of
  ``run_catalogue`` for each inequality, both untraced.

Job outputs pass the same checks as the end-to-end jobs.  A pass that
fails because the program's Python API moved leaves its metrics absent.
"""
from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from checks import accepted_steps, fingerprint, flow_problems, job_problems, load_reference
from jobs import SRC, Job, Tally, in_process, spawn, yflow
from tracer import Profile, Tracer
from workloads import CATALOGUE_IDS, CATALOGUE_SAMPLES, WORKLOADS, Workload

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import yflow.cli; "
                "t1 = time.perf_counter(); import scipy.linalg; "
                "print(t1 - t0, time.perf_counter() - t1)")
IMPORT_PROBES = 3
PASS_TIMEOUT = 60.0
CHECK_FNS = ("check_s_minus_decay", "check_scal_lower", "check_u_upper", "check_u_lower",
             "check_s_upper", "check_parabolic_sobolev", "check_energy_decay")
TRIDIAGONAL = "discretization.TridiagonalOperator"


def sweep_configs(work: Path) -> Dict[int, Path]:
    return {m: work / f"M{m}.cfg" for m in WORKLOADS["refine_sweep"].sweep}


# -- passes, each in its own interpreter ---------------------------------------


def _job_in_process(wl: Workload, work: Path, out: Path, seed: int) -> Job:
    if not wl.is_flow:
        return in_process(wl.argv(None, out, seed), out)
    if not wl.sweep:
        return in_process(wl.argv(work / f"{wl.name}.cfg", out, seed), out)
    parts = [in_process(["run", "--config", str(cfg), "--out", str(out / f"grid.M={m}"),
                         "--quiet"], out / f"log{m}")
             for m, cfg in sweep_configs(work).items()]
    return Job(max(p.code for p in parts), sum(p.seconds for p in parts), 0.0, "")


def pass_job(args) -> dict:
    importlib.import_module("yflow.cli")
    importlib.import_module("scipy.linalg")   # lazy in the program; the probe times it
    wl = WORKLOADS[args.workload]
    out = args.work / args.tag / wl.name
    tracer = Tracer().install() if args.traced else None
    try:
        job = _job_in_process(wl, args.work, out, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"code": job.code, "seconds": job.seconds}
    if tracer is not None:
        result["table"] = tracer.write(args.work / f"trace-{wl.name}")
        est = tracer.results.get("yamabe.estimate_yamabe_constant")
        result["yamabe"] = {key: None if getattr(est, key, None) is None else float(getattr(est, key))
                            for key in ("iterations", "converged")}
    return result


def pass_steps(args) -> dict:
    config = importlib.import_module("yflow.config")
    flow = importlib.import_module("yflow.flow")
    importlib.import_module("scipy.linalg")
    seconds = {}
    for m, path in sweep_configs(args.work).items():
        cfg = config.load_scenario(str(path))
        manifold = cfg.build()
        t0 = time.perf_counter()
        flow.run(manifold, cfg.flow)
        seconds[str(m)] = time.perf_counter() - t0
    return seconds


def pass_samples(args) -> dict:
    auxfn = importlib.import_module("yflow.auxfn")
    known = set(auxfn.catalogue_ids())
    seconds = {}
    for ineq_id in CATALOGUE_IDS:
        if ineq_id in known:
            t0 = time.perf_counter()
            auxfn.run_catalogue(ids=[ineq_id], samples=CATALOGUE_SAMPLES, seed=args.seed)
            seconds[ineq_id] = time.perf_counter() - t0
    return seconds


PASSES = {"job": pass_job, "steps": pass_steps, "samples": pass_samples}


def child_main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one pass of the traced run")
    ap.add_argument("kind", choices=sorted(PASSES))
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--tag", default="")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    args.result.write_text(json.dumps(PASSES[args.kind](args)), encoding="utf-8")
    return 0


# -- the parent ------------------------------------------------------------------


class _Run:
    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.reference = load_reference()
        self.tally = Tally()
        self.values: Dict[str, Optional[float]] = {}
        self.lines: List[str] = []
        for wl in WORKLOADS.values():
            if wl.is_flow:
                (work / f"{wl.name}.cfg").write_text(wl.config_text(seed), encoding="ascii")
        sweep = WORKLOADS["refine_sweep"]
        for m, path in sweep_configs(work).items():
            path.write_text(sweep.config_text(seed, **{"grid.M": str(m)}), encoding="ascii")

    def child(self, kind: str, name: str, *extra: str) -> Optional[dict]:
        """Run one pass; None (and a note) if it failed."""
        result = self.work / f"{name}.json"
        job = spawn([str(Path(__file__).resolve()), kind, "--work", str(self.work),
                     "--seed", str(self.seed), "--result", str(result), *extra],
                    self.work / f"log-{name}", PASS_TIMEOUT)
        if job.code != 0 or not result.is_file():
            err = (self.work / f"log-{name}" / "stderr.txt").read_text(errors="replace")
            self.lines.append(f"  pass {name} failed (exit {job.code}): "
                              + " | ".join(err.strip().splitlines()[-3:]))
            return None
        return json.loads(result.read_text(encoding="utf-8"))

    def job(self, wl: Workload, tag: str) -> Optional[Tuple[dict, Path]]:
        """The pass result and output directory of a job that passed its checks;
        the job is traced when ``tag`` is "traced"."""
        traced = tag == "traced"
        res = self.child("job", f"{tag}-{wl.name}", "--workload", wl.name,
                         "--traced", str(int(traced)), "--tag", tag)
        out = self.work / tag / wl.name
        if res is None:
            self.tally.record(f"{tag} {wl.name}", ["the in-process job did not finish"])
            return None
        stdout = "" if wl.is_flow else (out / "stdout.txt").read_text(encoding="utf-8")
        problems, _, _ = job_problems(wl, res["code"], stdout, out, self.reference)
        self.tally.record(f"{tag} {wl.name}", problems)
        return None if problems else (res, out)

    def import_probes(self) -> None:
        runs = []
        for i in range(IMPORT_PROBES):
            job = spawn(["-c", IMPORT_PROBE], self.work / f"import{i}", PASS_TIMEOUT)
            self.tally.record("import probe", [] if job.code == 0 else [f"exit code {job.code}"])
            if job.code == 0:
                runs.append([float(tok) for tok in job.stdout.split()])
        if runs:
            self.values["setup.import_yflow_s"] = statistics.median(r[0] for r in runs)
            self.values["setup.import_scipy_linalg_s"] = statistics.median(r[1] for r in runs)

    def sweep_speedup(self) -> Dict[str, int]:
        """cli.sweep.speedup; returns the accepted steps of each solo scenario."""
        wl = WORKLOADS["refine_sweep"]
        solo, steps = 0.0, {}
        for m, cfg in sweep_configs(self.work).items():
            out = self.work / "solo" / f"grid.M={m}"
            job = yflow(["run", "--config", str(cfg), "--out", str(out), "--quiet"], out,
                        PASS_TIMEOUT)
            problems, _ = flow_problems({f"M{m}": out}, self.reference, None)
            self.tally.record(f"solo M={m}",
                              ([] if job.code == 0 else [f"exit code {job.code}"]) + problems)
            solo += job.seconds
            if not problems:
                steps[str(m)] = accepted_steps(out)
        out = self.work / "sweep"
        job = yflow(wl.argv(self.work / f"{wl.name}.cfg", out, self.seed), out, PASS_TIMEOUT)
        problems, _, _ = job_problems(wl, job.code, job.stdout, out, self.reference)
        self.tally.record("sweep", problems)
        self.values["cli.sweep.speedup"] = solo / job.seconds
        return steps


def _ratio(num, den) -> Optional[float]:
    return None if num is None or not den else num / den


def _flow_layer(v: dict, L: Profile, yamabe: dict, steps: int) -> None:
    """From the traced long_flow job."""
    v["flow.run.self_s"] = L.self_total("flow.run")
    v["flow.step.calls"] = L.calls("flow.step")
    v["flow.step.self_us"] = L.self_median("flow.step", 1e6)
    v["flow.renormalize_volume.self_us"] = L.self_median("flow.renormalize_volume", 1e6)
    v[f"{TRIDIAGONAL}.solve.calls"] = L.calls(f"{TRIDIAGONAL}.solve")
    v[f"{TRIDIAGONAL}.solve.self_us"] = L.self_median(f"{TRIDIAGONAL}.solve", 1e6)
    v[f"{TRIDIAGONAL}.laplacian.calls"] = L.calls(f"{TRIDIAGONAL}.laplacian")
    v["discretization.laplacian.calls"] = L.calls("discretization.laplacian")
    v["discretization.check_field.calls"] = L.calls("discretization.check_field")
    for fn in ("scalar_curvature_flow", "average_scalar"):
        v[f"yamabe.{fn}.calls_per_step"] = _ratio(L.calls(f"yamabe.{fn}"), steps)
        v[f"yamabe.{fn}.self_us"] = L.self_median(f"yamabe.{fn}", 1e6)
    v["yamabe.FlowState.from_u.calls"] = L.calls("yamabe.FlowState.from_u")
    v["yamabe.estimate_yamabe_constant.self_ms"] = L.self_total(
        "yamabe.estimate_yamabe_constant", 1e3)
    v["yamabe.estimate_yamabe_constant.iterations"] = yamabe.get("iterations")
    v["yamabe.estimate_yamabe_constant.converged"] = yamabe.get("converged")
    v["config.load_scenario.self_ms"] = L.self_total("config.load_scenario", 1e3)
    v["geometry.build_manifold.self_ms"] = L.self_total("geometry.build_manifold", 1e3)
    v["geometry.audit_assumptions.self_ms"] = L.self_total("geometry.audit_assumptions", 1e3)


def _monitor_layer(v: dict, D: Profile, out: Path) -> None:
    """From the traced dense_monitors job and its outputs."""
    v["flow.checkpoint.calls"] = D.calls("flow.checkpoint")
    v["flow.checkpoint.self_ms"] = D.self_total("flow.checkpoint", 1e3)
    v["flow.checkpoint.bytes"] = sum(p.stat().st_size for p in out.glob("*.ckpt"))
    v["discretization.lp_norm.calls"] = D.calls("discretization.lp_norm")
    v["discretization.lp_norm.self_s"] = D.self_total("discretization.lp_norm")
    v["bounds.run_monitors.self_s"] = D.self_total("bounds.run_monitors")
    with open(out / "monitors.csv", "rb") as fh:
        v["bounds.rows"] = sum(1 for _ in fh) - 1
    for fn in CHECK_FNS:
        v[f"bounds.{fn}.self_ms"] = D.self_total(f"bounds.{fn}", 1e3)
    for fn, name in (("write_timeseries", "timeseries.csv"), ("write_monitors", "monitors.csv")):
        v[f"cli.{fn}.self_ms"] = D.self_total(f"cli.{fn}", 1e3)
        v[f"cli.{fn}.bytes"] = (out / name).stat().st_size
    v["svgplot.render_series.self_ms"] = D.self_total("svgplot.render_series", 1e3)


def traced_run(workload: Workload, seed: int, work: Path) -> Tuple[Dict[str, Optional[float]], Tally, List[str]]:
    """Per-layer metric values (None: absent), the tally of jobs, and detail lines."""
    run = _Run(seed, work)
    v = run.values
    run.import_probes()
    solo_steps = run.sweep_speedup()

    seconds = run.child("steps", "steps") or {}
    for m, sec in seconds.items():
        v[f"flow.us_per_step.M{m}"] = _ratio(sec * 1e6, solo_steps.get(m))
    seconds = run.child("samples", "samples") or {}
    for ineq_id, sec in seconds.items():
        v[f"auxfn.ns_per_sample.{ineq_id}"] = sec / CATALOGUE_SAMPLES * 1e9

    # the given workload's traced job sits between two untraced ones, so that
    # a slow drift of the machine cancels out of trace.overhead
    plain = [run.job(workload, "plain")]
    for wl in sorted(WORKLOADS.values(), key=lambda w: w is not workload):
        traced = run.job(wl, "traced")
        if wl is workload:
            plain.append(run.job(workload, "plain-after"))
        if traced is None:
            continue
        res, out = traced
        prof = Profile(res["table"])
        split = prof.module_self()
        unattributed = 1.0 - sum(split.values()) / res["seconds"]
        run.lines.append(
            f"  traced {wl.name}: {res['seconds']:.3f} s; self time by module: "
            + ", ".join(f"{m} {s / res['seconds']:.1%}"
                        for m, s in sorted(split.items(), key=lambda kv: -kv[1]) if s)
            + f"; unattributed {unattributed:.3%}")
        if wl is workload:
            v["trace.unattributed_share"] = unattributed
            if None not in plain:
                base = statistics.mean(r["seconds"] for r, _ in plain)
                v["trace.overhead"] = res["seconds"] / base - 1.0
                same = all(fingerprint(wl.output_dirs(out)) == fingerprint(wl.output_dirs(o))
                           for _, o in plain)
                run.tally.record("tracing", [] if same else ["traced outputs differ from untraced"])
        if wl.name == "long_flow":
            steps = sum(accepted_steps(d) for d in wl.output_dirs(out).values())
            _flow_layer(v, prof, res["yamabe"], steps)
        elif wl.name == "dense_monitors":
            _monitor_layer(v, prof, out)
        elif wl.name == "refine_sweep":
            steps = sum(accepted_steps(d) for d in wl.output_dirs(out).values())
            v["flow.accept_ratio"] = _ratio(steps, prof.calls("flow.step"))
        else:
            v["auxfn.run_catalogue.self_s"] = prof.self_total("auxfn.run_catalogue")
            v["auxfn.find_counterexample.self_ms"] = prof.self_total(
                "auxfn.find_counterexample", 1e3)
    return v, run.tally, run.lines


if __name__ == "__main__":
    sys.exit(child_main())
