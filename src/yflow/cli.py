"""Scenario runner and result emission.

Subcommands: ``run``, ``audit``, ``yamabe``, ``auxcheck``, ``moser``,
``plot``.  Exit codes: 0 success, 1 monitor failure, 2 configuration or
usage error, 3 solver abort.  ``YFLOW_OUT`` sets the default output root;
audit findings are warnings on stderr and never abort a run.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Dict, List, Optional

from . import bounds
from .config import ConfigError, ScenarioConfig, load_scenario, parse_kv
from .flow import RECORD_COLUMNS, SolverAbort, Trajectory, run
from .geometry import DiscretizedManifold, GeometryError, audit_assumptions
from .yamabe import estimate_yamabe_constant

# (timeseries.csv column, Trajectory column, plotted to <column>.svg): the
# record columns, energy headed energy_S_rho; t, dt and the (S - rho)_- norms
# are not plotted
TIMESERIES_COLUMNS = tuple(
    ("energy_S_rho" if f == "energy" else f, f,
     f not in ("t", "dt", "s_minus_l2", "s_minus_linf"))
    for f in RECORD_COLUMNS
)

EXIT_OK = 0
EXIT_MONITOR = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _out_root() -> str:
    return os.environ.get("YFLOW_OUT") or "."


def write_timeseries(traj: Trajectory, path: str) -> None:
    cols = [getattr(traj, f) for _, f, _ in TIMESERIES_COLUMNS]
    lines = [",".join(col for col, _, _ in TIMESERIES_COLUMNS)]
    # "%.17g" % v is f"{v:.17g}", for ±0, ±inf, nan and subnormals too; rows are
    # read from the arrays, as .tolist() columns would hold every value at once
    row_format = ",".join(["%.17g"] * len(cols))
    lines.extend(row_format % row for row in zip(*cols))
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def write_monitors(results, path: str) -> None:
    lines = ["monitor_id,t,lhs,rhs,margin,verdict"]
    for res in results:
        if not res.applicable:
            lines.append(f"{res.monitor_id},nan,nan,nan,nan,not_applicable")
            continue
        lines.extend(
            "%s,%.17g,%.17g,%.17g,%.17g,%s" % (res.monitor_id, row.t, row.lhs, row.rhs,
                                               row.margin, "pass" if row.verdict else "FAIL")
            for row in res.rows
        )
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def _plot_columns(cols, plot_dir: str) -> None:
    """One SVG per plotted timeseries column; ``cols`` maps column to values."""
    from .svgplot import render_series

    os.makedirs(plot_dir, exist_ok=True)
    for col, _, plotted in TIMESERIES_COLUMNS:
        if plotted:
            render_series(list(map(float, cols["t"])), list(map(float, cols[col])),
                          col, os.path.join(plot_dir, f"{col}.svg"))


def _load(path: str, overrides: Optional[Dict[str, str]] = None):
    """(scenario, manifold) of a config file, ``overrides`` replacing its values.

    Prints one ``config error:`` line and returns None when either is invalid
    or a file the profile names (``tabulated``) cannot be read.
    """
    try:
        cfg = load_scenario(path, overrides)
        return cfg, cfg.build()
    except (ConfigError, GeometryError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _scenario_run(cfg: ScenarioConfig, manifold: DiscretizedManifold, out_dir: str,
                  quiet: bool) -> int:
    os.makedirs(out_dir, exist_ok=True)
    report = audit_assumptions(manifold)
    if not quiet or not report.ok:
        print(report, file=sys.stderr)

    try:
        traj = run(manifold, cfg.flow, checkpoint_dir=out_dir)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(f"last valid checkpoint: {exc.checkpoint_path}", file=sys.stderr)
        return EXIT_SOLVER

    ledger = traj.ledger
    if "parabolic_sobolev" in cfg.monitors and all(
            ledger.hypotheses[name].passed for name in bounds.REQUIRES["parabolic_sobolev"]):
        est = estimate_yamabe_constant(manifold, max_iter=cfg.yamabe_max_iter)
        if est.value > 0.0:
            ledger.attach_sobolev(manifold, est.value)

    results = bounds.run_monitors(
        traj, names=cfg.monitors, p_values=cfg.p_values,
        sobolev_samples=cfg.sobolev_samples, seed=cfg.seed + 2024,
    )

    write_timeseries(traj, os.path.join(out_dir, "timeseries.csv"))
    write_monitors(results, os.path.join(out_dir, "monitors.csv"))
    with open(os.path.join(out_dir, "ledger.txt"), "w", encoding="utf-8") as fh:
        fh.write(ledger.describe() + "\n")
    if cfg.plots:
        cols = {col: getattr(traj, f) for col, f, _ in TIMESERIES_COLUMNS}
        _plot_columns(cols, os.path.join(out_dir, "plots"))

    failed = [r.monitor_id for r in results if r.applicable and not r.passed]
    if not quiet:
        for r in results:
            status = "n/a " if not r.applicable else ("pass" if r.passed else "FAIL")
            why = "" if r.applicable else f": {r.notes[-1]}"    # the note of the unmet requirement
            print(f"[{status}] {r.monitor_id}{why}")
    if failed:
        print(f"monitor failures: {', '.join(failed)}", file=sys.stderr)
        return EXIT_MONITOR
    return EXIT_OK


def cmd_run(args) -> int:
    overrides = {} if args.seed is None else {"seed": str(args.seed)}
    if (loaded := _load(args.config, overrides)) is None:
        return EXIT_CONFIG
    cfg, manifold = loaded
    base_out = args.out or cfg.output_dir or os.path.join(_out_root(), "out")

    if args.sweep:
        key, _, items = args.sweep.partition("=")
        key = key.strip()
        values = [v for v in items.split(",") if v]
        if not key or not values or len(set(values)) < len(values):   # one directory per value
            print("sweep error: sweep needs PARAM=a,b,c with distinct values", file=sys.stderr)
            return EXIT_CONFIG
        try:
            for val in values:      # an unknown key or unreadable value ends here, once
                parse_kv("", overrides={key: val})
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return _run_sweep(args.config, key, values, overrides, base_out, args.quiet)
    return _scenario_run(cfg, manifold, base_out, args.quiet)


def _run_sweep(config_path: str, key: str, values: List[str], overrides: Dict[str, str],
               base_out: str, quiet: bool) -> int:
    """One worker per value; a worker that raises counts as a solver abort.

    A worker's overrides are ``overrides`` (``--seed``) and its sweep value,
    which wins when the sweep key is ``seed`` too.
    """
    import concurrent.futures as cf

    worst = EXIT_OK
    with cf.ProcessPoolExecutor() as pool:
        jobs = []
        for val in values:
            out = os.path.join(base_out, f"{key}={val}")
            jobs.append((out, pool.submit(_sweep_job, config_path, {**overrides, key: val}, out)))
        for out, fut in jobs:
            try:
                code = fut.result()
            except Exception as exc:
                print(f"sweep {out}: worker failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                code = EXIT_SOLVER
            worst = max(worst, code)
            if not quiet:
                print(f"sweep {out}: exit {code}")
    return worst


def _sweep_job(config_path: str, overrides: Dict[str, str], out_dir: str) -> int:
    if (loaded := _load(config_path, overrides)) is None:
        return EXIT_CONFIG
    return _scenario_run(*loaded, out_dir, quiet=True)


def cmd_audit(args) -> int:
    if (loaded := _load(args.config)) is None:
        return EXIT_CONFIG
    cfg, manifold = loaded
    report = audit_assumptions(manifold)
    print(report)
    print("monitors that require each hypothesis")
    for check in report.checks:
        gated = [key for key, names in bounds.REQUIRES.items() if check.name in names]
        print(f"  {check.name}: {', '.join(gated) or '-'}")
    return EXIT_OK


def cmd_yamabe(args) -> int:
    if (loaded := _load(args.config)) is None:
        return EXIT_CONFIG
    cfg, manifold = loaded
    est = estimate_yamabe_constant(manifold, max_iter=cfg.yamabe_max_iter)
    tag = "" if est.converged else "  [not_converged]"
    print(f"Y_est = {est.value:.12g}  (upper bound; rotationally symmetric "
          f"competitors){tag}")
    print(f"iterations = {est.iterations}")
    return EXIT_OK


def cmd_auxcheck(args) -> int:
    from . import auxfn     # imported here: no other subcommand needs the catalogue

    if args.seed is None:
        args.seed = auxfn.DEFAULT_SEED
    for flag, value, least in (("--samples", args.samples, 1), ("--seed", args.seed, 0)):
        if value < least:
            print(f"yflow auxcheck: {flag} must be an integer >= {least} (got {value})",
                  file=sys.stderr)
            return EXIT_CONFIG
    ids = None
    if args.ineq is not None:
        ids = [tok.strip() for tok in args.ineq.split(",") if tok.strip()]
        if not ids:
            print(f"yflow auxcheck: --ineq names no inequality (got {args.ineq!r})",
                  file=sys.stderr)
            return EXIT_CONFIG
        for ineq_id in ids:
            if ineq_id not in auxfn.catalogue_ids():
                print(f"unknown inequality {ineq_id!r}", file=sys.stderr)
                return EXIT_CONFIG
    rows = auxfn.run_catalogue(ids=ids, samples=args.samples, seed=args.seed)
    print(f"{'inequality':<10} {'samples':>9} {'violations':>11} {'worst margin':>14}")
    bad = 0
    for row in rows:
        print(f"{row.ineq_id:<10} {row.samples:>9} {row.violations:>11} "
              f"{row.worst_margin:>14.3e}")
        bad += row.violations
    if args.sharpness:
        print("\nout-of-region sharpness probes:")
        for ineq_id in ("I2", "I4"):
            if ids and ineq_id not in ids:
                continue
            v = auxfn.find_counterexample(ineq_id, budget=args.samples,
                                          seed=args.seed, out_of_region=True)
            if v is None:
                print(f"  {ineq_id}: no violation found (unexpected)")
                bad += 1
            else:
                print(f"  {ineq_id}: violated at beta={v.params.beta:.6g} "
                      f"L={v.params.L:.6g} n={v.params.n} x={v.x:.6g} "
                      f"(lhs {v.lhs:.6g} > rhs {v.rhs:.6g})")
    return EXIT_MONITOR if bad else EXIT_OK


def cmd_moser(args) -> int:
    if (loaded := _load(args.config)) is None:
        return EXIT_CONFIG
    cfg, manifold = loaded
    beta = args.beta if args.beta is not None else cfg.moser_beta
    k_max = args.kmax if args.kmax is not None else cfg.moser_k_max
    try:
        bounds.check_chain_parameters(beta, k_max)
    except ValueError as exc:
        print(f"yflow moser: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        traj = run(manifold, cfg.flow)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    report = bounds.moser_chain(traj, beta=beta, k_max=k_max)
    print(report.describe())
    return EXIT_OK if report.finite else EXIT_MONITOR


def cmd_plot(args) -> int:
    try:
        with open(args.csv, "r", encoding="utf-8") as fh:
            lines = [(i, ln) for i, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    except OSError as exc:
        print(f"cannot read {args.csv}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if len(lines) < 2:
        print(f"{args.csv}: no data rows", file=sys.stderr)
        return EXIT_CONFIG
    header = lines[0][1].split(",")
    missing = [c for c, _, _ in TIMESERIES_COLUMNS if c not in header]
    if missing:
        print(f"{args.csv}: missing columns {', '.join(missing)}", file=sys.stderr)
        return EXIT_CONFIG
    cols = {name: [] for name in header}
    for lineno, ln in lines[1:]:
        try:
            values = [float(tok) for tok in ln.split(",")]
            if len(values) != len(header) or not all(map(math.isfinite, values)):
                raise ValueError(f"need {len(header)} finite values, got {ln!r}")
        except ValueError as exc:
            print(f"{args.csv}: line {lineno}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for name, value in zip(header, values):
            cols[name].append(value)
    out_dir = args.out or os.path.join(_out_root(), "plots")
    _plot_columns(cols, out_dir)
    print(f"wrote plots to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="yflow",
        description="Numerical laboratory for a volume-normalized conformal "
        "curvature flow on radial model manifolds, with a-posteriori bound "
        "monitors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario with monitors")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--sweep", default=None, metavar="PARAM=a,b,c")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=cmd_run)

    audit_p = sub.add_parser("audit", help="audit the standing assumptions")
    audit_p.add_argument("--config", required=True)
    audit_p.set_defaults(func=cmd_audit)

    yam_p = sub.add_parser("yamabe", help="estimate the conformal constant")
    yam_p.add_argument("--config", required=True)
    yam_p.set_defaults(func=cmd_yamabe)

    aux_p = sub.add_parser("auxcheck", help="sample the inequality catalogue")
    aux_p.add_argument("--ineq", default=None, metavar="I1,I2,...")
    aux_p.add_argument("--samples", type=int, default=100_000)
    aux_p.add_argument("--seed", type=int, default=None)     # None: auxfn.DEFAULT_SEED
    aux_p.add_argument("--sharpness", action="store_true",
                       help="also probe just outside the validity regions")
    aux_p.set_defaults(func=cmd_auxcheck)

    moser_p = sub.add_parser("moser", help="cylinder norm chain diagnostics")
    moser_p.add_argument("--config", required=True)
    moser_p.add_argument("--beta", type=float, default=None)
    moser_p.add_argument("--kmax", type=int, default=None)
    moser_p.set_defaults(func=cmd_moser)

    plot_p = sub.add_parser("plot", help="render timeseries.csv to SVG")
    plot_p.add_argument("csv")
    plot_p.add_argument("--out", default=None)
    plot_p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
