"""Scenario runner and result emission.

Subcommands: ``run``, ``audit``, ``yamabe``, ``auxcheck``, ``moser``,
``plot``.  Exit codes: 0 success, 1 monitor failure, 2 configuration or
usage error, 3 solver abort.  ``YFLOW_OUT`` sets the default output root;
audit findings are warnings on stderr and never abort a run.

The flow stack (config, geometry, flow, yamabe, bounds) is imported by the
subcommands that use it, so ``auxcheck`` loads only the catalogue.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:
    from .config import ScenarioConfig
    from .flow import Trajectory
    from .geometry import DiscretizedManifold


def _timeseries_columns():
    """(timeseries.csv column, Trajectory column, plotted to <column>.svg): the
    record columns, energy headed energy_S_rho; t, dt and the (S - rho)_- norms
    are not plotted."""
    from .flow import RECORD_COLUMNS

    return tuple(("energy_S_rho" if f == "energy" else f, f,
                  f not in ("t", "dt", "s_minus_l2", "s_minus_linf"))
                 for f in RECORD_COLUMNS)


def __getattr__(name):
    # PEP 562: TIMESERIES_COLUMNS reads flow's columns on first use
    if name == "TIMESERIES_COLUMNS":
        return _timeseries_columns()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_MONITOR = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _out_root() -> str:
    return os.environ.get("YFLOW_OUT") or "."


# rows per block of the CSV writers: one block's text is held at a time, never the file's
_BLOCK_ROWS = 1024


def _write_rows(path: str, header: str, blocks) -> None:
    """Write ``header`` and then the rows of each of ``blocks`` to ``path``, block by block.

    A block of k rows is ``(row_format, floats, labels)``: row i is
    ``row_format %`` column i of the (columns x k) float64 array ``floats``,
    then ``labels[i]`` when ``labels`` is not None. The formats write each float
    with ``%.17g``, which is ``f"{v:.17g}"``, for ±0, ±inf, nan and subnormals too.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for row_format, floats, labels in blocks:
            columns = np.asarray(floats, dtype=np.float64).tolist()
            if labels is not None:
                columns.append(labels)
            cells = [None] * (len(columns) * len(columns[0]))
            for i, column in enumerate(columns):     # row-major: the cells of row 0 first
                cells[i::len(columns)] = column
            fh.write(((row_format * len(columns[0])) % tuple(cells)).encode("ascii"))


def write_timeseries(traj: Trajectory, path: str) -> None:
    columns = _timeseries_columns()
    cols = [getattr(traj, f) for _, f, _ in columns]
    row_format = ",".join(["%.17g"] * len(cols)) + "\n"
    _write_rows(path, ",".join(col for col, _, _ in columns), (
        (row_format, np.stack([c[lo:lo + _BLOCK_ROWS] for c in cols]), None)
        for lo in range(0, len(cols[0]), _BLOCK_ROWS)))


def write_monitors(results, path: str) -> None:
    def blocks():
        for res in results:
            row_format = res.monitor_id + ",%.17g,%.17g,%.17g,%.17g,%s\n"
            if not res.applicable:      # then it has no rows
                yield row_format, np.full((4, 1), math.nan), ["not_applicable"]
            for lo in range(0, res.t.size, _BLOCK_ROWS):
                part = slice(lo, lo + _BLOCK_ROWS)
                lhs, rhs = res.lhs[part], res.rhs[part]     # margin: rhs - lhs, per block
                yield (row_format, np.stack((res.t[part], lhs, rhs, rhs - lhs)),
                       np.where(res.verdict[part], "pass", "FAIL").tolist())

    with np.errstate(invalid="ignore"):     # the margin of an inf, inf row is nan
        _write_rows(path, "monitor_id,t,lhs,rhs,margin,verdict", blocks())


def _make_dir(path: str) -> bool:
    """Make the directory ``path`` if it is missing; if that fails, one ``config error:`` line."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:      # a file at path or at one of its parents
        print(f"config error: cannot create output directory {path}: {exc}", file=sys.stderr)
        return False
    return True


def _plot_columns(cols, plot_dir: str) -> None:
    """One SVG per plotted timeseries column; ``cols`` maps column to values."""
    from .svgplot import render_series

    ts = np.asarray(cols["t"], dtype=float).tolist()
    for col, _, plotted in _timeseries_columns():
        if plotted:
            render_series(ts, np.asarray(cols[col], dtype=float).tolist(),
                          col, os.path.join(plot_dir, f"{col}.svg"))


def _load(path: str, overrides: Optional[Dict[str, str]] = None):
    """(scenario, manifold) of a config file, ``overrides`` replacing its values.

    Prints one ``config error:`` line and returns None when either is invalid
    or a file the profile names (``tabulated``) cannot be read.
    """
    from .config import ConfigError, load_scenario
    from .geometry import GeometryError

    try:
        cfg = load_scenario(path, overrides)
        return cfg, cfg.build()
    except (ConfigError, GeometryError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _scenario_run(cfg: ScenarioConfig, manifold: DiscretizedManifold, out_dir: str,
                  quiet: bool) -> int:
    from . import bounds
    from .flow import SolverAbort, run
    from .geometry import audit_assumptions
    from .yamabe import estimate_yamabe_constant

    if not _make_dir(out_dir):
        return EXIT_CONFIG
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

    y_est = None
    if "parabolic_sobolev" in cfg.monitors and all(
            manifold.hypotheses[name].passed for name in bounds.REQUIRES["parabolic_sobolev"]):
        est = estimate_yamabe_constant(manifold)
        if est.value > 0.0:
            y_est = est.value

    results = bounds.run_monitors(
        traj, names=cfg.monitors, p_values=cfg.p_values,
        sobolev_samples=cfg.sobolev_samples, seed=cfg.seed + 2024, y_est=y_est,
    )

    write_timeseries(traj, os.path.join(out_dir, "timeseries.csv"))
    write_monitors(results, os.path.join(out_dir, "monitors.csv"))
    with open(os.path.join(out_dir, "ledger.txt"), "w", encoding="utf-8") as fh:
        fh.write(bounds.describe_ledger(traj, results, y_est) + "\n")
    if cfg.plots:
        if not _make_dir(plot_dir := os.path.join(out_dir, "plots")):
            return EXIT_CONFIG
        _plot_columns({col: getattr(traj, f) for col, f, _ in _timeseries_columns()}, plot_dir)

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
    from .config import ConfigError, parse_kv

    overrides = {} if args.seed is None else {"seed": str(args.seed)}
    if (loaded := _load(args.config, overrides)) is None:
        return EXIT_CONFIG
    cfg, manifold = loaded
    base_out = args.out or cfg.output_dir or os.path.join(_out_root(), "out")

    if args.sweep:
        key, _, items = args.sweep.partition("=")
        key = key.strip()
        values = [v for v in map(str.strip, items.split(",")) if v]
        if not key or not values or len(set(values)) < len(values):   # one directory per value
            print("sweep error: sweep needs PARAM=a,b,c with distinct values", file=sys.stderr)
            return EXIT_CONFIG
        try:
            for val in values:      # an unknown key or unreadable value ends here, once
                parse_kv("", overrides={key: val})
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not _make_dir(base_out):     # once, not in every worker
            return EXIT_CONFIG
        return _run_sweep(args.config, key, values, overrides, base_out, args.quiet)
    return _scenario_run(cfg, manifold, base_out, args.quiet)


def _run_sweep(config_path: str, key: str, values: List[str], overrides: Dict[str, str],
               base_out: str, quiet: bool) -> int:
    """One job per value, on up to ``os.cpu_count()`` workers; a job that
    raises counts as a solver abort.

    A worker's overrides are ``overrides`` (``--seed``) and its sweep value,
    which wins when the sweep key is ``seed`` too.
    """
    import concurrent.futures as cf

    worst = EXIT_OK
    with cf.ProcessPoolExecutor(min(len(values), os.cpu_count() or 1)) as pool:
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
    from . import bounds
    from .geometry import audit_assumptions

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
    from .yamabe import estimate_yamabe_constant

    if (loaded := _load(args.config)) is None:
        return EXIT_CONFIG
    _, manifold = loaded
    est = estimate_yamabe_constant(manifold)
    tag = "" if est.converged else "  [not_converged]"
    print(f"Y_est = {est.value:.12g}  (upper bound; rotationally symmetric "
          f"competitors){tag}")
    print(f"iterations = {est.iterations}")
    return EXIT_OK


def cmd_auxcheck(args) -> int:
    from . import auxfn

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
        for i, ineq_id in enumerate(ids):
            if ineq_id not in auxfn.catalogue_ids():
                print(f"unknown inequality {ineq_id!r}", file=sys.stderr)
                return EXIT_CONFIG
            if ineq_id in ids[:i]:      # one row per id, and one scan
                print(f"yflow auxcheck: --ineq lists {ineq_id} twice", file=sys.stderr)
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
    from . import bounds
    from .flow import SolverAbort, run

    flags = {"moser.beta": args.beta, "moser.k_max": args.kmax}
    if (loaded := _load(args.config, {k: v for k, v in flags.items() if v is not None})) is None:
        return EXIT_CONFIG
    cfg, manifold = loaded
    try:
        traj = run(manifold, cfg.flow)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    report = bounds.moser_chain(traj, beta=cfg.moser_beta, k_max=cfg.moser_k_max)
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
    missing = [c for c, _, _ in _timeseries_columns() if c not in header]
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
    if not _make_dir(out_dir):
        return EXIT_CONFIG
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
    # read as the moser.beta and moser.k_max values of the config file
    moser_p.add_argument("--beta", default=None)
    moser_p.add_argument("--kmax", default=None)
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
