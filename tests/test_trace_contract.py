"""Call counts of traced flow jobs.

The benchmark's span tracer (``perfbench/tracer.py``, imported here by path
and left unchanged) reports a function's per-call metrics only when the
traced job calls it.  This runs cut ``long_flow``- and
``dense_monitors``-style scenarios through ``yflow.cli.main`` under that
tracer.  The first checks that the flow's path keeps its traced names, with
one curvature evaluation per state, one traced tridiagonal solve per step
and one Laplacian band build per manifold; the second that every monitor, checkpoint and output writer the
benchmark times still runs.  The third traces ``auxcheck``: the tracer sees
only the process it is installed in, so the catalogue's entry points must
still be called there when the scans run on a process pool.  The last
reads ``BENCHMARK.json``: every function a per-call metric names must still
exist, or that metric is reported absent.
"""
import importlib
import importlib.util
import json
from pathlib import Path

from yflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# the statistics a per-layer metric ``<module>.<qualname>.<stat>`` reads from spans
PER_CALL_STATS = ("calls", "calls_per_step", "self_us", "self_ms", "self_s")

SCENARIO = """\
profile.name = perturbed_sphere
profile.eps = 0.1
manifold.n = 3
grid.M = 64
grid.gamma = 2.0
flow.T = 0.01
flow.dt_init = 5e-4
flow.dt_max = 5e-4
flow.snapshot_every = 5
monitors.enable = all
monitors.p = 2,4,8,inf
output.plots = false
seed = 1
"""

DENSE_SCENARIO = """\
profile.name = perturbed_sphere
profile.eps = 0.2
manifold.n = 3
grid.M = 32
grid.gamma = 2.0
flow.T = 0.02
flow.dt_init = 1e-3
flow.dt_max = 1e-3
flow.snapshot_every = 1
flow.checkpoint_every = 5
monitors.enable = all
monitors.p = 2,3,4,6,8,inf
monitors.samples = 5
output.plots = true
seed = 1
"""

# the set-up layers come first: the benchmark reads their self times
ON_PATH = (
    "config.load_scenario",
    "geometry.build_manifold",
    "geometry.audit_assumptions",
    "flow.step",
    "flow.renormalize_volume",
    "discretization.TridiagonalOperator.solve",
    "yamabe.scalar_curvature_flow",
    "yamabe.average_scalar",
    "yamabe.estimate_yamabe_constant",
)


DENSE_ON_PATH = (
    "bounds.check_s_minus_decay",
    "bounds.check_scal_lower",
    "bounds.check_u_upper",
    "bounds.check_u_lower",
    "bounds.check_s_upper",
    "bounds.check_parabolic_sobolev",
    "bounds.check_energy_decay",
    "bounds.run_monitors",
    "flow.checkpoint",
    "cli.write_timeseries",
    "cli.write_monitors",
    "svgplot.render_series",
)


def _tracer_class():
    spec = importlib.util.spec_from_file_location("yflow_span_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _traced_main(argv):
    """Exit code and per-name call counts of one traced ``yflow`` command."""
    tracer = _tracer_class()().install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    return code, {name: row["calls"] for name, row in tracer.table().items()}


def _traced_calls(tmp_path, scenario: str):
    """Exit code and per-name call counts of one traced ``yflow run``."""
    cfg = tmp_path / "cut.cfg"
    cfg.write_text(scenario)
    return _traced_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--quiet"])


def test_traced_flow_job_call_counts(tmp_path):
    code, calls = _traced_calls(tmp_path, SCENARIO)
    assert code == 0
    out = tmp_path / "out"
    # header and the initial state's row precede one row per accepted step
    steps = len((out / "timeseries.csv").read_text().splitlines()) - 2
    assert steps == 20

    assert [name for name in ON_PATH if calls.get(name, 0) < 1] == []
    assert calls["yamabe.scalar_curvature_flow"] == steps + 1
    # every step call, accepted or rejected, solves through the traced entry point
    assert calls["discretization.TridiagonalOperator.solve"] == calls["flow.step"]
    assert calls["discretization.TridiagonalOperator.laplacian"] == 1


def test_traced_dense_monitors_job_call_counts(tmp_path):
    code, calls = _traced_calls(tmp_path, DENSE_SCENARIO)
    assert code == 0
    assert [name for name in DENSE_ON_PATH if calls.get(name, 0) < 1] == []
    assert calls["flow.checkpoint"] == 4
    # one call derives every exponent's rows
    assert calls["bounds.check_s_minus_decay"] == 1


def test_traced_catalogue_job_call_counts(capsys):
    # 40000 samples is two scan blocks, so the 14 scans may run on a pool
    code, calls = _traced_main(["auxcheck", "--samples", "40000", "--sharpness"])
    assert code == 0
    assert calls["auxfn.run_catalogue"] == 1
    assert calls["auxfn.find_counterexample"] == 2


def test_per_call_metrics_name_traced_functions():
    # the tracer wraps public functions and methods defined in each yflow module;
    # a deleted or renamed one leaves its metrics absent, e.g. discretization.laplacian,
    # which no program path calls but whose call count a metric reads
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    heads = [name.rsplit(".", 1)[0] for name in (m["name"] for m in metrics)
             if name.rsplit(".", 1)[1] in PER_CALL_STATS]
    assert "discretization.laplacian" in heads and "yamabe.FlowState.from_u" in heads
    unresolved = []
    for head in heads:
        module, _, qualname = head.partition(".")
        obj = importlib.import_module(f"yflow.{module}")
        for part in qualname.split("."):
            obj = None if part.startswith("_") else getattr(obj, part, None)
        if not (callable(obj) and obj.__module__ == f"yflow.{module}"):
            unresolved.append(head)
    assert unresolved == []
