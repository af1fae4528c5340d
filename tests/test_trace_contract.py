"""Call counts of a traced flow job.

The benchmark's span tracer (``perfbench/tracer.py``, imported here by path
and left unchanged) reports a function's per-call metrics only when the
traced job calls it.  This runs a cut ``long_flow``-style scenario through
``yflow.cli.main`` under that tracer and checks that the flow's path keeps
its traced names, with one curvature evaluation per state and one
Laplacian band build per manifold.
"""
import importlib.util
from pathlib import Path

from yflow.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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

ON_PATH = (
    "flow.step",
    "flow.renormalize_volume",
    "discretization.TridiagonalOperator.solve",
    "yamabe.scalar_curvature_flow",
    "yamabe.average_scalar",
)


def _tracer_class():
    spec = importlib.util.spec_from_file_location("yflow_span_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_flow_job_call_counts(tmp_path):
    cfg = tmp_path / "cut_long_flow.cfg"
    cfg.write_text(SCENARIO)
    out = tmp_path / "out"
    tracer = _tracer_class()().install()
    try:
        code = main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: row["calls"] for name, row in tracer.table().items()}
    # header and the initial state's row precede one row per accepted step
    steps = len((out / "timeseries.csv").read_text().splitlines()) - 2
    assert steps == 20

    assert [name for name in ON_PATH if calls.get(name, 0) < 1] == []
    assert calls["yamabe.scalar_curvature_flow"] == steps + 1
    assert calls["discretization.TridiagonalOperator.laplacian"] == 1
