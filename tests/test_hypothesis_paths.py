"""Outputs of runs on which the paper's hypotheses fail.

The benchmark scenarios are smooth, so every hypothesis holds on them and
no monitor is ever not applicable.  Each scenario here has a cone tip:
``cone(0.8)`` has unbounded S0 outside L^q, ``cone(1.5)`` also unbounded
(S0)_-, and ``capped_cone(0.8, 0.3)`` is compact with one cone point.  Each
short ``yflow run`` is compared with the files under
``tests/data/hypothesis_paths/<scenario>/``, which ``yflow run`` wrote for
the same config: the monitor ids and verdicts exactly and in order, every
number of ``monitors.csv`` and ``ledger.txt`` within 1e-12 relative.  The
lines of ``yflow audit`` pinned below must appear in its output, in order.
"""
import math
import re
from pathlib import Path

import pytest

from yflow.cli import main

DATA = Path(__file__).resolve().parent / "data" / "hypothesis_paths"
REL = 1e-12

SCENARIOS = {
    # the CONE_CFG of test_config_cli
    "cone_0.8": """\
profile.name = cone
profile.a = 0.8
grid.M = 48
grid.gamma = 1.0
flow.T = 0.01
flow.dt_init = 2e-5
flow.dt_max = 2e-5
flow.snapshot_every = 25
monitors.p = 2,inf
""",
    "cone_1.5": """\
profile.name = cone
profile.a = 1.5
grid.M = 32
grid.gamma = 1.0
flow.T = 5e-4
flow.dt_init = 1e-5
flow.dt_max = 1e-5
flow.snapshot_every = 10
monitors.p = 2,inf
""",
    "capped_cone": """\
profile.name = capped_cone
profile.a = 0.8
profile.cap_radius = 0.3
grid.M = 48
grid.gamma = 1.0
flow.T = 2e-3
flow.dt_init = 2e-5
flow.dt_max = 2e-5
flow.snapshot_every = 25
monitors.p = 2,inf
""",
}

_DIVERGES = ("tip: |S0|^q ~ x^(-2q) against weight x^(n-1); exponent n-1-2q = -7 <= -1, "
             "so the L^4.5 integral diverges under refinement")

AUDIT_LINES = {
    "cone_0.8": [
        "assumption audit (q = 4.5)",
        "  [pass] finite_volume: total volume normalized to 1",
        "  [FAIL] s0_lq_finite: quadrature value 511.477 (divergent at tip)",
        "  [pass] s0_minus_bounded: max (S0)_- over nodes = 0",
        f"  warning: cone(0.8) {_DIVERGES}",
    ],
    "cone_1.5": [
        "assumption audit (q = 4.5)",
        "  [pass] finite_volume: total volume normalized to 1",
        "  [FAIL] s0_lq_finite: quadrature value 698.484 (divergent at tip)",
        "  [FAIL] s0_minus_bounded: max (S0)_- over nodes = 5732.64 (unbounded: cone slope > 1)",
        f"  warning: cone(1.5) {_DIVERGES}",
    ],
    "capped_cone": [
        "assumption audit (q = 4.5)",
        "  [pass] finite_volume: total volume normalized to 1",
        "  [FAIL] s0_lq_finite: quadrature value 258.833 (divergent at tip)",
        "  [pass] s0_minus_bounded: max (S0)_- over nodes = 0",
        f"  warning: cone(0.8) {_DIVERGES}",
    ],
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _close(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    if math.isnan(b):
        return math.isnan(a)
    return a == b or math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


def _monitor_rows(text: str):
    lines = text.splitlines()
    assert lines[0] == "monitor_id,t,lhs,rhs,margin,verdict"
    return [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request, tmp_path_factory):
    name = request.param
    tmp = tmp_path_factory.mktemp(name)
    cfg = tmp / "scenario.cfg"
    cfg.write_text(SCENARIOS[name])
    out = tmp / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    return name, cfg, out


def test_monitor_ids_and_verdicts(scenario):
    name, _, out = scenario
    got = [(r[0], r[5]) for r in _monitor_rows((out / "monitors.csv").read_text())]
    want = [(r[0], r[5]) for r in _monitor_rows((DATA / name / "monitors.csv").read_text())]
    assert got == want
    assert ("parabolic_sobolev", "not_applicable") in got
    if name == "cone_1.5":
        for mid in ("s_minus_decay_pinf", "u_upper"):
            assert (mid, "not_applicable") in got


def test_monitor_numbers(scenario):
    name, _, out = scenario
    got = _monitor_rows((out / "monitors.csv").read_text())
    want = _monitor_rows((DATA / name / "monitors.csv").read_text())
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        bad = [k for k in range(1, 5) if not _close(row[k], ref[k])]
        assert not bad, (row, ref)


def test_ledger_numbers(scenario):
    name, _, out = scenario
    got = (out / "ledger.txt").read_text().splitlines()
    want = (DATA / name / "ledger.txt").read_text().splitlines()
    assert len(got) == len(want)
    for line, ref in zip(got, want):
        # labels such as ||(S0)-||_L2 carry digits too; compare the values only
        label, _, values = line.partition("=")
        ref_label, _, ref_values = ref.partition("=")
        assert label == ref_label
        nums, ref_nums = _NUMBER.findall(values), _NUMBER.findall(ref_values)
        assert _NUMBER.sub("#", values) == _NUMBER.sub("#", ref_values)
        assert len(nums) == len(ref_nums)
        assert all(_close(a, b) for a, b in zip(nums, ref_nums)), (line, ref)


def test_audit_text(scenario, capsys):
    name, cfg, _ = scenario
    capsys.readouterr()
    assert main(["audit", "--config", str(cfg)]) == 0
    lines = iter(capsys.readouterr().out.splitlines())
    # each pinned line, in order; lines between them may be added
    missing = [want for want in AUDIT_LINES[name] if want not in lines]
    assert missing == []
