import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yflow.flow import (
    CheckpointError,
    FlowConfig,
    SolverAbort,
    StepRejected,
    Trajectory,
    checkpoint,
    config_hash,
    renormalize_volume,
    restore,
    run,
    step,
)
from conftest import raw_volume
import yflow.flow
from yflow.bounds import describe_ledger, run_monitors
from yflow.discretization import lp_norm
from yflow.flow import _record_of
from yflow.geometry import RadialGrid, build_manifold, perturbed_sphere, sphere
from yflow.yamabe import FlowState, VolumeError


def test_flow_does_not_import_the_monitors():
    # the flow layer stands below the monitors: a run carries its rho0, not their constants
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, yflow.flow; print('yflow.bounds' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_round_sphere_is_stationary(sphere256):
    st0 = FlowState.initial(sphere256)
    st1 = step(sphere256, st0, 1e-3)
    assert np.max(np.abs(st1.u - 1.0)) <= 1e-12
    assert st1.rho == pytest.approx(st0.rho, rel=1e-12)


def test_volume_exact_after_step(bumpy128):
    st0 = FlowState.initial(bumpy128)
    st1 = step(bumpy128, st0, 1e-3)
    assert abs(st1.volume - 1.0) <= 1e-12


def test_renormalize_identity_and_formula(bumpy128):
    st0 = FlowState.initial(bumpy128)
    same = renormalize_volume(bumpy128, st0.u, st0.t)
    assert np.allclose(same.u, st0.u, rtol=1e-14)

    u = 1.5 * st0.u
    vol = float(np.sum(bumpy128.mu_weights * u ** 6.0))
    fixed = renormalize_volume(bumpy128, u, 0.0)
    # u_new = u * Vol^{-(n-2)/(2n)}
    assert np.allclose(fixed.u, u * vol ** (-1.0 / 6.0), rtol=1e-13)
    assert fixed.volume == pytest.approx(1.0, abs=1e-12)


def test_projection_drift_is_second_order(bumpy128):
    st0 = FlowState.initial(bumpy128)
    d1 = abs(raw_volume(bumpy128, st0, 1e-3) - 1.0)
    d2 = abs(raw_volume(bumpy128, st0, 5e-4) - 1.0)
    assert 3.0 <= d1 / d2 <= 5.0


def test_constant_factor_relaxes_monotonically(sphere64):
    # start off the unit-volume slice; after projection the state is the
    # fixed point again, so rho must stay put and u snap back to 1
    st0 = FlowState.initial(sphere64, 1.3 * np.ones(sphere64.node_count))
    assert np.allclose(st0.u, 1.0, rtol=1e-12)
    cfg = FlowConfig(T_final=0.05, dt_init=1e-3, dt_max=1e-3)
    traj = run(sphere64, cfg)
    rhos = traj.rho
    assert np.all(np.diff(rhos) <= 1e-8 * (1.0 + np.abs(rhos[:-1])))


def test_run_round_sphere_trajectory(sphere256):
    cfg = FlowConfig(T_final=0.2, dt_init=1e-3, dt_max=1e-3, snapshot_every=50)
    traj = run(sphere256, cfg)
    rhos = traj.rho
    assert np.max(np.abs(rhos - rhos[0])) <= 1e-8 * rhos[0]
    assert np.abs(traj.u - 1.0).max() <= 1e-8
    assert np.max(np.abs(traj.vol - 1.0)) <= 1e-12


def test_rho_monotone_on_perturbed_run(bumpy128_run):
    rhos = bumpy128_run.rho
    assert np.all(np.diff(rhos) <= 1e-8 * (1.0 + np.abs(rhos[:-1])))


def test_energy_shrinks_on_perturbed_run(bumpy128_run):
    energy = bumpy128_run.energy
    assert energy[-1] < 0.01 * energy[0]


def test_rho_ode_consistency_refines(bumpy128):
    # |d(rho)/dt + (n-2)/2 int (S-rho)^2 dVol| must shrink ~linearly in dt
    def mismatch(dt):
        cfg = FlowConfig(T_final=0.5, dt_init=dt, dt_max=dt)
        traj = run(bumpy128, cfg)
        rho = traj.rho
        en = traj.energy
        dr = (rho[2:] - rho[:-2]) / (2.0 * dt)
        rhs = -0.5 * en[1:-1]
        return np.abs(dr - rhs).sum() / np.abs(rhs).sum()

    e_coarse = mismatch(1e-3)
    e_fine = mismatch(5e-4)
    assert e_coarse < 0.15  # coarse sanity; tight level tested at scale
    assert e_fine <= 0.65 * e_coarse


def test_controller_grows_dt(bumpy128):
    cfg = FlowConfig(T_final=0.05, dt_init=1e-4, dt_max=2e-3)
    traj = run(bumpy128, cfg)
    dts = traj.dt[traj.dt > 0]
    assert max(dts) > 5 * dts[0]
    assert max(dts) <= cfg.dt_max * (1 + 1e-12)


def test_times_strictly_increasing(bumpy128_run):
    assert np.all(np.diff(bumpy128_run.t) > 0)
    assert np.all(np.diff(bumpy128_run.snap_t) > 0)
    bumpy128_run.validate()


def test_validate_checks_final_rho_against_dirichlet_form(bumpy128):
    traj = run(bumpy128, FlowConfig(T_final=0.02, dt_init=1e-3, dt_max=1e-3))
    traj.validate()
    traj.rho[-1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="Dirichlet form"):
        traj.validate()


def test_trajectory_stores_no_volume_weights():
    # a snapshot's weights are derived from its u, never stored
    assert "gvol_weights" not in {f.name for f in dataclasses.fields(Trajectory)}


def test_step_rejection_on_positivity(monkeypatch):
    # where S0 exceeds rho the factor moves down ~ dt (S0 - rho)/4; against
    # a tight floor that must reject the step, never clip it
    monkeypatch.setattr(yflow.flow, "_POSITIVITY_FLOOR", 0.99)
    m = build_manifold(perturbed_sphere(0.4), RadialGrid(M=32))
    st0 = FlowState.initial(m)
    with pytest.raises(StepRejected):
        step(m, st0, dt=0.01)


def test_abort_after_dt_underflow(tmp_path, monkeypatch):
    monkeypatch.setattr(yflow.flow, "_POSITIVITY_FLOOR", 0.999)
    monkeypatch.setattr(yflow.flow, "_DT_MIN", 1e-3)
    m = build_manifold(perturbed_sphere(0.4), RadialGrid(M=32))
    cfg = FlowConfig(T_final=1.0, dt_init=1e-3, dt_max=1e-3)
    with pytest.raises(SolverAbort, match="underflow"):
        run(m, cfg, checkpoint_dir=str(tmp_path))
    # the last valid state was persisted
    assert any(p.name.startswith("abort") for p in tmp_path.iterdir())


def test_rejected_step_is_never_retried_unchanged(monkeypatch):
    # the reaction cap and T - t set dt here, so one halving of the nominal dt
    # can leave it above the rejected dt
    attempts = []   # (t, dt, accepted) of every step the controller tries

    def spy(manifold, state, dt):
        try:
            out = step(manifold, state, dt)
        except StepRejected:
            attempts.append((state.t, dt, False))
            raise
        attempts.append((state.t, dt, True))
        return out

    monkeypatch.setattr(yflow.flow, "step", spy)
    monkeypatch.setattr(yflow.flow, "_POSITIVITY_FLOOR", 0.97)
    monkeypatch.setattr(yflow.flow, "_DT_MIN", 1e-6)
    m = build_manifold(perturbed_sphere(0.4), RadialGrid(M=32))
    cfg = FlowConfig(T_final=0.05, dt_init=0.5, dt_max=1.0)
    with pytest.raises(SolverAbort, match="underflow at t=0.00864103"):
        run(m, cfg)
    assert not any(a[:2] == b[:2] for a, b in zip(attempts, attempts[1:]) if not a[2])
    assert sum(not ok for _, _, ok in attempts) >= 10


def test_flow_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        FlowConfig(T_final=-1.0)
    # the step-size floor is read when the config is built
    monkeypatch.setattr(yflow.flow, "_DT_MIN", 1e-2)
    with pytest.raises(ValueError):
        FlowConfig(T_final=1.0, dt_init=1e-3)


def test_flow_config_rejects_negative_checkpoint_every():
    # 0 disables periodic checkpoints; a negative count must not write one every |k| steps
    assert FlowConfig(checkpoint_every=0).checkpoint_every == 0
    with pytest.raises(ValueError, match="^checkpoint_every must be >= 0$"):
        FlowConfig(checkpoint_every=-2)


@pytest.mark.parametrize("fields", [
    {"T_final": math.inf}, {"T_final": math.nan},
], ids=["T-inf", "T-nan"])
def test_flow_config_rejects_non_finite(fields):
    # an infinite horizon never ends, and a NaN one passes every check
    with pytest.raises(ValueError):
        FlowConfig(**fields)


# --- checkpointing ---------------------------------------------------------


def _mini_setup():
    m = build_manifold(perturbed_sphere(0.1), RadialGrid(M=48))
    cfg = FlowConfig(T_final=0.2, dt_init=1e-3, dt_max=2e-3, snapshot_every=1)
    return m, cfg


def test_checkpoint_roundtrip_exact(tmp_path):
    m, cfg = _mini_setup()
    traj = run(m, cfg)
    state = FlowState.from_u(m, traj.u[-1], float(traj.snap_t[-1]))
    path = str(tmp_path / "state.ckpt")
    checkpoint(state, path, m, cfg, dt_next=1.25e-3, step_index=7)
    restored, dt_next, k = restore(path, m, cfg)
    assert dt_next == 1.25e-3
    assert k == 7
    assert restored.t == state.t
    assert np.array_equal(restored.u, state.u)


def test_restore_then_step_matches_unbroken_run(tmp_path):
    m, cfg = _mini_setup()
    full = run(m, cfg)

    # persist the midpoint snapshot with the controller's next nominal dt
    # (the record's dt grown once, capped), then resume to the horizon
    i = int(np.argmax(full.snap_t >= 0.1))
    mid_step = int(full.snap_step[i])
    mid_state = FlowState.from_u(m, full.u[i], float(full.snap_t[i]))
    dt_next = min(float(full.dt[mid_step]) * 1.2, cfg.dt_max)
    path = str(tmp_path / "mid.ckpt")
    checkpoint(mid_state, path, m, cfg, dt_next=dt_next, step_index=mid_step)
    cont = run(m, cfg, resume_from=path)
    tail = full.step > mid_step
    cont_tail = cont.step > mid_step
    assert np.count_nonzero(tail) == np.count_nonzero(cont_tail)
    for col in ("t", "dt", "rho"):
        assert np.array_equal(getattr(full, col)[tail], getattr(cont, col)[cont_tail])
    assert np.array_equal(full.u[-1], cont.u[-1])
    # the bounds start from time zero: the time-zero rho, not the resumed state's
    assert full.rho0 == full.rho[0] and cont.rho0 == full.rho0 != cont.rho[0]


def test_restore_rejects_altered_grid(tmp_path):
    m, cfg = _mini_setup()
    state = FlowState.initial(m)
    path = str(tmp_path / "s.ckpt")
    checkpoint(state, path, m, cfg, dt_next=1e-3, step_index=0)
    other = build_manifold(perturbed_sphere(0.1), RadialGrid(M=64))
    with pytest.raises(CheckpointError, match="hash mismatch"):
        restore(path, other, cfg)
    other_cfg = FlowConfig(T_final=0.3, dt_init=1e-3, dt_max=2e-3)
    with pytest.raises(CheckpointError, match="hash mismatch"):
        restore(path, m, other_cfg)


def test_restore_reports_hash_mismatch_offset(tmp_path):
    m, cfg = _mini_setup()
    path = str(tmp_path / "s.ckpt")
    checkpoint(FlowState.initial(m), path, m, cfg, dt_next=1e-3, step_index=0)
    # the hash line follows the 9-byte "YFLOW v1" header
    with pytest.raises(CheckpointError, match="hash mismatch at byte 9 "):
        restore(path, build_manifold(perturbed_sphere(0.1), RadialGrid(M=64)), cfg)


def test_restore_reports_node_count_mismatch_offset(tmp_path):
    m, cfg = _mini_setup()
    path = tmp_path / "s.ckpt"
    checkpoint(FlowState.initial(m), str(path), m, cfg, dt_next=1e-3, step_index=0)
    lines = path.read_bytes().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(b"nodes "))
    lines[index] = b"nodes 17\n"
    path.write_bytes(b"".join(lines))
    offset = sum(map(len, lines[:index]))
    with pytest.raises(CheckpointError, match=rf"node count 17 at byte {offset} does not match"):
        restore(str(path), m, cfg)


def test_restore_reports_truncation_offset(tmp_path):
    m, cfg = _mini_setup()
    state = FlowState.initial(m)
    path = str(tmp_path / "s.ckpt")
    checkpoint(state, path, m, cfg, dt_next=1e-3, step_index=0)
    blob = Path(path).read_bytes()
    cut = len(blob) - 40
    with open(path, "wb") as fh:
        fh.write(blob[:cut])
    with pytest.raises(CheckpointError, match="byte"):
        restore(path, m, cfg)


# the values after "nodes" are ones no run can resume from: a t outside [0, T_final],
# a dt outside [_DT_MIN, dt_max] (1e-9 and 2e-3 here), a negative step, a u that is not
# positive, or any of them not finite
@pytest.mark.parametrize("key, bad", [
    ("t", "zero"), ("dt", "1e-3e"), ("step", "1.5"), ("nodes", "17.5"),
    ("t", "nan"), ("t", "-1"), ("t", "inf"), ("dt", "-1"), ("dt", "0"), ("dt", "nan"),
    ("step", "-1"), ("u", "nan"), ("u", "-1"), ("u", "0"), ("u", "inf"),
    ("t", "10"), ("dt", "5"), ("dt", "1e-12"),
])
def test_restore_reports_malformed_header_field_offset(tmp_path, key, bad):
    m, cfg = _mini_setup()
    path = tmp_path / "s.ckpt"
    checkpoint(FlowState.initial(m), str(path), m, cfg, dt_next=1e-3, step_index=0)
    lines = path.read_bytes().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(key.encode() + b" "))
    lines[index] = f"{key} {bad}\n".encode()
    path.write_bytes(b"".join(lines))
    offset = sum(map(len, lines[:index]))
    with pytest.raises(CheckpointError, match=rf"malformed '{key}' field at byte {offset}: '{bad}'"):
        restore(str(path), m, cfg)


def _checkpoint_with_u(tmp_path, u: str):
    """(manifold, config, path, offset of the first u line) of a checkpoint with one u = ``u``."""
    m, cfg = _mini_setup()
    path = tmp_path / "s.ckpt"
    checkpoint(FlowState.initial(m), str(path), m, cfg, dt_next=1e-3, step_index=0)
    lines = path.read_bytes().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith(b"u "))
    lines[first + 10] = f"u {u}\n".encode()
    path.write_bytes(b"".join(lines))
    return m, cfg, str(path), sum(map(len, lines[:first]))


def test_restore_reports_off_slice_volume_at_first_u_line(tmp_path):
    # positive and finite, but the volume is no longer 1
    m, cfg, path, offset = _checkpoint_with_u(tmp_path, "2")
    with pytest.raises(CheckpointError, match=rf"the u lines from byte {offset}: evolving volume"):
        restore(path, m, cfg)


def test_states_off_unit_volume_by_2e_10_are_refused(tmp_path):
    # every state is held to |vol - 1| <= 1e-10 where it is built: in FlowState.from_u,
    # and so in restore, which reports it at the first u line
    m, cfg = _mini_setup()
    state = FlowState.initial(m)
    p = 2.0 * m.n / (m.n - 2.0)
    assert FlowState.from_u(m, state.u * (1.0 + 5e-11) ** (1.0 / p), 0.0).volume != 1.0
    off = state.u * (1.0 + 2e-10) ** (1.0 / p)
    with pytest.raises(VolumeError, match="outside tolerance 1e-10 of 1"):
        FlowState.from_u(m, off, 0.0)
    path = tmp_path / "s.ckpt"
    checkpoint(dataclasses.replace(state, u=off), str(path), m, cfg, dt_next=1e-3, step_index=0)
    lines = path.read_bytes().splitlines(keepends=True)
    offset = sum(map(len, lines[:next(i for i, ln in enumerate(lines) if ln.startswith(b"u "))]))
    with pytest.raises(CheckpointError, match=rf"the u lines from byte {offset}: evolving volume "
                                              r"1\.0000000002 is outside tolerance 1e-10 of 1"):
        restore(str(path), m, cfg)


@pytest.mark.parametrize("u", ["1e200", "1e-200"])
def test_restore_reports_u_past_the_float_range_at_first_u_line(tmp_path, u):
    # positive and finite, but u^6 (the volume) or u^-5 (the curvature) overflows
    m, cfg, path, offset = _checkpoint_with_u(tmp_path, u)
    with pytest.raises(CheckpointError, match=rf"the u lines from byte {offset}: overflow"):
        restore(path, m, cfg)


@pytest.mark.parametrize("tail", ["garbage", "second-checkpoint"])
def test_restore_rejects_bytes_after_the_last_u_line(tmp_path, tail):
    m, cfg = _mini_setup()
    path = tmp_path / "s.ckpt"
    checkpoint(FlowState.initial(m), str(path), m, cfg, dt_next=1e-3, step_index=0)
    blob = path.read_bytes()
    path.write_bytes(blob + (b"u 1\ngarbage here\n" if tail == "garbage" else blob))
    with pytest.raises(CheckpointError,
                       match=rf"unexpected data after the last u line at byte {len(blob)}$"):
        restore(str(path), m, cfg)


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """(manifold, config, directory, bytes) of a short perturbed_sphere(0.2) run's checkpoint."""
    m = build_manifold(perturbed_sphere(0.2), RadialGrid(M=32))
    cfg = FlowConfig(T_final=0.05, dt_init=1e-3, dt_max=2e-3, checkpoint_every=10)
    out = tmp_path_factory.mktemp("fuzz")
    run(m, cfg, checkpoint_dir=str(out))
    return m, cfg, out, (out / "step00000010.ckpt").read_bytes()


# ("cut", at, _) keeps the bytes before ``at``; ("put", at, byte) overwrites one byte with
# any value, or with one that can extend or split a number or a line
EDITS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**16), st.just(0)),
    st.tuples(st.just("put"), st.integers(0, 2**16),
              st.integers(0, 255) | st.sampled_from(list(b"0123456789.+-eE \n"))),
)


@settings(max_examples=400, deadline=None)
@given(edit=EDITS)
# the first u line reads 1.0997521362124e56, finite and positive, but its u^6 overflows
@example(edit=("put", 145, ord("e")))
def test_restore_of_a_damaged_checkpoint_gives_a_state_or_a_byte_offset(fuzz_checkpoint, edit):
    m, cfg, out, blob = fuzz_checkpoint
    kind, at, byte = edit
    if kind == "cut":
        damaged = blob[:at % (len(blob) + 1)]
    else:
        at %= len(blob)
        damaged = blob[:at] + bytes([byte]) + blob[at + 1:]
    path = out / "damaged.ckpt"
    path.write_bytes(damaged)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            state, _, _ = restore(str(path), m, cfg)
        except CheckpointError as exc:
            assert re.search(r"byte \d+", str(exc)), exc
        else:
            assert isinstance(state, FlowState)


@pytest.mark.parametrize("k", [20, 2000, 10_000])
def test_fixed_dt_run_takes_k_steps_to_k_dt(tmp_path, k):
    # t summed over k steps misses T = k dt by rounding; no sliver step may follow
    m = build_manifold(perturbed_sphere(0.1), RadialGrid(M=16))
    dt = 1e-3
    cfg = FlowConfig(T_final=k * dt, dt_init=dt, dt_max=dt, snapshot_every=k,
                     checkpoint_every=k // 4)
    full = run(m, cfg, checkpoint_dir=str(tmp_path))
    assert full.step.tolist() == list(range(k + 1))
    assert full.dt[1:].min() > 0.5 * dt
    assert full.snap_step.tolist() == [0, k]
    # resumed from its last two checkpoints, the run ends on the same step, bit for bit
    for ckpt in (3 * k // 4, k):
        cont = run(m, cfg, resume_from=str(tmp_path / f"step{ckpt:08d}.ckpt"))
        assert cont.step.tolist() == list(range(ckpt, k + 1))
        assert cont.rho0 == full.rho0
        for col in ("t", "dt", "rho", "vol", "min_u", "max_u"):
            assert np.array_equal(getattr(cont, col)[1:], getattr(full, col)[ckpt + 1:])
        assert np.array_equal(cont.u[-1], full.u[-1])


@pytest.mark.parametrize("eps", [0.1, 0.2], ids=["positive-S0", "mixed-S0"])
def test_resumed_run_keeps_the_bounds(tmp_path, eps):
    # rho0 sets the u_upper rate, the positive-S0 scal_lower floor and the mixed-S0
    # s_minus_decay growth; a resumed run takes it from time zero, not from its checkpoint
    m = build_manifold(perturbed_sphere(eps), RadialGrid(M=48))
    cfg = FlowConfig(T_final=0.1, dt_init=1e-3, dt_max=1e-3, snapshot_every=1,
                     checkpoint_every=50)
    full = run(m, cfg, checkpoint_dir=str(tmp_path))
    cont = run(m, cfg, resume_from=str(tmp_path / "step00000050.ckpt"))
    assert cont.rho0 == full.rho0 != cont.rho[0]

    def rho0_line(traj):
        ledger = describe_ledger(traj, [])
        return next(line for line in ledger.splitlines() if line.lstrip().startswith("rho0"))

    assert rho0_line(cont) == rho0_line(full)
    shared = np.intersect1d(full.snap_t, cont.snap_t)
    assert shared.size == 51
    names = ("u_upper", "scal_lower", "s_minus_decay")
    for a, b in zip(run_monitors(full, names, p_values=(2.0,)),
                    run_monitors(cont, names, p_values=(2.0,))):
        assert a.monitor_id == b.monitor_id
        assert a.applicable and b.applicable
        rows_a, rows_b = np.isin(a.t, shared), np.isin(b.t, shared)
        assert np.count_nonzero(rows_a) == np.count_nonzero(rows_b) >= shared.size
        for col in ("t", "lhs", "rhs", "verdict"):
            assert getattr(a, col)[rows_a].tobytes() == getattr(b, col)[rows_b].tobytes()


def test_config_hash_sensitivity():
    m, cfg = _mini_setup()
    h1 = config_hash(m, cfg)
    m2 = build_manifold(perturbed_sphere(0.1), RadialGrid(M=48, gamma=2.0))
    assert config_hash(m2, cfg) != h1
    cfg2 = FlowConfig(T_final=0.2, dt_init=2e-3, dt_max=2e-3, snapshot_every=1)
    assert config_hash(m, cfg2) != h1
    # the fixed reaction-cap factor, step-size floor, unit-volume tolerance and positivity
    # floor keep their text, so earlier checkpoints keep their hash
    assert cfg.spec_string() == (
        "T=0.20000000000000001|cfl=0.90000000000000002|dt0=0.001|dtmin=1.0000000000000001e-09"
        "|dtmax=0.002|voltol=1e-10|floor=9.9999999999999998e-13")


@pytest.mark.parametrize("shape", ["mixed", "positive", "zero"])
def test_record_s_minus_columns_match_lp_norm(bumpy128, shape):
    # the record derives the S_- norms from S.min(); the benchmark's flows keep S > 0,
    # so the mixed-sign branch is checked against the lp_norm of S_- = max(-S, 0) here
    st = FlowState.initial(bumpy128)
    S = {"mixed": st.S - st.S.mean(), "positive": st.S, "zero": np.zeros_like(st.S)}[shape]
    st = dataclasses.replace(st, S=S)
    row, reaction = _record_of(st, 0, 0.0)
    s_minus = np.maximum(-S, 0.0)
    assert row[9] == lp_norm(s_minus, 2.0, st.gvol_weights)
    assert row[10] == lp_norm(s_minus, math.inf, st.gvol_weights)
    assert math.copysign(1.0, row[9]) == math.copysign(1.0, row[10]) == 1.0
    assert reaction == float(np.max(np.abs(S - st.rho)))
    assert (shape == "mixed") == (row[10] > 0.0)
