import dataclasses
import math
import os

from pathlib import Path

import numpy as np
import pytest

from yflow.flow import (
    CheckpointError,
    FlowConfig,
    SolverAbort,
    StepRejected,
    checkpoint,
    config_hash,
    renormalize_volume,
    restore,
    run,
    step,
)
from yflow.discretization import lp_norm
from yflow.flow import _record_of
from yflow.geometry import RadialGrid, build_manifold, perturbed_sphere, sphere
from yflow.yamabe import FlowState


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
    same = renormalize_volume(bumpy128, st0)
    assert np.allclose(same.u, st0.u, rtol=1e-14)

    scaled = FlowState(
        t=0.0,
        u=1.5 * st0.u,
        S=st0.S,
        rho=st0.rho,
        gvol_weights=bumpy128.mu_weights * (1.5 * st0.u) ** 6.0,
    )
    vol = scaled.volume
    fixed = renormalize_volume(bumpy128, scaled)
    # u_new = u * Vol^{-(n-2)/(2n)}
    assert np.allclose(fixed.u, scaled.u * vol ** (-1.0 / 6.0), rtol=1e-13)
    assert fixed.volume == pytest.approx(1.0, abs=1e-12)


def test_projection_drift_is_second_order(bumpy128):
    st0 = FlowState.initial(bumpy128)
    d1 = abs(step(bumpy128, st0, 1e-3, renormalize=False).volume - 1.0)
    d2 = abs(step(bumpy128, st0, 5e-4, renormalize=False).volume - 1.0)
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


def test_step_rejection_on_positivity():
    # where S0 exceeds rho the factor moves down ~ dt (S0 - rho)/4; against
    # a tight floor that must reject the step, never clip it
    m = build_manifold(perturbed_sphere(0.4), RadialGrid(M=32))
    st0 = FlowState.initial(m)
    with pytest.raises(StepRejected):
        step(m, st0, dt=0.01, positivity_floor=0.99)


def test_abort_after_dt_underflow(tmp_path):
    m = build_manifold(perturbed_sphere(0.4), RadialGrid(M=32))
    cfg = FlowConfig(T_final=1.0, dt_init=1e-3, dt_min=1e-3, dt_max=1e-3,
                     positivity_floor=0.999)
    with pytest.raises(SolverAbort, match="underflow"):
        run(m, cfg, checkpoint_dir=str(tmp_path))
    # the last valid state was persisted
    assert any(p.name.startswith("abort") for p in tmp_path.iterdir())


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(T_final=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(T_final=1.0, dt_init=1e-3, dt_min=1e-2)
    with pytest.raises(ValueError):
        FlowConfig(T_final=1.0, cfl=1.5)


@pytest.mark.parametrize("fields", [
    {"T_final": math.inf}, {"T_final": math.nan},
    {"T_final": 1.0, "vol_tol": math.nan}, {"T_final": 1.0, "positivity_floor": math.nan},
], ids=["T-inf", "T-nan", "vol-tol-nan", "floor-nan"])
def test_flow_config_rejects_non_finite(fields):
    # an infinite horizon never ends; a NaN tolerance passes every check
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
    restored, dt0, k0 = restore(path, m, cfg)
    cont = run(m, cfg, initial_state=restored, initial_dt=dt0, initial_step=k0,
               rho0=float(full.rho[0]))
    tail = full.step > mid_step
    cont_tail = cont.step > mid_step
    assert np.count_nonzero(tail) == np.count_nonzero(cont_tail)
    for col in ("t", "dt", "rho"):
        assert np.array_equal(getattr(full, col)[tail], getattr(cont, col)[cont_tail])
    assert np.array_equal(full.u[-1], cont.u[-1])


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
# a dt outside [dt_min, dt_max] (1e-9 and 2e-3 here), a negative step, a u that is not
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


def test_restore_reports_off_slice_volume_at_first_u_line(tmp_path):
    m, cfg = _mini_setup()
    path = tmp_path / "s.ckpt"
    checkpoint(FlowState.initial(m), str(path), m, cfg, dt_next=1e-3, step_index=0)
    lines = path.read_bytes().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith(b"u "))
    lines[first + 10] = b"u 2\n"      # positive and finite, but the volume is no longer 1
    path.write_bytes(b"".join(lines))
    offset = sum(map(len, lines[:first]))
    with pytest.raises(CheckpointError, match=rf"the u lines from byte {offset}: evolving volume"):
        restore(str(path), m, cfg)


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
        state, dt0, k0 = restore(str(tmp_path / f"step{ckpt:08d}.ckpt"), m, cfg)
        cont = run(m, cfg, initial_state=state, initial_dt=dt0, initial_step=k0,
                   rho0=float(full.rho[0]))
        assert cont.step.tolist() == list(range(ckpt, k + 1))
        for col in ("t", "dt", "rho", "vol", "min_u", "max_u"):
            assert np.array_equal(getattr(cont, col)[1:], getattr(full, col)[ckpt + 1:])
        assert np.array_equal(cont.u[-1], full.u[-1])


def test_config_hash_sensitivity():
    m, cfg = _mini_setup()
    h1 = config_hash(m, cfg)
    m2 = build_manifold(perturbed_sphere(0.1), RadialGrid(M=48, gamma=2.0))
    assert config_hash(m2, cfg) != h1
    cfg2 = FlowConfig(T_final=0.2, dt_init=1e-3, dt_max=2e-3, snapshot_every=1,
                      vol_tol=1e-9)
    assert config_hash(m, cfg2) != h1


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
