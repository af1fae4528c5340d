"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them all); shared runs are module-scoped fixtures so the suite stays fast.
"""
import math
import time

import numpy as np
import pytest

from conftest import RHO_SPHERE, raw_volume
from yflow import bounds
from yflow.auxfn import DEFAULT_SEED, catalogue_ids, find_counterexample, run_catalogue
from yflow.bounds import refinement_ratio, run_monitors
from yflow.flow import FlowConfig, FlowState, run
from yflow.geometry import RadialGrid, build_manifold, perturbed_sphere, sphere
from yflow.yamabe import estimate_yamabe_constant, sobolev_constants


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{state}] criterion {number:02d}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


@pytest.fixture(scope="module")
def sphere_fp():
    m = build_manifold(sphere(3), RadialGrid(M=256, gamma=2.0))
    cfg = FlowConfig(T_final=1.0, dt_init=1e-3, dt_max=1e-3, snapshot_every=100)
    t0 = time.monotonic()
    traj = run(m, cfg)
    return traj, time.monotonic() - t0


@pytest.fixture(scope="module")
def perturbed512():
    m = build_manifold(perturbed_sphere(0.1), RadialGrid(M=512, gamma=2.0))
    cfg = FlowConfig(T_final=5.0, dt_init=5e-4, dt_max=5e-4, snapshot_every=25)
    return run(m, cfg)


@pytest.fixture(scope="module")
def perturbed512_dt_half():
    m = build_manifold(perturbed_sphere(0.1), RadialGrid(M=512, gamma=2.0))
    cfg = FlowConfig(T_final=5.0, dt_init=2.5e-4, dt_max=2.5e-4, snapshot_every=50)
    return run(m, cfg)


def _mixed_run(M):
    m = build_manifold(perturbed_sphere(0.2), RadialGrid(M=M, gamma=2.0))
    cfg = FlowConfig(T_final=2.0, dt_init=1e-3, dt_max=1e-3, snapshot_every=20)
    return run(m, cfg)


@pytest.fixture(scope="module")
def mixed256():
    return _mixed_run(256)


@pytest.fixture(scope="module")
def mixed512():
    return _mixed_run(512)


def test_criterion_01_fixed_point(sphere_fp):
    traj, elapsed = sphere_fp
    rho = traj.rho
    u_dev = float(max(np.abs(traj.min_u - 1.0).max(), np.abs(traj.max_u - 1.0).max()))
    rho_dev = float(np.max(np.abs(rho - rho[0])))
    ok = u_dev <= 1e-8 and rho_dev <= 1e-8 * rho[0] and elapsed < 5.0
    report(1, "round-sphere fixed point", ok,
           f"|u-1|={u_dev:.2e}, |rho-rho0|={rho_dev:.2e}, {elapsed:.2f}s")


def test_criterion_02_rho_monotone_and_consistent(perturbed512, perturbed512_dt_half):
    def checks(traj):
        rho = traj.rho
        en = traj.energy
        dt = traj.dt[1]
        mono = bool(np.all(np.diff(rho) <= 1e-8 * (1.0 + np.abs(rho[:-1]))))
        dr = (rho[2:] - rho[:-2]) / (2.0 * dt)
        rhs = -0.5 * en[1:-1]
        return mono, float(np.abs(dr - rhs).sum() / np.abs(rhs).sum())

    mono, err = checks(perturbed512)
    mono_h, err_h = checks(perturbed512_dt_half)
    ok = mono and mono_h and err <= 0.05 and err_h <= 0.65 * err
    report(2, "average-curvature monotonicity and rate consistency", ok,
           f"mismatch {err:.4f} -> {err_h:.4f} under dt halving")


def test_criterion_03_volume_conservation(perturbed512):
    worst = float(np.abs(perturbed512.vol - 1.0).max())
    m = perturbed512.manifold
    st0 = FlowState.initial(m)
    d1 = abs(raw_volume(m, st0, 5e-4) - 1.0)
    d2 = abs(raw_volume(m, st0, 2.5e-4) - 1.0)
    ratio = d1 / d2
    ok = worst <= 1e-12 and 3.5 <= ratio <= 4.5
    report(3, "volume conservation and quadratic projection drift", ok,
           f"|vol-1|={worst:.2e}, drift ratio {ratio:.2f}")


def test_criterion_04_s_minus_decay(mixed256, mixed512):
    ok = True
    details = []
    for traj, tag in ((mixed256, "M=256"), (mixed512, "M=512")):
        assert traj.manifold.S0.min() < 0.0  # genuinely mixed-sign
        for res in bounds.check_s_minus_decay(traj, (2.0, 4.0, 8.0, math.inf)):
            ok = ok and res.applicable and res.passed
        details.append(tag)
    report(4, "negative-part decay in L^p for p in {2,4,8,inf}", ok,
           " and ".join(details))


def test_criterion_05_u_bounds(mixed256, mixed512):
    upper = bounds.check_u_upper(mixed512)
    lower = bounds.check_u_lower(mixed256)
    ratio = refinement_ratio(mixed256, mixed512, "inf_u")
    lo, hi = bounds.REFINE_BAND
    ok = upper.applicable and upper.passed and lower.passed and lo <= ratio <= hi
    report(5, "conformal factor bounded above and below", ok,
           f"inf-u refinement ratio {ratio:.3f}")


def test_criterion_06_scalar_bounds(mixed256, mixed512):
    low256 = bounds.check_scal_lower(mixed256)
    low512 = bounds.check_scal_lower(mixed512)
    up = bounds.check_s_upper(mixed256)
    ratio = refinement_ratio(mixed256, mixed512, "late_sup_abs_s")
    lo, hi = bounds.REFINE_BAND
    ok = low256.passed and low512.passed and up.passed and lo <= ratio <= hi
    report(6, "scalar curvature floor and ceilings", ok,
           f"late sup ratio {ratio:.3f}")


def test_criterion_07_yamabe_estimate():
    m = build_manifold(sphere(3), RadialGrid(M=512, gamma=2.0))
    t0 = time.monotonic()
    est = estimate_yamabe_constant(m, max_iter=200)
    elapsed = time.monotonic() - t0
    ok = 0.98 * RHO_SPHERE <= est.value <= 1.0 * RHO_SPHERE * (1 + 1e-9)
    ok = ok and elapsed < 10.0
    report(7, "variational constant on the round sphere", ok,
           f"Y_est={est.value:.4f} vs {RHO_SPHERE:.4f}, {elapsed:.2f}s")


def test_criterion_08_inequality_catalogue():
    t0 = time.monotonic()
    rows = run_catalogue(samples=100_000, seed=DEFAULT_SEED)
    clean = all(r.violations == 0 for r in rows)
    v2 = find_counterexample("I2", budget=100_000, out_of_region=True)
    v4 = find_counterexample("I4", budget=100_000, out_of_region=True)
    elapsed = time.monotonic() - t0
    sharp = v2 is not None and v4 is not None and v4.params.n == 3
    ok = clean and sharp and elapsed < 30.0
    ids = ",".join(r.ineq_id for r in rows)
    report(8, "auxiliary inequality catalogue", ok,
           f"{len(rows)} inequalities [{ids}] x 1e5 samples, "
           f"sharpness I2/I4 confirmed, {elapsed:.1f}s")


def test_criterion_09_parabolic_sobolev(perturbed512):
    man = perturbed512.manifold
    y_est = estimate_yamabe_constant(man, max_iter=200).value
    res = bounds.check_parabolic_sobolev(perturbed512, y_est=y_est, samples=20)
    ok = res.applicable and res.passed and res.t.size == 20
    sc = sobolev_constants(man, y_est, float(perturbed512.max_u.max()),
                           float(perturbed512.min_u.min()))
    report(9, "space-time Sobolev inequality on 20 sampled fields", ok,
           f"A(T)={sc.A_T:.3g}, B(T)={sc.B_T:.3g}")


def test_criterion_10_energy_decay(perturbed512):
    energy = perturbed512.energy
    ratio = energy[-1] / energy[0]
    res = bounds.check_energy_decay(perturbed512)
    ok = ratio < 1e-2 and res.passed
    report(10, "normalization energy decays", ok,
           f"final/initial = {ratio:.2e}")


def test_criterion_11_determinism(tmp_path):
    m = build_manifold(perturbed_sphere(0.1), RadialGrid(M=64, gamma=2.0))
    cfg = FlowConfig(T_final=0.25, dt_init=1e-3, dt_max=2e-3, snapshot_every=1,
                     checkpoint_every=50)
    full = run(m, cfg, checkpoint_dir=str(tmp_path))
    k0 = 50
    cont = run(m, cfg, resume_from=str(tmp_path / f"step{k0:08d}.ckpt"))
    tail = full.step > k0
    cont_tail = cont.step > k0
    same_scalars = np.count_nonzero(tail) == np.count_nonzero(cont_tail) and all(
        np.array_equal(getattr(full, col)[tail], getattr(cont, col)[cont_tail])
        for col in ("t", "dt", "rho", "vol", "min_u", "max_u")
    )
    same_field = np.array_equal(full.u[-1], cont.u[-1])
    report(11, "bit-identical continuation after save/restore",
           same_scalars and same_field,
           f"{np.count_nonzero(tail)} resumed steps compared")
