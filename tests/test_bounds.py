import dataclasses
import math
import warnings

import numpy as np
import pytest

from yflow import bounds
from yflow.bounds import (
    check_energy_decay,
    check_parabolic_sobolev,
    check_s_minus_decay,
    check_s_upper,
    check_scal_lower,
    check_u_lower,
    check_u_upper,
    cutoff_times,
    describe_ledger,
    make_cutoff,
    moser_chain,
    refinement_ratio,
    run_monitors,
    s0_minus_norm,
)
from yflow.discretization import critical_exponent, lp_norm
from yflow.flow import FlowConfig, run
from yflow.geometry import (
    HYPOTHESES,
    RadialGrid,
    audit_assumptions,
    build_manifold,
    cone,
    perturbed_sphere,
    sphere,
)
from yflow.yamabe import estimate_yamabe_constant, sobolev_constants


@pytest.fixture(scope="module")
def sphere_run(sphere256):
    cfg = FlowConfig(T_final=0.5, dt_init=1e-3, dt_max=1e-3, snapshot_every=25)
    return run(sphere256, cfg)


@pytest.fixture(scope="module")
def mixed_run():
    # S0 of the eps = 0.25 warp takes both signs with bounded negative part
    m = build_manifold(perturbed_sphere(0.25), RadialGrid(M=128, gamma=2.0))
    cfg = FlowConfig(T_final=1.0, dt_init=1e-3, dt_max=1e-3, snapshot_every=20)
    return run(m, cfg)


@pytest.fixture(scope="module")
def mixed_y_est(mixed_run):
    return estimate_yamabe_constant(mixed_run.manifold, max_iter=150).value


def _ledger_values(text):
    """The values of the ``name = value`` lines of a ledger text, by name."""
    pairs = (line.split(" = ", 1) for line in text.splitlines()[1:])
    return {name.strip(): value for name, value in pairs}


def test_ledger_from_manifold(sphere_run):
    values = _ledger_values(describe_ledger(sphere_run, []))
    man = sphere_run.manifold
    assert float(values["inf S0"]) == pytest.approx(float(man.S0.min()), rel=1e-11)
    assert values["||(S0)-||_Linf"] == "0" and s0_minus_norm(man, math.inf) == 0.0
    assert all(verdict.passed for verdict in man.hypotheses.values())
    # q = 4.5 norm of a constant field is the constant itself (unit volume)
    lq = float(values["||S0||_Lq"].split()[0])
    assert lq == pytest.approx(float(man.S0.max()), rel=1e-7)
    assert float(values["rho0"]) == pytest.approx(sphere_run.rho0, rel=1e-11)
    assert values["Y estimate"] == "unavailable" and values["violations"] == "0"


def test_audit_and_ledger_read_one_verdict_table():
    # cone(0.8): S0 ~ +1/x^2 at the tip, outside L^q and unbounded
    m = build_manifold(cone(0.8), RadialGrid(M=48))
    report = audit_assumptions(m)
    traj = run(m, FlowConfig(T_final=1e-4, dt_init=2e-5, dt_max=2e-5))
    verdicts = list(traj.manifold.hypotheses.values())
    assert [(c.name, c.passed) for c in report.checks] == [(c.name, c.passed) for c in verdicts]
    assert not traj.manifold.hypotheses["s0_lq_finite"].passed
    # one evaluation per manifold: the audit's checks are the monitors' verdicts
    assert all(a is b for a, b in zip(report.checks, verdicts, strict=True))


def test_mixed_profile_really_mixed(mixed_run):
    man = mixed_run.manifold
    assert man.S0.min() < 0.0
    assert s0_minus_norm(man, math.inf) > 0.0
    assert man.hypotheses["s0_minus_bounded"].passed


def test_s_minus_decay_zero_initial(sphere_run):
    # nonnegative initial curvature: S stays nonnegative along the flow
    # no snapshot has S < 0, yet every exponent gets its all-zero rows
    for res in check_s_minus_decay(sphere_run, (2.0, 4.0, 8.0, math.inf)):
        assert res.applicable and res.passed and res.t.size == sphere_run.snap_t.size
        assert all(res.lhs <= 1e-10 * (1 + sphere_run.rho0))


def test_rows_with_a_non_finite_lhs_never_pass():
    res = bounds.MonitorResult("probe")
    res.add(0.0, [math.inf, math.nan, -math.inf, 1.0, 1.0, 1.0],
            [math.inf, 2.0, 0.0, math.inf, math.nan, 2.0], True)
    # a finite lhs under a +inf ceiling, the bound past the float range, still passes
    assert res.verdict.tolist() == [False, False, False, True, False, True]
    assert not res.passed


def test_s_minus_decay_equality_at_zero(mixed_run):
    (res,) = check_s_minus_decay(mixed_run, [2.0])
    # at t = 0 the bound factor is exactly one
    assert res.lhs[0] == pytest.approx(s0_minus_norm(mixed_run.manifold, 2.0), rel=1e-12)
    assert res.passed


@pytest.fixture(scope="module")
def negative_run256():
    # S < 0 on 93 of the 121 snapshots; 257 nodes make blocks of 31 snapshot rows
    m = build_manifold(perturbed_sphere(0.6), RadialGrid(M=256, gamma=2.0))
    return run(m, FlowConfig(T_final=0.012, dt_init=1e-4, dt_max=1e-4, snapshot_every=1))


@pytest.fixture(scope="module")
def cone_run256():
    # S < 0 on all 101 snapshots; (S0)_- is unbounded, so s_minus_decay_pinf is n/a
    m = build_manifold(cone(1.5), RadialGrid(M=256, gamma=1.0))
    return run(m, FlowConfig(T_final=2e-4, dt_init=2e-6, dt_max=2e-6, snapshot_every=1))


SPAN_P = (2.0, 3.0, math.inf)


@pytest.mark.parametrize("p", SPAN_P, ids=["p2", "p3", "pinf"])
def test_s_minus_decay_rows_span_blocks(negative_run256, cone_run256, p):
    # only the S < 0 snapshots are reduced, a block of them at a time and every
    # exponent in one pass: the rows must equal a per-snapshot loop bit for bit
    # when they span blocks, whether some rows have S >= 0 or none
    for traj in (negative_run256, cone_run256):
        man = traj.manifold
        neg = traj.S.min(axis=1) < 0.0
        assert np.count_nonzero(neg) > 2 * (bounds.BLOCK_ELEMENTS // man.node_count)
        assert neg.all() == (traj is cone_run256)
        res = check_s_minus_decay(traj, SPAN_P)[SPAN_P.index(p)]
        assert res.monitor_id == f"s_minus_decay_p{bounds._exponent_tag(p)}"
        if traj is cone_run256 and p == math.inf:
            # gated, and still in its place among the exponents
            assert not res.applicable and res.t.size == 0 and res.notes
            continue
        eps, atol = bounds.slack_epsilon(traj), 1e-10 * (1.0 + abs(traj.rho0))
        base = s0_minus_norm(man, p)
        want = []
        for t, u, S in zip(traj.snap_t.tolist(), traj.u, traj.S):
            gw = man.mu_weights * u ** critical_exponent(man.n)
            lhs = lp_norm(np.maximum(-S, 0.0), p, gw) if S.min() < 0.0 else 0.0
            growth = 1.0 if p == math.inf else math.exp(t * man.n * traj.rho0 / (2.0 * p))
            bound = growth * base * (1.0 + eps) + atol
            want.append((t, lhs, bound, lhs <= bound))
        got = list(zip(res.t.tolist(), res.lhs.tolist(), res.rhs.tolist(), res.verdict.tolist()))
        assert got == want


def test_s_minus_decay_derives_each_negative_row_once(monkeypatch):
    # six exponents, one pass: the curvature of each of the 93 snapshots with
    # S < 0 is derived once for all of them, not once per exponent
    m = build_manifold(perturbed_sphere(0.6), RadialGrid(M=256, gamma=2.0))
    traj = run(m, FlowConfig(T_final=0.05, dt_init=1e-4, dt_max=1e-4, snapshot_every=1))
    assert (np.count_nonzero(traj.S.min(axis=1) < 0.0), traj.snap_t.size) == (93, 501)
    rows, curvature = [], bounds._curvature

    def counting(traj, r):
        S = curvature(traj, r)
        rows.append(S.shape[0] if S.ndim == 2 else 1)
        return S

    monkeypatch.setattr(bounds, "_curvature", counting)
    p_values = (2.0, 3.0, 4.0, 6.0, 8.0, math.inf)
    results = run_monitors(traj, names=("s_minus_decay",), p_values=p_values)
    assert [r.monitor_id for r in results] == [
        f"s_minus_decay_p{bounds._exponent_tag(p)}" for p in p_values]
    assert all(r.applicable and r.passed for r in results)
    assert sum(rows) == 93


def test_s_upper_and_audit_norms_past_the_float_range():
    # on the round S^200, |S|^(n/2) and |S|^q overflow: lp_norm takes the s0_lq_finite
    # value and each L^{n/2} row again, scaled by max|S|, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = build_manifold(sphere(200), RadialGrid(M=32))
        report = audit_assumptions(m)
        traj = run(m, FlowConfig(T_final=0.01))
        res = check_s_upper(traj)
    s0 = float(m.S0.max())
    lq = next(c for c in report.checks if c.name == "s0_lq_finite")
    assert lq.passed and lq.value == pytest.approx(s0, rel=1e-7)
    assert "quadrature value 3410.63" in lq.detail
    rows = traj.snap_t.size
    assert res.verdict[:rows].all()
    assert np.allclose(res.lhs[:rows], s0, rtol=1e-7)


def test_s_minus_decay_invalid_p(sphere_run):
    with pytest.raises(ValueError):
        check_s_minus_decay(sphere_run, [2.0, 1.5])


@pytest.mark.parametrize("p, tag", [(2.0, "2"), (2, "2"), (2.5, "2.5"), (3.0, "3"),
                                    (2.0000001, "2.0000001"), (math.inf, "inf")])
def test_s_minus_decay_id_names_its_exponent(sphere_run, p, tag):
    # a non-integer exponent gets its own id; integer ones and inf keep theirs
    assert check_s_minus_decay(sphere_run, [p])[0].monitor_id == f"s_minus_decay_p{tag}"


def test_scal_lower_sphere(sphere_run):
    res = check_scal_lower(sphere_run)
    assert res.passed
    # positive branch asserted (inf S0 > 0) and equals inf S0 at t = 0
    assert any("rational" in note for note in res.notes)


def test_scal_lower_rational_bound_t0_value(sphere_run):
    rho0, s0_inf = sphere_run.rho0, float(sphere_run.manifold.S0.min())
    t0_bound = rho0 * s0_inf / (math.exp(0.0) * (rho0 - s0_inf) + s0_inf)
    assert t0_bound == pytest.approx(s0_inf, rel=1e-12)


def test_scal_lower_floor_past_the_float_range():
    # exp(rho0 t) overflows at t > 16.2; the rational floor is then its t -> inf
    # limit: 0 for rho0 > inf S0, and for rho0 = inf S0 the constant it is at every t
    traj = run(build_manifold(sphere(3), RadialGrid(M=32)),
               FlowConfig(T_final=25.0, dt_init=0.5, dt_max=0.5))
    s0_inf = float(traj.manifold.S0.min())
    assert traj.rho0 > s0_inf and traj.snap_t[-1] == 25.0
    tol = bounds.slack_epsilon(traj) * (1.0 + abs(traj.rho0))
    res = check_scal_lower(traj)
    late = traj.snap_t > 16.5
    assert (res.rhs[1::2][late] == -tol).all()
    level = dataclasses.replace(traj, rho0=s0_inf)
    tol = bounds.slack_epsilon(level) * (1.0 + s0_inf)
    assert (check_scal_lower(level).rhs[1::2] == s0_inf * s0_inf / s0_inf - tol).all()


def test_u_upper_rate_value(mixed_run):
    res = check_u_upper(mixed_run)
    assert res.applicable and res.passed
    want = 0.25 * (s0_minus_norm(mixed_run.manifold, math.inf) + mixed_run.rho0)
    assert any(f"{want:.12g}" in note for note in res.notes)
    # t = 0 row: max u = 1 <= 1
    assert res.lhs[0] == pytest.approx(1.0, abs=1e-12)


def test_u_upper_not_applicable_for_steep_cone():
    m = build_manifold(cone(1.5), RadialGrid(M=32))
    cfg = FlowConfig(T_final=5e-4, dt_init=1e-5, dt_max=1e-5, snapshot_every=10)
    traj = run(m, cfg)
    res = check_u_upper(traj)
    assert not res.applicable


def test_energy_decay_notes_skipped_h1_ceiling_on_cone():
    # (S0)_- ~ 1/x^2 at the tip of a cone of slope a > 1: no H^1 ceiling
    m = build_manifold(cone(1.5), RadialGrid(M=32))
    cfg = FlowConfig(T_final=5e-4, dt_init=1e-5, dt_max=1e-5, snapshot_every=10)
    traj = run(m, cfg)
    verdict = traj.manifold.hypotheses["s0_minus_bounded"]
    assert not verdict.passed
    res = check_energy_decay(traj)
    assert f"h1_ceiling rows skipped: s0_minus_bounded fails: {verdict.detail}" in res.notes
    # only the energy trend row; no per-snapshot H^1 rows
    assert res.t.size == 1


def test_requires_names_monitors_and_hypotheses():
    ids = {f"s_minus_decay_p{p}" for p in (2, 4, 8, "inf")} | set(bounds.MONITOR_NAMES)
    for gated, names in bounds.REQUIRES.items():
        assert gated.partition("/")[0] in ids
        assert names and set(names) <= set(HYPOTHESES)


def test_gated_results_note_the_table_reason_on_steep_cone():
    m = build_manifold(cone(1.5), RadialGrid(M=32))
    cfg = FlowConfig(T_final=5e-4, dt_init=1e-5, dt_max=1e-5, snapshot_every=10)
    traj = run(m, cfg)
    reason = f"s0_minus_bounded fails: {traj.manifold.hypotheses['s0_minus_bounded'].detail}"
    p2, pinf = check_s_minus_decay(traj, [2.0, math.inf])
    for res in (check_u_upper(traj), pinf):
        assert not res.applicable and res.notes == [reason] and res.t.size == 0
    assert p2.applicable
    lower = check_u_lower(traj)
    assert lower.applicable and f"supersolution rows skipped: {reason}" in lower.notes
    # only the running-inf row; no supersolution rows
    assert lower.t.size == 1


def test_run_monitors_records_each_failed_row(mixed_run, mixed_y_est):
    # a forged, very negative rho0 drops the u and H^1 ceilings below the run's values
    traj = dataclasses.replace(mixed_run, rho0=-100.0)
    results = run_monitors(traj, y_est=mixed_y_est)
    failed = {res.monitor_id: int(np.count_nonzero(~res.verdict)) for res in results}
    assert failed["u_upper"] > 0 and failed["energy_decay"] > 0
    text = describe_ledger(traj, results, mixed_y_est)
    assert _ledger_values(text)["violations"] == str(sum(failed.values()))
    assert _ledger_values(text)["rho0"] == "-100"
    # run_monitors leaves the run alone: the same results again, and none failed on it
    again = run_monitors(traj, y_est=mixed_y_est)
    assert [r.verdict.tolist() for r in again] == [r.verdict.tolist() for r in results]
    ok = run_monitors(mixed_run, y_est=mixed_y_est)
    assert _ledger_values(describe_ledger(mixed_run, ok, mixed_y_est))["violations"] == "0"


def test_u_lower_sphere_stays_one(sphere_run):
    res = check_u_lower(sphere_run)
    assert res.passed
    assert any("inf u" in note for note in res.notes)
    assert sphere_run.min_u.min() == pytest.approx(1.0, abs=1e-10)


def test_u_lower_supersolution_identity(sphere_run):
    # u = 1 and S0 >= 0 make the residual exactly the potential P >= 0
    res = check_u_lower(sphere_run)
    assert all(res.verdict[1:])


def test_u_lower_refinement_band(mixed_run):
    m2 = build_manifold(perturbed_sphere(0.25), RadialGrid(M=256, gamma=2.0))
    cfg = FlowConfig(T_final=1.0, dt_init=1e-3, dt_max=1e-3, snapshot_every=20)
    fine = run(m2, cfg)
    assert check_u_lower(mixed_run).passed
    ratio = refinement_ratio(mixed_run, fine, "inf_u")
    lo, hi = bounds.REFINE_BAND
    assert lo <= ratio <= hi
    # the two summaries with a twin comparison are inf u and the late sup of |S|
    with pytest.raises(ValueError, match="unknown refinement quantity"):
        refinement_ratio(mixed_run, fine, "s_time_integral")


def test_s_upper_monotone_ln2(mixed_run):
    res = check_s_upper(mixed_run)
    assert res.passed
    # t = 0: equality with factor one
    man = mixed_run.manifold
    s0_plus_ln2 = lp_norm(np.maximum(man.S0, 0.0), man.n / 2.0, man.mu_weights)
    assert res.lhs[0] == pytest.approx(s0_plus_ln2, rel=1e-12)


def test_s_upper_constant_on_sphere(sphere_run):
    res = check_s_upper(sphere_run)
    assert res.passed
    lhs_vals = res.lhs[: sphere_run.snap_t.size]
    assert np.allclose(lhs_vals, lhs_vals[0], rtol=1e-9)


def test_parabolic_sobolev_needs_constants(sphere_run):
    # no Yamabe estimate, no Sobolev constants: not applicable, never a failure
    res = check_parabolic_sobolev(sphere_run)
    assert not res.applicable
    assert res.notes == ["Sobolev constants unavailable (no Yamabe estimate)"]


def test_parabolic_sobolev_holds(mixed_run, mixed_y_est):
    res = check_parabolic_sobolev(mixed_run, y_est=mixed_y_est, samples=20)
    assert res.applicable and res.passed
    assert res.t.size == 20


def test_parabolic_sobolev_constant_field_case(mixed_run, mixed_y_est):
    # f = 1: lhs = T^{n/(n+2)}, rhs >= (n/(n+2)) B_T T + 2/(n+2); B_T >= 1
    # makes the verdict immediate, our constants are far larger
    sc = sobolev_constants(mixed_run.manifold, mixed_y_est, float(mixed_run.max_u.max()),
                           float(mixed_run.min_u.min()))
    assert sc.B_T > 1.0
    values = _ledger_values(describe_ledger(mixed_run, [], mixed_y_est))
    assert values["A(T), B(T)"] == f"{sc.A_T:.12g}, {sc.B_T:.12g}"


def test_parabolic_sobolev_derives_block_weights_once(negative_run256, monkeypatch):
    # one pass over the snapshot blocks serves every field, elementwise or separable
    calls, volume_weights = [], bounds._volume_weights

    def counting(man, u_rows):
        calls.append(u_rows.shape[0])
        return volume_weights(man, u_rows)

    monkeypatch.setattr(bounds, "_volume_weights", counting)
    count, nodes = negative_run256.u.shape
    step = bounds.BLOCK_ELEMENTS // nodes
    assert count > 2 * step
    assert check_parabolic_sobolev(negative_run256, y_est=40.0).applicable
    assert calls == [min(step, count - lo) for lo in range(0, count, step)]


def test_energy_decay_sphere_zero(sphere_run):
    res = check_energy_decay(sphere_run)
    assert res.passed
    assert sphere_run.energy.max() <= 1e-16


def test_energy_decay_mixed(mixed_run):
    res = check_energy_decay(mixed_run)
    assert res.passed
    energy = mixed_run.energy
    assert energy[-1] < 1e-2 * energy[0]


def test_h1_ceiling_at_t0(mixed_run):
    from yflow.discretization import h1_norm

    ceiling = 0.25 * 5 * (mixed_run.rho0 + s0_minus_norm(mixed_run.manifold, math.inf))
    u0 = mixed_run.u[0]
    assert h1_norm(mixed_run.manifold, u0) <= ceiling


# --- cutoffs and the iteration chain ---------------------------------------


def test_cutoff_times_sequence():
    T = 2.0
    tks = cutoff_times(T, 5)
    assert tks[0] == 0.0 and tks[1] == 0.0
    assert tks[2] == pytest.approx(0.5)
    assert tks[3] == pytest.approx(0.75)
    assert np.all(np.diff(tks) >= 0)
    assert tks[-1] < T / 2


def test_cutoff_contract():
    T = 2.0
    tks = cutoff_times(T, 6)
    for k in range(2, 7):
        eta = make_cutoff(tks[k - 1], tks[k])
        assert eta(tks[k - 1]) == 0.0
        assert eta(tks[k]) == 1.0
        ts = np.linspace(tks[k - 1], tks[k], 2001)
        vals = np.array([eta(t) for t in ts])
        assert np.all(np.diff(vals) >= -1e-15)
        slope = np.max(np.diff(vals)) / (ts[1] - ts[0])
        assert slope <= 2.0 ** (k + 1) / T * (1 + 1e-6)


def test_moser_chain_sphere_closed_form(sphere_run):
    # constant curvature: every cylinder norm is the constant power times a
    # cylinder-length factor, so ratios follow from the t_k alone
    beta, k_max = 2.0, 5
    rep = moser_chain(sphere_run, beta=beta, k_max=k_max)
    n = 3
    q_hi = (n + 2.0) / n
    N = 9.0 / 7.0
    assert rep.conjugate_exponent == pytest.approx(N)
    assert rep.moser_exponent == pytest.approx(35.0 / 27.0)
    s0 = float(sphere_run.rho[0])
    T = sphere_run.config.T_final
    tks = cutoff_times(T, k_max)
    for lvl in rep.levels:
        want_lhs = s0 ** (2 * beta) * (T - tks[lvl.k]) ** (1.0 / q_hi)
        want_rhs = s0 ** (2 * beta) * (T - tks[lvl.k - 1]) ** (1.0 / N)
        assert lvl.lhs == pytest.approx(want_lhs, rel=1e-6)
        assert lvl.rhs == pytest.approx(want_rhs, rel=1e-6)
        assert lvl.ratio == pytest.approx(want_lhs / want_rhs, rel=1e-6)
    assert rep.finite


def test_moser_chain_validation(sphere_run):
    with pytest.raises(ValueError):
        moser_chain(sphere_run, beta=1.0)
    with pytest.raises(ValueError):
        moser_chain(sphere_run, beta=2.0, k_max=9)


def test_monitor_rows_pure(mixed_run):
    a = check_scal_lower(mixed_run)
    b = check_scal_lower(mixed_run)
    for col in ("t", "lhs", "rhs", "verdict"):
        assert getattr(a, col).tolist() == getattr(b, col).tolist()


def test_run_monitors_driver(mixed_run):
    results = run_monitors(mixed_run, p_values=(2.0, math.inf))
    ids = [r.monitor_id for r in results]
    assert "s_minus_decay_p2" in ids and "scal_lower" in ids
    applicable = [r for r in results if r.applicable]
    assert all(r.passed for r in applicable)


def test_run_monitors_looks_checks_up_at_call_time(mixed_run, monkeypatch):
    # a wrapper bound to the module name must be the function that runs
    calls = []
    original = bounds.check_scal_lower

    def counting(traj):
        calls.append(traj)
        return original(traj)

    monkeypatch.setattr(bounds, "check_scal_lower", counting)
    results = run_monitors(mixed_run, names=("scal_lower",))
    assert calls == [mixed_run]
    assert [r.monitor_id for r in results] == ["scal_lower"]


def test_run_monitors_keeps_order_and_rejects_unknown(mixed_run):
    results = run_monitors(mixed_run, names=("u_upper", "s_minus_decay"),
                           p_values=(2.0, 4.0))
    assert [r.monitor_id for r in results] == [
        "u_upper", "s_minus_decay_p2", "s_minus_decay_p4"]
    with pytest.raises(ValueError, match="unknown monitor"):
        run_monitors(mixed_run, names=("bogus",))


def test_violations_recorded_on_failure(sphere_run):
    # the ledger counts failed rows only: a passing monitor adds none
    (res,) = check_s_minus_decay(sphere_run, [2.0])
    assert res.passed
    assert _ledger_values(describe_ledger(sphere_run, [res]))["violations"] == "0"


def test_margins_stable_under_joint_refinement():
    # simultaneous (h, dt) refinement: every slack margin must shrink or
    # stay stable while every verdict stays green
    def make(M, dt):
        m = build_manifold(perturbed_sphere(0.25), RadialGrid(M=M, gamma=2.0))
        cfg = FlowConfig(T_final=0.5, dt_init=dt, dt_max=dt, snapshot_every=10)
        return run(m, cfg)

    coarse = make(128, 1e-3)
    fine = make(256, 5e-4)
    for check in (lambda tr: check_s_minus_decay(tr, [2.0])[0], check_u_upper,
                  check_s_upper):
        res_c, res_f = check(coarse), check(fine)
        assert res_c.passed and res_f.passed
        m_c = min(m / (1.0 + abs(r)) for m, r in zip(res_c.margin.tolist(), res_c.rhs.tolist()))
        m_f = min(m / (1.0 + abs(r)) for m, r in zip(res_f.margin.tolist(), res_f.rhs.tolist()))
        assert m_f >= 0.0
        # tightened slack shrinks margins; allow mild growth from genuine
        # solution change but no blow-up
        assert m_f <= m_c * 1.2 + 1e-9
