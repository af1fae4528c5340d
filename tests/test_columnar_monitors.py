"""Block-wise monitors against a per-snapshot loop, compared with ``==``.

The monitors reduce the trajectory's (snapshots x nodes) arrays a block of
rows at a time.  Each reference below loops over the snapshots one row at a
time, with the same elementwise expressions, as the monitors did before the
trajectory was stored as columns; every number must agree bit for bit.  The
parabolic Sobolev monitor sums its separable fields as matrix products, which
reorders the sums of nonnegative terms: its numbers agree to ``SOBOLEV_RTOL``.
"""
import math

import numpy as np
import pytest

from yflow import bounds
from yflow.discretization import h1_norm, laplacian, lp_norm
from yflow.flow import FlowConfig, run
from yflow.geometry import RadialGrid, build_manifold, perturbed_sphere

Y_EST = 40.0
SOBOLEV_RTOL = 1e-12    # a reordered sum of <= 257 nonnegative terms moves by ~257 * 2^-53


def _dense_run(n):
    # mixed-sign S0, a snapshot every step: 141 rows of 257 nodes
    m = build_manifold(perturbed_sphere(0.25, n=n), RadialGrid(M=256, gamma=2.0))
    cfg = FlowConfig(T_final=0.14, dt_init=1e-3, dt_max=1e-3, snapshot_every=1)
    tr = run(m, cfg)
    tr.ledger.attach_sobolev(m, Y_EST)
    return tr


@pytest.fixture(scope="module")
def traj():
    return _dense_run(3)


@pytest.fixture(scope="module")
def traj4():
    return _dense_run(4)


def _rows(res):
    return [(r.t, r.lhs, r.rhs, r.verdict) for r in res.rows]


def _snapshots(traj):
    return zip(traj.snap_t.tolist(), traj.u, traj.S, traj.gvol_weights)


def test_run_spans_several_blocks(traj):
    count, nodes = traj.u.shape
    assert count > 130
    assert count > 2 * (bounds.BLOCK_ELEMENTS // nodes)


@pytest.mark.parametrize("p", [2.0, math.inf], ids=["p2", "pinf"])
def test_s_minus_decay(traj, p):
    led, n = traj.ledger, traj.manifold.n
    eps = bounds.slack_epsilon(traj)
    atol = 1e-10 * (1.0 + abs(led.rho0))
    want = []
    for t, _, S, gw in _snapshots(traj):
        lhs = lp_norm(np.maximum(-S, 0.0), p, gw)
        growth = 1.0 if p == math.inf else math.exp(t * n * led.rho0 / (2.0 * p))
        bound = growth * led.s0_minus_lp[p] * (1.0 + eps) + atol
        want.append((t, lhs, bound, lhs <= bound))
    assert _rows(bounds.check_s_minus_decay(traj, p)) == want
    assert any(row[1] > 0.0 for row in want)
    assert any(row[1] == 0.0 for row in want)


def test_s_upper(traj):
    led, n = traj.ledger, traj.manifold.n
    eps = bounds.slack_epsilon(traj)
    atol = 1e-10 * (1.0 + abs(led.rho0))
    want = []
    for t, _, S, gw in _snapshots(traj):
        lhs = lp_norm(np.maximum(S, 0.0), n / 2.0, gw)
        bound = led.s0_plus_ln2 * (1.0 + eps) + atol
        want.append((t, lhs, bound, lhs <= bound))
    rows = _rows(bounds.check_s_upper(traj))
    assert rows[: len(want)] == want

    q = n * n / (2.0 * (n - 2.0))
    vals = [float(np.sum(gw * np.abs(S) ** q)) ** ((n - 2.0) / n)
            for _, _, S, gw in _snapshots(traj)]
    integral = float(np.trapezoid(vals, traj.snap_t))
    assert bounds._s_high_norm_time_integral(traj) == integral
    assert rows[len(want) + 1][1] == integral


def test_u_lower(traj):
    led, man = traj.ledger, traj.manifold
    n = man.n
    eps = bounds.slack_epsilon(traj)
    pfield = (n - 2) / (4.0 * (n - 1)) * (
        man.S0 + led.sup_u ** (4.0 / (n - 2)) * led.s0_minus_lp[math.inf]
    )
    want = []
    for t, u, _, _ in _snapshots(traj):
        lhs = float((-laplacian(man, u) + pfield * u).min())
        tol = eps * (1.0 + float(np.abs(pfield * u).max()))
        want.append((t, lhs, -tol, lhs >= -tol))
    assert _rows(bounds.check_u_lower(traj))[1:] == want


def test_energy_decay_h1_rows(traj):
    led, man = traj.ledger, traj.manifold
    ceiling = 0.25 * (man.n + 2) * (led.rho0 + led.s0_minus_lp[math.inf])
    bound = ceiling * (1.0 + bounds.slack_epsilon(traj))
    want = []
    for t, u, _, _ in _snapshots(traj):
        lhs = h1_norm(man, u)
        want.append((t, lhs, bound, lhs <= bound))
    rows = _rows(bounds.check_energy_decay(traj))
    assert rows[-len(want):] == want


def _sobolev_fields(traj, samples, seed):
    """The sampled fields as functions of (snapshot index, time)."""
    man = traj.manifold
    xi = man.nodes / man.x_max
    T = traj.config.T_final
    rng = np.random.default_rng(seed)
    fields = [lambda i, t: np.ones_like(xi), lambda i, t: traj.u[i]]
    for _ in range(samples - 2):
        coeff = rng.uniform(-1.0, 1.0, size=5)
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(a + 0.2, 1.0)

        def f(i, t, coeff=coeff, a=a, b=b):
            s = min(max((t / T - a) / (b - a), 0.0), 1.0)
            poly = (coeff[0] + coeff[1] * xi + coeff[2] * xi**2
                    + coeff[3] * xi**3 + coeff[4] * xi**4)
            return (0.25 + 0.75 * (s * s * (3.0 - 2.0 * s))) * poly

        fields.append(f)
    return fields


def _assert_sobolev_matches_reference(traj):
    led, man = traj.ledger, traj.manifold
    n = man.n
    q = (n + 2.0) / n
    eps = bounds.slack_epsilon(traj)
    ts = traj.snap_t
    want = []
    for f in _sobolev_fields(traj, samples=6, seed=11):
        lhs_t, grad_t, l2_t = [], [], []
        for i, (t, u, _, gw) in enumerate(_snapshots(traj)):
            fv = f(i, t)
            wf = 0.5 * (u[:-1] + u[1:])
            df = np.diff(fv) / man.face_h
            lhs_t.append(float(np.sum(gw * np.abs(fv) ** (2.0 * q))))
            grad_t.append(float(np.sum(man.face_weights * wf**2 * df * df * man.face_h)))
            l2_t.append(float(np.sum(gw * fv * fv)))
        lhs = float(np.trapezoid(lhs_t, ts)) ** (1.0 / q)
        rhs = (
            n / (n + 2.0)
            * (led.A_T * float(np.trapezoid(grad_t, ts)) + led.B_T * float(np.trapezoid(l2_t, ts)))
            + 2.0 / (n + 2.0) * max(l2_t)
        )
        bound = rhs * (1.0 + eps)
        want.append((float(ts[-1]), lhs, bound, lhs <= bound))
    res = bounds.check_parabolic_sobolev(traj, samples=6, seed=11)
    assert res.applicable
    got = _rows(res)
    assert len(got) == len(want)
    for (t, lhs, bound, ok), (t_w, lhs_w, bound_w, ok_w) in zip(got, want):
        assert t == t_w and ok == ok_w
        assert lhs == pytest.approx(lhs_w, rel=SOBOLEV_RTOL, abs=0.0)
        assert bound == pytest.approx(bound_w, rel=SOBOLEV_RTOL, abs=0.0)


def test_parabolic_sobolev(traj):
    _assert_sobolev_matches_reference(traj)


def test_parabolic_sobolev_n4(traj4):
    assert traj4.manifold.n == 4
    _assert_sobolev_matches_reference(traj4)


def _cylinder_norm(traj, power, q, t_lo):
    ts = traj.snap_t
    vals = np.array([float(np.sum(gw * np.maximum(S, 0.0) ** (power * q)))
                     for _, _, S, gw in _snapshots(traj)])
    if t_lo <= ts[0]:
        return float(np.trapezoid(vals, ts)) ** (1.0 / q)
    j = int(np.searchsorted(ts, t_lo))
    if ts[j] > t_lo:
        w = (t_lo - ts[j - 1]) / (ts[j] - ts[j - 1])
        v0 = (1 - w) * vals[j - 1] + w * vals[j]
        return float(np.trapezoid(np.concatenate(([v0], vals[j:])),
                                  np.concatenate(([t_lo], ts[j:])))) ** (1.0 / q)
    return float(np.trapezoid(vals[j:], ts[j:])) ** (1.0 / q)


def test_moser_chain(traj):
    n = traj.manifold.n
    beta, k_max = 2.0, 5
    N = n * n / (n * n - 2.0 * n + 4.0)
    tks = bounds.cutoff_times(traj.config.T_final, k_max)
    report = bounds.moser_chain(traj, beta=beta, k_max=k_max)
    got = [(lvl.lhs, lvl.rhs) for lvl in report.levels]
    want = [(_cylinder_norm(traj, 2.0 * beta, (n + 2.0) / n, tks[k]),
             _cylinder_norm(traj, 2.0 * beta, N, tks[k - 1]))
            for k in range(1, k_max + 1)]
    assert got == want
