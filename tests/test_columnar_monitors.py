"""Block-wise monitors against a per-snapshot loop, compared with ``==``.

The monitors reduce the trajectory's (snapshots x nodes) arrays a block of
rows at a time.  Each reference below loops over the snapshots one row at a
time, with the same elementwise expressions, as the monitors did before the
trajectory was stored as columns; every number must agree bit for bit.  The
parabolic Sobolev monitor sums its separable fields as matrix products, which
reorders the sums of nonnegative terms: its numbers agree to ``SOBOLEV_RTOL``.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from yflow import bounds
from yflow.discretization import critical_exponent, h1_norm, laplacian, lp_norm
from yflow.flow import FlowConfig, run
from yflow.geometry import RadialGrid, build_manifold, perturbed_sphere
from yflow.yamabe import FlowState, _volume_weights, sobolev_constants

Y_EST = 40.0
SOBOLEV_RTOL = 1e-12    # a reordered sum of <= 257 nonnegative terms moves by ~257 * 2^-53


def _dense_run(n):
    # mixed-sign S0, a snapshot every step: 141 rows of 257 nodes
    m = build_manifold(perturbed_sphere(0.25, n=n), RadialGrid(M=256, gamma=2.0))
    cfg = FlowConfig(T_final=0.14, dt_init=1e-3, dt_max=1e-3, snapshot_every=1)
    return run(m, cfg)


@pytest.fixture(scope="module")
def traj():
    return _dense_run(3)


@pytest.fixture(scope="module")
def traj4():
    return _dense_run(4)


@pytest.fixture(scope="module")
def negative_run():
    # S < 0 somewhere on 92 of the 121 snapshots, S >= 0 on the rest
    m = build_manifold(perturbed_sphere(0.6), RadialGrid(M=64, gamma=2.0))
    return run(m, FlowConfig(T_final=0.012, dt_init=1e-4, dt_max=1e-4, snapshot_every=1))


@pytest.fixture(scope="module")
def positive_run():
    # inf S0 > 0: scal_lower asserts its rational floor too
    m = build_manifold(perturbed_sphere(0.1), RadialGrid(M=128, gamma=2.0))
    return run(m, FlowConfig(T_final=0.05, dt_init=1e-3, dt_max=1e-3, snapshot_every=1))


@pytest.fixture(scope="module")
def dumbbell_run():
    # E = int (S - rho)^2 dVol_g rises at first here, so the trend rows fail
    m = build_manifold(perturbed_sphere(-0.7), RadialGrid(M=64, gamma=1.0))
    return run(m, FlowConfig(T_final=0.05, dt_init=1e-3, dt_max=1e-3))


def _rows(res):
    return list(zip(res.t.tolist(), res.lhs.tolist(), res.rhs.tolist(), res.verdict.tolist()))


def _snapshots(traj):
    # each row's volume weights by the 1-D formula of a state
    man = traj.manifold
    return ((t, u, S, man.mu_weights * u ** critical_exponent(man.n))
            for t, u, S in zip(traj.snap_t.tolist(), traj.u, traj.S))


def _s0_minus(traj, p):
    man = traj.manifold
    return lp_norm(np.maximum(-man.S0, 0.0), p, man.mu_weights)


def test_run_spans_several_blocks(traj):
    count, nodes = traj.u.shape
    assert count > 130
    assert count > 2 * (bounds.BLOCK_ELEMENTS // nodes)


@pytest.mark.parametrize("name", ["traj", "traj4"])
def test_block_volume_weights_equal_each_state(name, request):
    # n = 3 and n = 4 runs at gamma = 2: the weights and the curvature the monitors
    # derive a block of snapshot rows at a time are those of each snapshot's state,
    # bit for bit, on the rows where S < 0 somewhere as on the others
    traj = request.getfixturevalue(name)
    man = traj.manifold
    count, nodes = traj.u.shape
    step = bounds.BLOCK_ELEMENTS // nodes
    blocks = [slice(lo, lo + step) for lo in range(0, count, step)]
    assert len(blocks) > 2
    derived = np.concatenate([_volume_weights(man, traj.u[r]) for r in blocks])
    curvature = np.concatenate([bounds._curvature(traj, r) for r in blocks])
    negative = curvature.min(axis=1) < 0.0
    assert negative.any() and not negative.all()
    for t, u, w, S in zip(traj.snap_t.tolist(), traj.u, derived, curvature):
        state = FlowState.from_u(man, u, t)
        assert w.tobytes() == state.gvol_weights.tobytes()
        assert S.tobytes() == state.S.tobytes()
    # the snapshot buffer holds step, t and u per row, and S is derived from u
    assert traj.u.strides == ((nodes + 2) * traj.u.itemsize, traj.u.itemsize)
    assert "S" not in {f.name for f in dataclasses.fields(traj)}
    assert traj.S.tobytes() == curvature.tobytes()
    # each snapshot's recorded volume is the row sum of its derived weights
    at = np.searchsorted(traj.step, traj.snap_step)
    assert np.array_equal(traj.step[at], traj.snap_step)
    assert traj.vol[at].tobytes() == derived.sum(axis=1).tobytes()


def _s_minus_decay_reference(traj, p):
    rho0, n = traj.rho0, traj.manifold.n
    eps = bounds.slack_epsilon(traj)
    atol = 1e-10 * (1.0 + abs(rho0))
    want = []
    for t, _, S, gw in _snapshots(traj):
        lhs = lp_norm(np.maximum(-S, 0.0), p, gw)
        growth = 1.0 if p == math.inf else math.exp(t * n * rho0 / (2.0 * p))
        bound = growth * _s0_minus(traj, p) * (1.0 + eps) + atol
        want.append((t, lhs, bound, lhs <= bound))
    assert any(row[1] > 0.0 for row in want)
    assert any(row[1] == 0.0 for row in want)
    return want


@pytest.mark.parametrize("p", [2.0, math.inf], ids=["p2", "pinf"])
def test_s_minus_decay(traj, p):
    (res,) = bounds.check_s_minus_decay(traj, [p])
    assert _rows(res) == _s_minus_decay_reference(traj, p)


@pytest.mark.parametrize("p", [4.0, 8.0], ids=["p4", "p8"])
def test_s_minus_decay_roots_while_s_is_negative(negative_run, p):
    # an array power differs from the Python float one on a few of these rows
    want = _s_minus_decay_reference(negative_run, p)
    (res,) = bounds.check_s_minus_decay(negative_run, [p])
    assert _rows(res) == want


def test_s_upper(traj):
    man, n = traj.manifold, traj.manifold.n
    eps = bounds.slack_epsilon(traj)
    atol = 1e-10 * (1.0 + abs(traj.rho0))
    s0_plus_ln2 = lp_norm(np.maximum(man.S0, 0.0), n / 2.0, man.mu_weights)
    want = []
    for t, _, S, gw in _snapshots(traj):
        lhs = lp_norm(np.maximum(S, 0.0), n / 2.0, gw)
        bound = s0_plus_ln2 * (1.0 + eps) + atol
        want.append((t, lhs, bound, lhs <= bound))
    rows = _rows(bounds.check_s_upper(traj))
    assert rows[: len(want)] == want

    q = n * n / (2.0 * (n - 2.0))
    vals = [float(np.sum(gw * np.abs(S) ** q)) ** ((n - 2.0) / n)
            for _, _, S, gw in _snapshots(traj)]
    integral = float(np.trapezoid(vals, traj.snap_t))
    assert rows[len(want) + 1][1] == integral


def _scal_lower_reference(traj):
    rho0 = traj.rho0
    s_min0 = float(traj.manifold.S0.min())
    floor = min(0.0, s_min0)
    tol = bounds.slack_epsilon(traj) * (1.0 + abs(rho0))
    want = []
    for t, _, S, _ in _snapshots(traj):
        lhs = float(S.min())
        want.append((t, lhs, floor - tol, lhs >= floor - tol))
        if s_min0 > 0.0:
            bound = rho0 * s_min0 / (math.exp(rho0 * t) * (rho0 - s_min0) + s_min0)
            want.append((t, lhs, bound - tol, lhs >= bound - tol))
    return want


def test_scal_lower(traj):
    assert traj.manifold.S0.min() < 0.0
    want = _scal_lower_reference(traj)
    assert _rows(bounds.check_scal_lower(traj)) == want
    assert len(want) == traj.snap_t.size


def test_scal_lower_rational_branch(positive_run):
    # two rows per snapshot, the floor row first
    assert positive_run.manifold.S0.min() > 0.0
    want = _scal_lower_reference(positive_run)
    assert _rows(bounds.check_scal_lower(positive_run)) == want
    assert len(want) == 2 * positive_run.snap_t.size
    assert all(a[2] != b[2] for a, b in zip(want[::2], want[1::2]))


def test_u_upper(traj):
    n = traj.manifold.n
    C = 0.25 * (n - 2) * (_s0_minus(traj, math.inf) + traj.rho0)
    eps = bounds.slack_epsilon(traj)
    want = []
    for t, max_u in zip(traj.t.tolist(), traj.max_u.tolist()):     # one row per record
        bound = math.exp(C * t) * (1.0 + eps)
        want.append((t, max_u, bound, max_u <= bound))
    assert _rows(bounds.check_u_upper(traj)) == want
    assert len(want) == traj.t.size


def test_energy_decay_trend_rows(dumbbell_run):
    window, trend_slack = 5, 1e-6
    energies = dumbbell_run.energy
    smooth = np.convolve(energies, np.ones(window) / window, mode="valid").tolist()
    tsm = dumbbell_run.t[window - 1:].tolist()
    want = []
    for i in range(1, len(smooth)):
        if not smooth[i] <= smooth[i - 1] + trend_slack * (1.0 + smooth[i - 1]):
            want.append((tsm[i], smooth[i], smooth[i - 1], False))
    assert want      # the run fails the trend
    res = bounds.check_energy_decay(dumbbell_run)
    assert not res.passed
    assert [row for row in _rows(res) if not row[3]] == want
    assert _rows(res)[:len(want)] == want


def test_u_lower(traj):
    man = traj.manifold
    n = man.n
    eps = bounds.slack_epsilon(traj)
    sup_u = float(traj.max_u.max())
    pfield = (n - 2) / (4.0 * (n - 1)) * (
        man.S0 + sup_u ** (4.0 / (n - 2)) * _s0_minus(traj, math.inf)
    )
    want = []
    for t, u, _, _ in _snapshots(traj):
        lhs = float((-laplacian(man, u) + pfield * u).min())
        tol = eps * (1.0 + float(np.abs(pfield * u).max()))
        want.append((t, lhs, -tol, lhs >= -tol))
    assert _rows(bounds.check_u_lower(traj))[1:] == want


def test_energy_decay_h1_rows(traj):
    man = traj.manifold
    ceiling = 0.25 * (man.n + 2) * (traj.rho0 + _s0_minus(traj, math.inf))
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
    man = traj.manifold
    sc = sobolev_constants(man, Y_EST, float(traj.max_u.max()), float(traj.min_u.min()))
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
            * (sc.A_T * float(np.trapezoid(grad_t, ts)) + sc.B_T * float(np.trapezoid(l2_t, ts)))
            + 2.0 / (n + 2.0) * max(l2_t)
        )
        bound = rhs * (1.0 + eps)
        want.append((float(ts[-1]), lhs, bound, lhs <= bound))
    res = bounds.check_parabolic_sobolev(traj, y_est=Y_EST, samples=6, seed=11)
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


def _sobolev_excess(T_final, samples):
    """Snapshots, and the traced peak of the Sobolev monitor above its three sums.

    The sums are (snapshots x fields) arrays, one column per separable field
    (all but ``u_along_run``); everything else it holds is per block or per field.
    """
    m = build_manifold(perturbed_sphere(0.25), RadialGrid(M=64, gamma=2.0))
    traj = run(m, FlowConfig(T_final=T_final, dt_init=1e-3, dt_max=1e-3, snapshot_every=1))
    bounds.check_parabolic_sobolev(traj, y_est=Y_EST, samples=samples, seed=11)  # fills caches
    tracemalloc.start()
    try:
        bounds.check_parabolic_sobolev(traj, y_est=Y_EST, samples=samples, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = traj.snap_t.size
    return count, peak - 3 * count * (samples - 1) * traj.u.itemsize


def test_parabolic_sobolev_memory_stays_flat_beyond_its_sums():
    # 141 and 561 snapshots of 65 nodes, both more than one block of 126 rows; a
    # time factor or a field held for every snapshot would add 420 x 49 x 8 bytes
    samples = 50
    count, excess = _sobolev_excess(0.14, samples)
    count4, excess4 = _sobolev_excess(0.56, samples)
    assert count4 == 4 * count - 3
    assert count > bounds.BLOCK_ELEMENTS // 65
    assert abs(excess4 - excess) <= bounds.BLOCK_ELEMENTS * 8     # one block of 64 KiB


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
