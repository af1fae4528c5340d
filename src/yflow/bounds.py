"""A-posteriori monitors for the flow's quantitative bounds.

Each monitor is a pure function of a finished trajectory (plus its ledger
of initial-data constants): re-running monitors on a restored trajectory
gives identical verdicts, and no monitor can alter the flow.  Monitors read
the trajectory's columns; per-snapshot norms are row reductions over its
(snapshots x nodes) arrays, taken a block of rows at a time (:func:`_row_sums`).
The parabolic Sobolev monitor's separable test fields ``r(t) P(x)`` are summed
instead as matrix products of each block with the stacked profiles, every
column then scaled by its time factor (:func:`check_parabolic_sobolev`).

Hypotheses: ``REQUIRES`` names those of ``geometry.HYPOTHESES`` that a monitor
(or a group of its rows) needs; where the ledger's verdict on one is a failure,
the monitor is not applicable (the rows skipped), noting the table's reason.

Slack discipline: inequalities with explicit constants are asserted with
multiplicative slack ``1 + 10 h^2 + 10 dt`` (h the widest grid face, dt
the largest accepted step) plus a tiny absolute floor for zero right-hand
sides (:meth:`MonitorResult.add_upper`).  Where the underlying constant is
non-constructive, the monitor instead asserts refinement stability: the
quantity's ratio between a run and its grid-doubled twin must land in
[0.9, 1.1] (:func:`refinement_ratio`).  :func:`run_monitors` dispatches
through one name -> call table, whose keys are ``MONITOR_NAMES``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .discretization import _gradient, _laplacian, lp_norm
from .geometry import AuditCheck, DiscretizedManifold, lq_exponent

__all__ = [
    "BoundLedger",
    "MonitorRow",
    "MonitorResult",
    "check_s_minus_decay",
    "check_scal_lower",
    "check_u_upper",
    "check_u_lower",
    "check_s_upper",
    "check_parabolic_sobolev",
    "check_energy_decay",
    "moser_chain",
    "check_chain_parameters",
    "ChainLevel",
    "ChainReport",
    "cutoff_times",
    "make_cutoff",
    "refinement_ratio",
    "run_monitors",
    "MONITOR_NAMES",
    "REQUIRES",
]

P_DEFAULT = (2.0, 4.0, 8.0, math.inf)
REFINE_BAND = (0.9, 1.1)
BLOCK_ELEMENTS = 2**13      # entries per block of a per-snapshot reduction (64 KiB)


@dataclass
class BoundLedger:
    """Constants of the initial data plus running extrema of a flow run."""

    rho0: float = math.nan
    s0_minus_lp: Dict[float, float] = field(default_factory=dict)
    s0_inf: float = math.nan
    s0_lq: float = math.nan
    s0_plus_ln2: float = math.nan
    hypotheses: Dict[str, AuditCheck] = field(default_factory=dict)   # the manifold's own
    sup_u: float = -math.inf
    inf_u: float = math.inf
    y_est: Optional[float] = None
    A0: Optional[float] = None
    B0: Optional[float] = None
    A_T: Optional[float] = None
    B_T: Optional[float] = None
    violations: List[tuple] = field(default_factory=list)

    @classmethod
    def from_manifold(cls, manifold: DiscretizedManifold) -> "BoundLedger":
        s0 = manifold.S0
        mu = manifold.mu_weights
        sm = np.maximum(-s0, 0.0)
        led = cls()
        led.s0_minus_lp = {p: lp_norm(sm, p, mu) for p in P_DEFAULT}
        led.s0_inf = float(s0.min())
        led.hypotheses = manifold.hypotheses
        led.s0_lq = led.hypotheses["s0_lq_finite"].value    # lp_norm(s0, q, mu), bit for bit
        led.s0_plus_ln2 = lp_norm(np.maximum(s0, 0.0), manifold.n / 2.0, mu)
        return led

    def attach_sobolev(self, manifold: DiscretizedManifold, y_est: float) -> None:
        from .yamabe import sobolev_constants

        sc = sobolev_constants(manifold, y_est, self.sup_u, self.inf_u)
        self.y_est = y_est
        self.A0, self.B0, self.A_T, self.B_T = sc.A0, sc.B0, sc.A_T, sc.B_T

    def describe(self) -> str:
        def fmt(v):
            if v is None:
                return "unavailable"
            return f"{v:.12g}"

        lines = [
            "bound ledger",
            f"  rho0          = {fmt(self.rho0)}",
            f"  inf S0        = {fmt(self.s0_inf)}",
            f"  ||S0||_Lq     = {fmt(self.s0_lq)}  (q = n^2/(2(n-2)))",
            f"  ||(S0)+||_n/2 = {fmt(self.s0_plus_ln2)}",
        ]
        for p in sorted(self.s0_minus_lp, key=lambda v: (v == math.inf, v)):
            tag = "inf" if p == math.inf else f"{p:g}"
            lines.append(f"  ||(S0)-||_L{tag} = {fmt(self.s0_minus_lp[p])}")
        lines += [
            f"  sup u / inf u = {fmt(self.sup_u)} / {fmt(self.inf_u)}",
            f"  Y estimate    = {fmt(self.y_est)}",
            f"  A0, B0        = {fmt(self.A0)}, {fmt(self.B0)}",
            f"  A(T), B(T)    = {fmt(self.A_T)}, {fmt(self.B_T)}",
            f"  violations    = {len(self.violations)}",
        ]
        return "\n".join(lines)


@dataclass
class MonitorRow:
    t: float
    lhs: float
    rhs: float
    margin: float           # slack remaining; negative means violated
    verdict: bool


@dataclass
class MonitorResult:
    monitor_id: str
    applicable: bool = True
    passed: bool = True
    rows: List[MonitorRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, t: float, lhs: float, rhs: float, verdict: bool) -> None:
        self.rows.append(MonitorRow(t, lhs, rhs, rhs - lhs, verdict))
        if not verdict:
            self.passed = False

    def add_upper(self, t: float, lhs: float, rhs: float, eps: float,
                  atol: float = 0.0) -> bool:
        """Row asserting ``lhs <= rhs (1 + eps) + atol``; returns its verdict."""
        bound = rhs * (1.0 + eps) + atol
        ok = lhs <= bound
        self.add(t, lhs, bound, ok)
        return ok


def slack_epsilon(traj) -> float:
    return 10.0 * traj.manifold.h_max**2 + 10.0 * float(traj.dt.max())


def _row_sums(traj, terms, reduce=np.sum, rows=None) -> List[np.ndarray]:
    """Per-snapshot ``reduce`` over the nodes of each array ``terms(block)`` yields.

    ``terms`` maps a block of snapshot rows (a slice, or an index vector when
    ``rows`` picks the rows to reduce) to (rows x nodes) arrays; it runs on
    blocks of about ``BLOCK_ELEMENTS`` entries, whose row sums equal each row's
    1-D ``np.sum`` bit for bit.  Roots, ``exp`` and ``sqrt`` are left to the
    caller's Python floats: an array power differs from the float one in the last bits.
    """
    count, nodes = traj.u.shape
    if rows is not None:
        count = rows.size
    step = max(1, BLOCK_ELEMENTS // nodes)
    sums = []   # one vector per term, filled block by block
    for lo in range(0, count, step):
        block = slice(lo, lo + step) if rows is None else rows[lo:lo + step]
        for k, a in enumerate(terms(block)):
            if lo == 0:
                sums.append(np.empty(count))
            sums[k][lo:lo + step] = reduce(a, axis=1)
    return sums


def _lp_rows(traj, f, p: float, rows=None) -> np.ndarray:
    """Per-snapshot :func:`lp_norm` of ``f(block)`` in the evolving measure, before its root."""
    if p == math.inf:
        return _row_sums(traj, lambda r: (np.abs(f(r)),), np.max, rows)[0]
    return _row_sums(traj, lambda r: (traj.gvol_weights[r] * np.abs(f(r)) ** p,), rows=rows)[0]


# ---------------------------------------------------------------------------
# explicit-constant monitors


def check_s_minus_decay(traj, p: float) -> MonitorResult:
    """Decay of the negative curvature part in L^p of the evolving metric.

    Asserts ``||S_-||_{L^p(g)}(t) <= exp(t n rho0 / (2p)) ||(S0)_-||_{L^p}``
    at every snapshot (p = inf uses the exponent's p -> inf limit, i.e. a
    constant bound).  An initially nonnegative S0 therefore forces S >= 0
    along the whole run, up to slack.
    """
    if p != math.inf and not 2.0 <= p:
        raise ValueError("p must lie in [2, inf]")
    led = traj.ledger
    res = MonitorResult(monitor_id=f"s_minus_decay_p{'inf' if p == math.inf else int(p)}")
    if not _applies(res, led, res.monitor_id):
        return res
    eps = slack_epsilon(traj)
    atol = 1e-10 * (1.0 + abs(led.rho0))
    base = led.s0_minus_lp.get(p)
    if base is None:
        base = lp_norm(np.maximum(-traj.manifold.S0, 0.0), p, traj.manifold.mu_weights)
    n = traj.manifold.n
    # a row with S >= 0 has S_- = 0 and lhs 0.0; only the others are reduced
    sums = np.zeros(traj.snap_t.size)
    neg = np.flatnonzero(~(traj.S.min(axis=1) >= 0.0))
    if neg.size:
        sums[neg] = _lp_rows(traj, lambda r: np.maximum(-traj.S[r], 0.0), p, neg)
    for t, v in zip(traj.snap_t.tolist(), sums.tolist()):
        growth = 1.0 if p == math.inf else math.exp(t * n * led.rho0 / (2.0 * p))
        res.add_upper(t, v if p == math.inf else v ** (1.0 / p), growth * base, eps, atol)
    return res


def check_scal_lower(traj) -> MonitorResult:
    """Uniform lower bound on scalar curvature.

    ``S >= min(0, inf S0)`` always; when ``inf S0 > 0`` the sharper
    rational-in-time floor
    ``rho0 s_min / (exp(rho0 t)(rho0 - s_min) + s_min)`` is asserted too.
    """
    led = traj.ledger
    res = MonitorResult(monitor_id="scal_lower")
    eps = slack_epsilon(traj)
    s_min0 = led.s0_inf
    floor = min(0.0, s_min0)
    tol = eps * (1.0 + abs(led.rho0))
    for t, lhs in zip(traj.snap_t.tolist(), traj.S.min(axis=1).tolist()):
        res.add(t, lhs, floor - tol, lhs >= floor - tol)
        if s_min0 > 0.0:
            denom = math.exp(led.rho0 * t) * (led.rho0 - s_min0) + s_min0
            bound = led.rho0 * s_min0 / denom
            res.add(t, lhs, bound - tol, lhs >= bound - tol)
    if s_min0 > 0.0:
        res.notes.append("inf S0 > 0: rational positive-branch floor asserted as well")
    return res


def check_u_upper(traj) -> MonitorResult:
    """Exponential ceiling on the conformal factor.

    ``max u(t) <= exp(C t)`` with the explicit rate
    ``C = (n-2)/4 (||(S0)_-||_inf + rho0)``; needs bounded (S0)_-.
    """
    led = traj.ledger
    res = MonitorResult(monitor_id="u_upper")
    if not _applies(res, led, res.monitor_id):
        return res
    n = traj.manifold.n
    C = 0.25 * (n - 2) * (led.s0_minus_lp[math.inf] + led.rho0)
    res.notes.append(f"rate C = {C:.12g}")
    eps = slack_epsilon(traj)
    for t, max_u in zip(traj.t.tolist(), traj.max_u.tolist()):
        res.add_upper(t, max_u, math.exp(C * t), eps)
    return res


def check_u_lower(traj, refined=None) -> MonitorResult:
    """Positivity and supersolution structure of the conformal factor.

    (i) running ``inf u`` stays positive; (ii) with
    ``P = (n-2)/(4(n-1)) (S0 + (sup u)^{4/(n-2)} ||(S0)_-||_inf)`` each
    snapshot satisfies ``-Lap(u) + P u >= 0`` up to slack (the elliptic
    supersolution property behind the uniform lower bound); (iii) given a
    grid-doubled twin run, ``inf u`` must be refinement-stable.
    """
    led = traj.ledger
    man = traj.manifold
    n = man.n
    res = MonitorResult(monitor_id="u_lower")
    eps = slack_epsilon(traj)

    inf_u = _inf_u(traj)
    res.add(float(traj.t[-1]), inf_u, 0.0, inf_u > 0.0)
    res.notes.append(f"running inf u = {inf_u:.12g}")

    if _applies(res, led, "u_lower/supersolution"):
        pfield = (n - 2) / (4.0 * (n - 1)) * (
            man.S0 + led.sup_u ** (4.0 / (n - 2)) * led.s0_minus_lp[math.inf]
        )
        u = traj.u
        lows = _row_sums(traj, lambda r: (-_laplacian(man, u[r]) + pfield * u[r],), np.min)[0]
        peaks = _row_sums(traj, lambda r: (np.abs(pfield * u[r]),), np.max)[0]
        for t, lhs, peak in zip(traj.snap_t.tolist(), lows.tolist(), peaks.tolist()):
            tol = eps * (1.0 + peak)
            res.add(t, lhs, -tol, lhs >= -tol)

    if refined is not None:
        _add_refinement(res, traj, refined, "inf_u")
    return res


def check_s_upper(traj, refined=None) -> MonitorResult:
    """Curvature ceilings: monotone L^{n/2} norm plus structural bounds.

    (i) ``||S_+||_{L^{n/2}(g)}(t) <= ||(S0)_+||_{L^{n/2}}`` with slack;
    (ii) the late-time sup of max|S| and (iii) the time integral of the
    high L^q curvature norm are asserted finite, and refinement-stable
    when a grid-doubled twin is supplied (their constants are
    non-constructive, so no explicit level is asserted).
    """
    led = traj.ledger
    n = traj.manifold.n
    res = MonitorResult(monitor_id="s_upper")
    eps = slack_epsilon(traj)
    atol = 1e-10 * (1.0 + abs(led.rho0))
    p = n / 2.0
    sums = _lp_rows(traj, lambda r: np.maximum(traj.S[r], 0.0), p)
    for t, v in zip(traj.snap_t.tolist(), sums.tolist()):
        res.add_upper(t, v ** (1.0 / p), led.s0_plus_ln2, eps, atol)

    late = _late_sup_abs_s(traj)
    res.notes.append(f"sup over [T/2, T] of max|S| = {late:.12g}")
    res.add(float(traj.t[-1]), late, math.inf, math.isfinite(late))

    integral = _s_high_norm_time_integral(traj)
    res.notes.append(f"time integral of high-Lq curvature norm = {integral:.12g}")
    res.add(float(traj.t[-1]), integral, math.inf, math.isfinite(integral))

    if refined is not None:
        for quantity in ("late_sup_abs_s", "s_time_integral"):
            _add_refinement(res, traj, refined, quantity)
    return res


def _inf_u(traj) -> float:
    return float(traj.min_u.min())


def _late_sup_abs_s(traj) -> float:
    late = traj.t >= 0.5 * traj.config.T_final - 1e-14
    vals = np.maximum(np.abs(traj.min_S[late]), np.abs(traj.max_S[late]))
    return float(vals.max()) if vals.size else math.nan


def _s_high_norm_time_integral(traj) -> float:
    """int_0^T ( int |S|^q dVol_g )^{(n-2)/n} dt with q = n^2/(2(n-2))."""
    n = traj.manifold.n
    q = lq_exponent(n)
    vals = [v ** ((n - 2.0) / n) for v in _lp_rows(traj, lambda r: traj.S[r], q).tolist()]
    return float(np.trapezoid(vals, traj.snap_t))


# ---------------------------------------------------------------------------
# parabolic Sobolev inequality


def _sample_spacetime_fields(traj, samples: int, seed: int):
    """Deterministic test family: polynomials in x times smooth time cutoffs.

    Each is ``(name, ramp, profile)``, valued ``ramp[i] * profile`` on snapshot
    row i (``profile[i]`` for ``u_along_run``'s (snapshots x nodes) profile).
    """
    man = traj.manifold
    xi = man.nodes / man.x_max
    ts = traj.snap_t
    flat = np.ones(ts.size)
    rng = np.random.default_rng(seed)
    # the snapshot times strictly increase, so u along the run is the u block
    fields = [("const", flat, np.ones_like(xi)), ("u_along_run", flat, traj.u)]
    for j in range(max(samples - 2, 0)):
        coeff = rng.uniform(-1.0, 1.0, size=5)
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(a + 0.2, 1.0)
        poly = (coeff[0] + coeff[1] * xi + coeff[2] * xi**2
                + coeff[3] * xi**3 + coeff[4] * xi**4)
        ramp = 0.25 + 0.75 * make_cutoff(a, b, 1.0)(ts / traj.config.T_final)
        fields.append((f"poly_{j}", ramp, poly))
    return fields


def _grad_weights(man, u_rows: np.ndarray) -> np.ndarray:
    """Face weights of ``w^2`` per snapshot row, with w = u averaged onto the faces."""
    wf = 0.5 * (u_rows[:, :-1] + u_rows[:, 1:])
    return man.face_weights * wf**2


def check_parabolic_sobolev(traj, samples: int = 20, seed: int = 2024) -> MonitorResult:
    """Space-time Sobolev inequality with the flow-adapted constants.

    For each sampled field f the inequality
    ``||f^2||_{L^{(n+2)/n}(M_T,g)} <= n/(n+2) (A_T ||grad f||^2 + B_T
    ||f||^2) + 2/(n+2) sup_t ||f(t)||^2`` is evaluated by quadrature over
    the trajectory's evolving measure.  Needs A(T), B(T) in the ledger.

    Each snapshot contributes three sums per field: ``int |f|^{2q}``,
    ``int w^2 |grad f|^2`` and ``int f^2``.  For a separable field
    ``f = r(t) P(x)`` they are ``|r|^{2q} (gw @ |P|^{2q})``,
    ``r^2 (fw @ (dP^2 / h))`` and ``r^2 (gw @ P^2)``: one matrix product per
    block of snapshot rows for all such fields at once, each column then
    scaled by its time factor.  A field with a (snapshots x nodes) profile
    is summed elementwise through :func:`_row_sums`.
    """
    led = traj.ledger
    res = MonitorResult(monitor_id="parabolic_sobolev")
    missing = led.A_T is None or led.B_T is None
    if not _applies(res, led, res.monitor_id,
                    "Sobolev constants unavailable (no Yamabe estimate)" if missing else None):
        return res
    man = traj.manifold
    n = man.n
    eps = slack_epsilon(traj)
    q = (n + 2.0) / n
    ts, gw, u = traj.snap_t, traj.gvol_weights, traj.u

    fields = _sample_spacetime_fields(traj, samples, seed)
    separable = [f for f in fields if f[2].ndim == 1]
    full = [f for f in fields if f[2].ndim == 2]

    # separable fields: their (nodes x fields) profile terms, three products per block
    prof = np.stack([profile for _, _, profile in separable], axis=1)
    dprof = np.diff(prof, axis=0)
    node_pow = np.abs(prof) ** (2.0 * q)
    face_sq = dprof * dprof / man.face_h[:, None]
    node_sq = prof * prof
    lhs_s, grad_s, l2_s = (np.empty((ts.size, len(separable))) for _ in range(3))
    step = max(1, BLOCK_ELEMENTS // u.shape[1])
    for lo in range(0, ts.size, step):
        r = slice(lo, lo + step)
        np.matmul(gw[r], node_pow, out=lhs_s[r])
        np.matmul(_grad_weights(man, u[r]), face_sq, out=grad_s[r])
        np.matmul(gw[r], node_sq, out=l2_s[r])
    ramps = np.stack([ramp for _, ramp, _ in separable], axis=1)
    lhs_s *= np.abs(ramps) ** (2.0 * q)
    ramp_sq = ramps * ramps
    grad_s *= ramp_sq
    l2_s *= ramp_sq
    sums = {name: (lhs_s[:, k], grad_s[:, k], l2_s[:, k])
            for k, (name, _, _) in enumerate(separable)}

    def terms(r):   # the other fields, elementwise; the face weights of w^2 are shared
        fw = _grad_weights(man, u[r])
        for _, ramp, profile in full:
            fv = ramp[r, None] * profile[r]
            yield gw[r] * np.abs(fv) ** (2.0 * q)
            df = np.diff(fv, axis=1) / man.face_h
            yield fw * df * df * man.face_h
            yield gw[r] * fv * fv

    flat = _row_sums(traj, terms)
    sums.update((name, flat[3 * k:3 * k + 3]) for k, (name, _, _) in enumerate(full))

    for name, _, _ in fields:
        lhs_t, grad_t, l2_t = sums[name]
        lhs = float(np.trapezoid(lhs_t, ts)) ** (1.0 / q)
        rhs = (
            n / (n + 2.0)
            * (led.A_T * float(np.trapezoid(grad_t, ts)) + led.B_T * float(np.trapezoid(l2_t, ts)))
            + 2.0 / (n + 2.0) * float(l2_t.max())
        )
        if not res.add_upper(float(ts[-1]), lhs, rhs, eps):
            res.notes.append(f"violated by field {name}")
    return res


# ---------------------------------------------------------------------------
# energy decay


def check_energy_decay(traj, window: int = 5, trend_slack: float = 1e-6) -> MonitorResult:
    """Decay of the curvature-normalization energy and the H^1 ceiling.

    ``int (S - rho)^2 dVol_g`` must be non-increasing in trend (after
    averaging over `window` records), and ``||u||_{H^1}`` must stay below
    the explicit ceiling ``(n+2)/4 (rho0 + ||(S0)_-||_inf)``, which needs
    bounded (S0)_-.
    """
    led = traj.ledger
    res = MonitorResult(monitor_id="energy_decay")
    energies = traj.energy
    if energies.size > window:
        kernel = np.ones(window) / window
        smooth = np.convolve(energies, kernel, mode="valid")
        tsm = traj.t[window - 1:]
        ok = smooth[1:] <= smooth[:-1] + trend_slack * (1.0 + smooth[:-1])
        for i in (np.flatnonzero(~ok) + 1).tolist():
            res.add(float(tsm[i]), float(smooth[i]), float(smooth[i - 1]), False)
        if res.passed:
            res.add(float(tsm[-1]), float(smooth[-1]), float(smooth[0]), True)
    res.notes.append(
        f"energy initial {energies[0]:.12g} final {energies[-1]:.12g}"
    )

    if _applies(res, led, "energy_decay/h1_ceiling"):
        man, u = traj.manifold, traj.u
        ceiling = 0.25 * (man.n + 2) * (led.rho0 + led.s0_minus_lp[math.inf])
        eps = slack_epsilon(traj)

        def terms(r):   # the two sums of h1_norm
            yield man.mu_weights * u[r] * u[r]
            g = _gradient(man, u[r])
            yield man.mu_weights * g * g

        l2, g2 = _row_sums(traj, terms)
        for t, a, b in zip(traj.snap_t.tolist(), l2.tolist(), g2.tolist()):
            res.add_upper(t, math.sqrt(a + b), ceiling, eps)
    return res


# ---------------------------------------------------------------------------
# iteration chain diagnostics


def cutoff_times(T: float, k_max: int) -> List[float]:
    """Nested cylinder start times (1/2 - 1/2^k) T, clamped at zero."""
    return [max(0.0, (0.5 - 0.5**k) * T) for k in range(0, k_max + 1)]


def make_cutoff(t_lo: float, t_hi: float, T: float):
    """Monotone piecewise-cubic ramp: 0 before t_lo, 1 after t_hi.

    The smoothstep's max slope is 1.5/(t_hi - t_lo) <= 2^{k+1}/T for the
    level-k window, inside the required derivative budget.
    """
    if t_hi <= t_lo:
        return lambda t: np.ones_like(t)

    def eta(t):   # t: one time or a vector of times
        s = np.minimum(np.maximum((t - t_lo) / (t_hi - t_lo), 0.0), 1.0)
        return s * s * (3.0 - 2.0 * s)

    return eta


@dataclass
class ChainLevel:
    k: int
    t_k: float
    lhs: float        # ||S_+^{2 beta}||_{L^{(n+2)/n}} on the level-k cylinder
    rhs: float        # ||S_+^{2 beta}||_{L^{N}} on the previous cylinder
    ratio: float


@dataclass
class ChainReport:
    beta: float
    k_max: int
    conjugate_exponent: float     # N = n^2/(n^2 - 2n + 4)
    moser_exponent: float         # (n+2)/(n N) = (n^3 + 8)/n^3
    levels: List[ChainLevel] = field(default_factory=list)

    @property
    def finite(self) -> bool:
        return all(math.isfinite(l.lhs) and math.isfinite(l.rhs) for l in self.levels)

    def describe(self) -> str:
        lines = [
            f"iteration chain: beta = {self.beta:g}, "
            f"N = {self.conjugate_exponent:.12g}, "
            f"bootstrap exponent = {self.moser_exponent:.12g}",
            f"{'k':>3} {'t_k':>12} {'lhs':>18} {'rhs':>18} {'ratio':>12}",
        ]
        for l in self.levels:
            lines.append(
                f"{l.k:>3} {l.t_k:>12.6g} {l.lhs:>18.10g} {l.rhs:>18.10g} {l.ratio:>12.6g}"
            )
        return "\n".join(lines)


def _cylinder_norm(ts: np.ndarray, vals: np.ndarray, q: float, t_lo: float) -> float:
    """||S_+^{power}||_{L^q} over M x [t_lo, T] in the evolving measure.

    ``vals`` holds the per-snapshot integrals of ``S_+^{power q} dVol_g`` at
    the snapshot times ``ts``.
    """
    if t_lo <= ts[0]:
        return float(np.trapezoid(vals, ts)) ** (1.0 / q)
    j = int(np.searchsorted(ts, t_lo))
    if j >= ts.size:
        return 0.0
    # linear interpolation of the integrand at the cylinder base
    if j > 0 and ts[j] > t_lo:
        w = (t_lo - ts[j - 1]) / (ts[j] - ts[j - 1])
        v0 = (1 - w) * vals[j - 1] + w * vals[j]
        tcut = np.concatenate(([t_lo], ts[j:]))
        vcut = np.concatenate(([v0], vals[j:]))
    else:
        tcut, vcut = ts[j:], vals[j:]
    return float(np.trapezoid(vcut, tcut)) ** (1.0 / q)


def check_chain_parameters(beta: float, k_max: int) -> None:
    """Raise ValueError unless ``1 < beta < inf`` and ``1 <= k_max <= 8``."""
    if not beta > 1.0:
        raise ValueError(f"chain exponent beta must exceed 1 (got {beta:g})")
    if beta == math.inf:
        raise ValueError(f"chain exponent beta must be finite (got {beta:g})")
    if not 1 <= k_max <= 8:
        raise ValueError(f"k_max must lie in [1, 8] (got {k_max})")


def moser_chain(traj, beta: float, k_max: int = 6) -> ChainReport:
    """Norm bootstrap ledger over the nested space-time cylinders.

    For each level k the pair
    ``(||S_+^{2 beta}||_{L^{(n+2)/n}(M_k)}, ||S_+^{2 beta}||_{L^N(M_{k-1})})``
    is computed, with ``N = n^2/(n^2-2n+4)`` and cylinders
    ``M_k = M x [t_k, T]``.  Their ratios are diagnostics: the chain's
    constant is non-constructive, so only finiteness and refinement
    stability are asserted by callers.
    """
    check_chain_parameters(beta, k_max)
    n = traj.manifold.n
    N = n * n / (n * n - 2.0 * n + 4.0)
    q_hi = (n + 2.0) / n
    T = traj.config.T_final
    tks = cutoff_times(T, k_max)
    report = ChainReport(
        beta=beta,
        k_max=k_max,
        conjugate_exponent=N,
        moser_exponent=q_hi / N,
    )
    # the integrands of both exponents, each reduced once over the whole run
    ts, power = traj.snap_t, 2.0 * beta
    vals_hi, vals_N = (
        _row_sums(traj, lambda r: (
            traj.gvol_weights[r] * np.maximum(traj.S[r], 0.0) ** (power * q),
        ))[0]
        for q in (q_hi, N)
    )
    for k in range(1, k_max + 1):
        lhs = _cylinder_norm(ts, vals_hi, q_hi, tks[k])
        rhs = _cylinder_norm(ts, vals_N, N, tks[k - 1])
        if rhs > 0.0:
            ratio = lhs / rhs
        else:
            ratio = 0.0 if lhs == 0.0 else math.inf
        report.levels.append(ChainLevel(k=k, t_k=tks[k], lhs=lhs, rhs=rhs, ratio=ratio))
    return report


# ---------------------------------------------------------------------------
# refinement comparison and the monitor driver


# refinement quantity -> (label in monitor notes, trajectory summary)
_REFINE_SUMMARIES = {
    "inf_u": ("inf u", _inf_u),
    "late_sup_abs_s": ("late_sup", _late_sup_abs_s),
    "s_time_integral": ("time_integral", _s_high_norm_time_integral),
}


def refinement_ratio(traj_coarse, traj_fine, quantity: str) -> float:
    """Coarse/fine ratio of a trajectory summary (expected near 1)."""
    try:
        _, fn = _REFINE_SUMMARIES[quantity]
    except KeyError:
        raise ValueError(f"unknown refinement quantity {quantity!r}") from None
    coarse, fine = fn(traj_coarse), fn(traj_fine)
    return coarse / fine if fine > 0 else math.inf


def _add_refinement(res: MonitorResult, traj, refined, quantity: str) -> None:
    ratio = refinement_ratio(traj, refined, quantity)
    ok = REFINE_BAND[0] <= ratio <= REFINE_BAND[1]
    res.add(float(traj.t[-1]), ratio, REFINE_BAND[1], ok)
    res.notes.append(f"{_REFINE_SUMMARIES[quantity][0]} refinement ratio = {ratio:.6g}")


# monitor name -> call; each lambda looks its check_* function up in the
# module globals when it runs, so a wrapper bound to that name takes effect
_MONITORS = {
    "s_minus_decay": lambda traj, p_values, **_: [check_s_minus_decay(traj, p) for p in p_values],
    "scal_lower": lambda traj, **_: [check_scal_lower(traj)],
    "u_upper": lambda traj, **_: [check_u_upper(traj)],
    "u_lower": lambda traj, refined, **_: [check_u_lower(traj, refined=refined)],
    "s_upper": lambda traj, refined, **_: [check_s_upper(traj, refined=refined)],
    "parabolic_sobolev": lambda traj, samples, seed, **_: [
        check_parabolic_sobolev(traj, samples=samples, seed=seed)
    ],
    "energy_decay": lambda traj, **_: [check_energy_decay(traj)],
}
MONITOR_NAMES = tuple(_MONITORS)

# gated result -> the hypotheses it needs: a monitor id, or "<monitor>/<rows>"
# for a group of that monitor's rows
REQUIRES = {
    "s_minus_decay_pinf": ("s0_minus_bounded",),
    "u_upper": ("s0_minus_bounded",),
    "u_lower/supersolution": ("s0_minus_bounded",),
    "parabolic_sobolev": ("s0_bounded",),
    "energy_decay/h1_ceiling": ("s0_minus_bounded",),
}


def _applies(res: MonitorResult, ledger: BoundLedger, gated: str,
             unavailable: Optional[str] = None) -> bool:
    """Whether each hypothesis ``REQUIRES[gated]`` names holds, and no reason is ``unavailable``.

    If not, the first failure's reason becomes a note: a gated monitor is
    then not applicable, a gated "<monitor>/<rows>" group only skipped.
    """
    failed = [ledger.hypotheses[name] for name in REQUIRES.get(gated, ())
              if not ledger.hypotheses[name].passed]
    reason = f"{failed[0].name} fails: {failed[0].detail}" if failed else unavailable
    if reason is None:
        return True
    rows = gated.partition("/")[2]
    if rows:
        res.notes.append(f"{rows} rows skipped: {reason}")
    else:
        res.applicable = False
        res.notes.append(reason)
    return False


def run_monitors(
    traj,
    names=MONITOR_NAMES,
    p_values=P_DEFAULT,
    refined=None,
    sobolev_samples: int = 20,
    seed: int = 2024,
) -> List[MonitorResult]:
    """Results of the named monitors, in the order of ``names``.

    Each failed row goes to ``traj.ledger.violations``, in the same order.
    """
    out: List[MonitorResult] = []
    for name in names:
        try:
            call = _MONITORS[name]
        except KeyError:
            raise ValueError(f"unknown monitor {name!r}") from None
        out.extend(call(traj, p_values=p_values, refined=refined,
                        samples=sobolev_samples, seed=seed))
    traj.ledger.violations.extend((res.monitor_id, row.t, row.lhs, row.rhs, row.margin)
                                  for res in out for row in res.rows if not row.verdict)
    return out
