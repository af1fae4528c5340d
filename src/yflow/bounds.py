"""A-posteriori monitors for the flow's quantitative bounds.

Each monitor is a pure function of a finished trajectory (the Sobolev one also
of a Yamabe estimate) that derives the constants of the initial data where it
uses them: re-running monitors on a restored trajectory gives identical
verdicts, and no monitor can alter the flow.  Monitors read
the trajectory's columns and return their rows as columns (:class:`MonitorResult`).
Each monitor is one call, ``s_minus_decay`` too (one result per exponent),
and makes one pass over the (snapshots x nodes) array of u, a block of rows
at a time (:func:`_row_sums`, the only such loop), deriving each block's
curvature and weights from u once; its per-row results are row reductions,
or, for the parabolic Sobolev monitor's separable fields ``r(t) P(x)``,
matrix products with the stacked profiles, scaled by the block's time
factors (:func:`check_parabolic_sobolev`).  A norm whose sum leaves the
float range is taken again by ``lp_norm``, scaled by its max (:func:`_norms`).

Hypotheses: ``REQUIRES`` names those of ``geometry.HYPOTHESES`` that a monitor
(or a group of its rows) needs; where the manifold's verdict on one is a failure,
the monitor is not applicable (the rows skipped), noting the table's reason.

Slack discipline: inequalities with explicit constants are asserted with
multiplicative slack ``1 + 10 h^2 + 10 dt`` (h the widest grid face, dt
the largest accepted step) plus a tiny absolute floor for zero right-hand
sides (:meth:`MonitorResult.add_upper`).  Where the underlying constant is
non-constructive, a monitor asserts only that the quantity is finite.
Refinement stability takes two runs: :func:`refinement_ratio` gives the
quantity's ratio between a run and its grid-doubled twin, which must land in
``REFINE_BAND``.  :func:`run_monitors` dispatches through one name -> call
table, whose keys are ``MONITOR_NAMES``, and :func:`describe_ledger` writes
``ledger.txt`` from a run and its results.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import List, Optional

import numpy as np

from .discretization import _gradient, _laplacian, lp_norm
from .geometry import DiscretizedManifold, lq_exponent
from .yamabe import _scalar_curvature, _volume_weights, sobolev_constants

__all__ = [
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
    "describe_ledger",
    "s0_minus_norm",
    "MONITOR_NAMES",
    "REQUIRES",
]

P_DEFAULT = (2.0, 4.0, 8.0, math.inf)
REFINE_BAND = (0.9, 1.1)     # where a refinement_ratio between grid-doubled twins must land
TREND_WINDOW = 5            # energy records averaged per point of the energy_decay trend
TREND_SLACK = 1e-6          # relative rise the trend tolerates between averaged points
BLOCK_ELEMENTS = 2**13      # entries per block of a per-snapshot reduction (64 KiB)


def s0_minus_norm(manifold: DiscretizedManifold, p: float) -> float:
    """``||(S0)_-||_{L^p}`` in the background measure."""
    return lp_norm(np.maximum(-manifold.S0, 0.0), p, manifold.mu_weights)


def _s0_plus_norm(manifold: DiscretizedManifold) -> float:
    """``||(S0)_+||_{L^{n/2}}`` in the background measure."""
    return lp_norm(np.maximum(manifold.S0, 0.0), manifold.n / 2.0, manifold.mu_weights)


@dataclass
class MonitorResult:
    """A monitor's rows as columns: row i compares ``lhs[i]`` with ``rhs[i]`` at ``t[i]``.

    ``verdict[i]`` decides the row, and the monitor passes when every row does.  A row
    with a non-finite lhs, or a NaN rhs, never passes; a finite lhs may pass under a
    ``+inf`` ceiling, the bound past the float range.
    ``margin`` is ``rhs - lhs``: >= 0 on a passing upper-bound row, but <= 0 on a
    passing lower-bound row (``scal_lower``, ``u_lower``).
    """

    monitor_id: str
    applicable: bool = True
    t: np.ndarray = field(default_factory=lambda: np.empty(0))
    lhs: np.ndarray = field(default_factory=lambda: np.empty(0))
    rhs: np.ndarray = field(default_factory=lambda: np.empty(0))
    verdict: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.verdict.all())

    @property
    def margin(self) -> np.ndarray:
        return self.rhs - self.lhs

    def add(self, t, lhs, rhs, verdict) -> None:
        """Append rows: scalars or arrays, broadcast to one shape and read in C order."""
        verdict = verdict & np.isfinite(lhs) & ~np.isnan(rhs)
        for name, col in zip(("t", "lhs", "rhs", "verdict"),
                             np.broadcast_arrays(t, lhs, rhs, verdict)):
            setattr(self, name, np.append(getattr(self, name), col))

    def add_upper(self, t, lhs, rhs, eps: float, atol: float = 0.0):
        """Rows asserting ``lhs <= rhs (1 + eps) + atol``; returns their verdicts."""
        with np.errstate(over="ignore"):    # a bound past the float range is +inf
            bound = rhs * (1.0 + eps) + atol
        ok = lhs <= bound
        self.add(t, lhs, bound, ok)
        return ok


def slack_epsilon(traj) -> float:
    return 10.0 * traj.manifold.h_max**2 + 10.0 * float(traj.dt.max())


def _row_sums(traj, terms, rows=None) -> List[np.ndarray]:
    """The per-row results ``terms(block)`` yields, each joined over every block.

    ``terms`` maps a block of snapshot rows (a slice, or an index vector when
    ``rows`` picks the rows) to per-row results: vectors, one entry per row
    (``np.sum``, ``np.min`` or ``np.max`` of a (rows x nodes) array along its
    nodes), or (rows x k) matrix products.  It runs on blocks of about
    ``BLOCK_ELEMENTS`` entries, whose row sums equal each row's 1-D ``np.sum``
    bit for bit.  Roots and ``exp`` are left to the caller (:func:`_each`):
    array ones differ from the float ones in the last bits.
    """
    count, nodes = traj.u.shape
    if rows is not None:
        count = rows.size
    step = max(1, BLOCK_ELEMENTS // nodes)
    out = []    # one array per term, filled block by block
    for lo in range(0, count, step):
        block = slice(lo, lo + step) if rows is None else rows[lo:lo + step]
        for k, a in enumerate(terms(block)):
            if lo == 0:
                out.append(np.empty((count, *a.shape[1:])))
            out[k][lo:lo + step] = a
    return out


def _curvature(traj, r) -> np.ndarray:
    """The scalar curvature of the snapshot rows ``r``, derived from their u."""
    return _scalar_curvature(traj.manifold, traj.u[r])


def _exponent_tag(p: float) -> str:
    """``p`` as the shortest text that reads back as it: 2.0 -> "2", 2.5 -> "2.5", inf -> "inf"."""
    return repr(float(p)).removesuffix(".0")


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each entry, a Python float: ``np.exp`` and array powers differ in the last bits."""
    return np.array([f(v) for v in x.tolist()], dtype=float)


def _norms(traj, sums: np.ndarray, p: float, sign: float, rows: np.ndarray) -> np.ndarray:
    """Python-float roots of the L^p sums of ``max(sign S, 0)`` on the snapshot ``rows``.

    The field is not 0 on these rows, so a sum of inf or 0 has left the float
    range: :func:`lp_norm` takes that norm again, scaled by the row's max.
    """
    norms = _each(lambda v: v ** (1.0 / p), sums)
    for k in np.flatnonzero((sums == math.inf) | (sums == 0.0)).tolist():
        i = int(rows[k])
        f = np.maximum(sign * _curvature(traj, i), 0.0)
        norms[k] = lp_norm(f, p, _volume_weights(traj.manifold, traj.u[i]))
    return norms


def _exp(v: float) -> float:
    """``math.exp``, saturating at +inf where the float range ends (past v = 709.78)."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# explicit-constant monitors


def check_s_minus_decay(traj, p_values) -> List[MonitorResult]:
    """Decay of the negative curvature part in L^p of the evolving metric.

    Asserts ``||S_-||_{L^p(g)}(t) <= exp(t n rho0 / (2p)) ||(S0)_-||_{L^p}``
    at every snapshot, one result per exponent of ``p_values`` in their order
    (p = inf uses the exponent's p -> inf limit, i.e. a constant bound).  An
    initially nonnegative S0 therefore forces S >= 0 along the whole run, up
    to slack: its bound stays 0 where the growth factor overflows to inf.
    """
    if any(p != math.inf and not 2.0 <= p for p in p_values):
        raise ValueError("p must lie in [2, inf]")
    results = [MonitorResult(monitor_id=f"s_minus_decay_p{_exponent_tag(p)}") for p in p_values]
    live = [(res, p) for res, p in zip(results, p_values) if _applies(res, traj, res.monitor_id)]
    eps, atol, n = slack_epsilon(traj), 1e-10 * (1.0 + abs(traj.rho0)), traj.manifold.n
    # a row with S >= 0 has S_- = 0 and lhs 0.0; only the others are reduced
    neg = np.flatnonzero(~(traj.min_S[traj.snap_step - traj.step[0]] >= 0.0))

    def terms(r):   # every exponent's sum from one block's S_- and weights
        a = np.abs(np.maximum(-_curvature(traj, r), 0.0))
        gw = _volume_weights(traj.manifold, traj.u[r])
        for _, p in live:
            yield np.max(a, axis=1) if p == math.inf else np.sum(gw * a ** p, axis=1)

    with np.errstate(over="ignore"):    # a sum past the float range is inf, taken again below
        sums = _row_sums(traj, terms, neg) if neg.size and live else [np.empty(0)] * len(live)
    for (res, p), s in zip(live, sums):
        lhs = np.zeros(traj.snap_t.size)
        lhs[neg] = s if p == math.inf else _norms(traj, s, p, -1.0, neg)
        base = s0_minus_norm(traj.manifold, p)
        growth = 1.0 if p == math.inf else _each(_exp, traj.snap_t * n * traj.rho0 / (2.0 * p))
        with np.errstate(over="ignore"):    # growth past the float range saturates at inf
            rhs = growth * base if base else 0.0
        res.add_upper(traj.snap_t, lhs, rhs, eps, atol)
    return results


def check_scal_lower(traj) -> MonitorResult:
    """Uniform lower bound on scalar curvature.

    ``S >= min(0, inf S0)`` always; when ``inf S0 > 0`` the sharper
    rational-in-time floor
    ``rho0 s_min / (exp(rho0 t)(rho0 - s_min) + s_min)`` is asserted too.
    Where ``exp`` overflows to inf that floor is its t -> inf limit: 0 for
    ``rho0 > s_min``, and for ``rho0 = s_min`` the constant it is at every t.
    """
    rho0 = traj.rho0
    res = MonitorResult(monitor_id="scal_lower")
    tol = slack_epsilon(traj) * (1.0 + abs(rho0))
    s_min0 = float(traj.manifold.S0.min())
    floors = [np.full(traj.snap_t.size, min(0.0, s_min0))]
    if s_min0 > 0.0:
        growth = _each(_exp, rho0 * traj.snap_t)
        with np.errstate(over="ignore"):    # growth past the float range saturates at inf
            # never inf * 0, which is NaN: equal rho0 and s_min keep the constant floor
            lift = growth * (rho0 - s_min0) if rho0 != s_min0 else np.zeros_like(growth)
        floors.append(rho0 * s_min0 / (lift + s_min0))
        res.notes.append("inf S0 > 0: rational positive-branch floor asserted as well")
    # one column per floor: each snapshot's rows stay together, the constant floor first
    rhs = np.stack(floors, axis=1) - tol
    lhs = traj.min_S[traj.snap_step - traj.step[0], None]     # each snapshot's min S
    res.add(traj.snap_t[:, None], lhs, rhs, lhs >= rhs)
    return res


def check_u_upper(traj) -> MonitorResult:
    """Exponential ceiling on the conformal factor.

    ``max u(t) <= exp(C t)`` with the explicit rate
    ``C = (n-2)/4 (||(S0)_-||_inf + rho0)``; needs bounded (S0)_-.  Past
    the float range of ``exp(C t)`` the ceiling is +inf.
    """
    res = MonitorResult(monitor_id="u_upper")
    if not _applies(res, traj, res.monitor_id):
        return res
    n = traj.manifold.n
    C = 0.25 * (n - 2) * (s0_minus_norm(traj.manifold, math.inf) + traj.rho0)
    res.notes.append(f"rate C = {C:.12g}")
    res.add_upper(traj.t, traj.max_u, _each(_exp, C * traj.t), slack_epsilon(traj))
    return res


def check_u_lower(traj) -> MonitorResult:
    """Positivity and supersolution structure of the conformal factor.

    (i) running ``inf u`` stays positive; (ii) with
    ``P = (n-2)/(4(n-1)) (S0 + (sup u)^{4/(n-2)} ||(S0)_-||_inf)`` each
    snapshot satisfies ``-Lap(u) + P u >= 0`` up to slack (the elliptic
    supersolution property behind the uniform lower bound).
    """
    man = traj.manifold
    n = man.n
    res = MonitorResult(monitor_id="u_lower")
    eps = slack_epsilon(traj)

    inf_u = _inf_u(traj)
    res.add(float(traj.t[-1]), inf_u, 0.0, inf_u > 0.0)
    res.notes.append(f"running inf u = {inf_u:.12g}")

    if _applies(res, traj, "u_lower/supersolution"):
        pfield = (n - 2) / (4.0 * (n - 1)) * (
            man.S0 + _sup_u(traj) ** (4.0 / (n - 2)) * s0_minus_norm(man, math.inf)
        )

        def terms(r):   # both extremes from one pfield * u per block
            pu = pfield * traj.u[r]
            return np.min(-_laplacian(man, traj.u[r]) + pu, axis=1), np.max(np.abs(pu), axis=1)

        lows, peaks = _row_sums(traj, terms)
        tol = eps * (1.0 + peaks)
        res.add(traj.snap_t, lows, -tol, lows >= -tol)
    return res


def check_s_upper(traj) -> MonitorResult:
    """Curvature ceilings: monotone L^{n/2} norm plus structural bounds.

    (i) ``||S_+||_{L^{n/2}(g)}(t) <= ||(S0)_+||_{L^{n/2}}`` with slack;
    (ii) the late-time sup of max|S| and (iii) the time integral of the
    high L^q curvature norm are asserted finite (their constants are
    non-constructive, so no explicit level is asserted).
    """
    n = traj.manifold.n
    res = MonitorResult(monitor_id="s_upper")

    def terms(r):   # per row: the sums of |S_+|^(n/2) and |S|^q in dVol_g
        gw, S = _volume_weights(traj.manifold, traj.u[r]), _curvature(traj, r)
        with np.errstate(over="ignore"):    # a sum past the float range is inf
            return (np.sum(gw * np.abs(np.maximum(S, 0.0)) ** (n / 2.0), axis=1),
                    np.sum(gw * np.abs(S) ** lq_exponent(n), axis=1))

    sums, high = _row_sums(traj, terms)
    # a row with S <= 0 has S_+ = 0 and lhs 0.0, its sum's root
    pos = np.flatnonzero(~(traj.max_S[traj.snap_step - traj.step[0]] <= 0.0))
    lhs = np.zeros(sums.size)
    lhs[pos] = _norms(traj, sums[pos], n / 2.0, 1.0, pos)
    res.add_upper(traj.snap_t, lhs, _s0_plus_norm(traj.manifold), slack_epsilon(traj),
                  1e-10 * (1.0 + abs(traj.rho0)))

    late = _late_sup_abs_s(traj)
    # int_0^T ( int |S|^q dVol_g )^{(n-2)/n} dt, from the inner integrals ``high``
    integral = float(np.trapezoid(_each(lambda v: v ** ((n - 2.0) / n), high), traj.snap_t))
    res.notes += [f"sup over [T/2, T] of max|S| = {late:.12g}",
                  f"time integral of high-Lq curvature norm = {integral:.12g}"]
    res.add(float(traj.t[-1]), np.array([late, integral]), math.inf, True)  # a non-finite one fails
    return res


def _inf_u(traj) -> float:
    return float(traj.min_u.min())


def _sup_u(traj) -> float:
    return float(traj.max_u.max())


def _late_sup_abs_s(traj) -> float:
    late = traj.t >= 0.5 * traj.config.T_final - 1e-14
    vals = np.maximum(np.abs(traj.min_S[late]), np.abs(traj.max_S[late]))
    return float(vals.max()) if vals.size else math.nan


# ---------------------------------------------------------------------------
# parabolic Sobolev inequality


def _sample_spacetime_fields(man, samples: int, seed: int):
    """Deterministic test family: polynomials in x times smooth time cutoffs.

    The fields are "const" (1), "u_along_run" (u itself) and ``samples - 2``
    fields ``poly_j(x) (0.25 + 0.75 eta_j(t / T))``, eta_j the
    :func:`make_cutoff` ramp over the window ``(lo[j], hi[j])``.  Returns the
    (nodes x fields) profiles of "const" and each poly_j, in that order, and
    the vectors ``lo`` and ``hi``.
    """
    xi = man.nodes / man.x_max
    rng = np.random.default_rng(seed)
    profiles, windows = [np.ones_like(xi)], []
    for _ in range(max(samples - 2, 0)):
        coeff = rng.uniform(-1.0, 1.0, size=5)
        a = rng.uniform(0.0, 0.5)
        windows.append((a, rng.uniform(a + 0.2, 1.0)))
        profiles.append(coeff[0] + coeff[1] * xi + coeff[2] * xi**2
                        + coeff[3] * xi**3 + coeff[4] * xi**4)
    lo, hi = np.array(windows).reshape(-1, 2).T
    return np.stack(profiles, axis=1), lo, hi


def _grad_weights(man, u_rows: np.ndarray) -> np.ndarray:
    """Face weights of ``w^2`` per snapshot row, with w = u averaged onto the faces."""
    wf = 0.5 * (u_rows[:, :-1] + u_rows[:, 1:])
    return man.face_weights * wf**2


def check_parabolic_sobolev(traj, y_est: Optional[float] = None, samples: int = 20,
                            seed: int = 2024) -> MonitorResult:
    """Space-time Sobolev inequality with the flow-adapted constants.

    For each sampled field f the inequality
    ``||f^2||_{L^{(n+2)/n}(M_T,g)} <= n/(n+2) (A_T ||grad f||^2 + B_T
    ||f||^2) + 2/(n+2) sup_t ||f(t)||^2`` is evaluated by quadrature over
    the trajectory's evolving measure, with the constants that
    ``sobolev_constants`` draws from a positive Yamabe estimate ``y_est``.

    Each snapshot contributes three sums per field: ``int |f|^{2q}``,
    ``int w^2 |grad f|^2`` and ``int f^2``.  For a separable field
    ``f = r(t) P(x)`` they are ``r^{2q} (gw @ |P|^{2q})``,
    ``r^2 (fw @ (dP^2 / h))`` and ``r^2 (gw @ P^2)`` (r >= 1/4): one matrix
    product per block of snapshot rows for all such fields at once, each
    column then scaled by its time factor on the block's rows.  ``u_along_run``
    is summed elementwise, in the same pass over the blocks (:func:`_row_sums`);
    only the three sums per field and snapshot span the whole run.
    """
    res = MonitorResult(monitor_id="parabolic_sobolev")
    missing = "Sobolev constants unavailable (no Yamabe estimate)" if y_est is None else None
    if not _applies(res, traj, res.monitor_id, missing):
        return res
    man = traj.manifold
    sc = sobolev_constants(man, y_est, _sup_u(traj), _inf_u(traj))
    n = man.n
    eps = slack_epsilon(traj)
    q = (n + 2.0) / n
    ts, u, T = traj.snap_t, traj.u, traj.config.T_final

    # the separable fields' (nodes x fields) profile terms, three products per block
    prof, lo, hi = _sample_spacetime_fields(man, samples, seed)
    dprof = np.diff(prof, axis=0)
    node_pow = np.abs(prof) ** (2.0 * q)
    face_sq = dprof * dprof / man.face_h[:, None]
    node_sq = prof * prof

    def terms(r):   # one block's weights and time factors, shared by every field
        gw, fw = _volume_weights(man, u[r]), _grad_weights(man, u[r])
        ramp = 0.25 + 0.75 * _smoothstep(ts[r, None] / T, lo, hi)   # (rows x poly_j)
        ramp_sq = ramp * ramp
        lhs, grad, l2 = gw @ node_pow, fw @ face_sq, gw @ node_sq
        lhs[:, 1:] *= ramp ** (2.0 * q)     # column 0, "const", has r = 1
        grad[:, 1:] *= ramp_sq
        l2[:, 1:] *= ramp_sq
        yield from (lhs, grad, l2)
        v = u[r]        # u_along_run, elementwise
        yield np.sum(gw * np.abs(v) ** (2.0 * q), axis=1)
        df = np.diff(v, axis=1) / man.face_h
        yield np.sum(fw * df * df * man.face_h, axis=1)
        yield np.sum(gw * v * v, axis=1)

    lhs_s, grad_s, l2_s, *along = _row_sums(traj, terms)
    sums = [(lhs_s[:, k], grad_s[:, k], l2_s[:, k]) for k in range(prof.shape[1])]
    sums.insert(1, along)
    names = ["const", "u_along_run", *(f"poly_{j}" for j in range(lo.size))]

    # per field: the time integrals of its three sums, and the sup of its L2 sum
    lhs_i, grad_i, l2_i, l2_sup = np.array([
        [*(np.trapezoid(col, ts) for col in cols), cols[2].max()] for cols in sums]).T
    rhs = n / (n + 2.0) * (sc.A_T * grad_i + sc.B_T * l2_i) + 2.0 / (n + 2.0) * l2_sup
    ok = res.add_upper(float(ts[-1]), _each(lambda v: v ** (1.0 / q), lhs_i), rhs, eps)
    res.notes += [f"violated by field {name}" for name, good in zip(names, ok) if not good]
    return res


# ---------------------------------------------------------------------------
# energy decay


def check_energy_decay(traj) -> MonitorResult:
    """Decay of the curvature-normalization energy and the H^1 ceiling.

    ``int (S - rho)^2 dVol_g`` must be non-increasing in trend (after
    averaging over ``TREND_WINDOW`` records, up to ``TREND_SLACK``), and
    ``||u||_{H^1}`` must stay below the explicit ceiling
    ``(n+2)/4 (rho0 + ||(S0)_-||_inf)``, which needs bounded (S0)_-.
    """
    res = MonitorResult(monitor_id="energy_decay")
    energies = traj.energy
    if energies.size > TREND_WINDOW:
        kernel = np.ones(TREND_WINDOW) / TREND_WINDOW
        smooth = np.convolve(energies, kernel, mode="valid")
        tsm = traj.t[TREND_WINDOW - 1:]
        ok = smooth[1:] <= smooth[:-1] + TREND_SLACK * (1.0 + smooth[:-1])
        rise = np.flatnonzero(~ok) + 1
        res.add(tsm[rise], smooth[rise], smooth[rise - 1], False)
        if not rise.size:
            res.add(tsm[-1], smooth[-1], smooth[0], True)
    res.notes.append(f"energy initial {energies[0]:.12g} final {energies[-1]:.12g}")

    if _applies(res, traj, "energy_decay/h1_ceiling"):
        man, u = traj.manifold, traj.u
        ceiling = 0.25 * (man.n + 2) * (traj.rho0 + s0_minus_norm(man, math.inf))
        eps = slack_epsilon(traj)

        def terms(r):   # the two sums of h1_norm
            yield np.sum(man.mu_weights * u[r] * u[r], axis=1)
            g = _gradient(man, u[r])
            yield np.sum(man.mu_weights * g * g, axis=1)

        l2, g2 = _row_sums(traj, terms)
        res.add_upper(traj.snap_t, np.sqrt(l2 + g2), ceiling, eps)
    return res


# ---------------------------------------------------------------------------
# iteration chain diagnostics


def cutoff_times(T: float, k_max: int) -> List[float]:
    """Nested cylinder start times (1/2 - 1/2^k) T, clamped at zero."""
    return [max(0.0, (0.5 - 0.5**k) * T) for k in range(0, k_max + 1)]


def make_cutoff(t_lo: float, t_hi: float):
    """Monotone piecewise-cubic ramp: 0 before t_lo, 1 after t_hi.

    The smoothstep's max slope is 1.5/(t_hi - t_lo) <= 2^{k+1}/T for the
    level-k window, inside the required derivative budget.
    """
    if t_hi <= t_lo:
        return lambda t: np.ones_like(t)
    return lambda t: _smoothstep(t, t_lo, t_hi)     # t: one time or a vector of times


def _smoothstep(t, t_lo, t_hi):
    """The cubic of :func:`make_cutoff` for ``t_lo < t_hi``, broadcast over all three."""
    s = np.minimum(np.maximum((t - t_lo) / (t_hi - t_lo), 0.0), 1.0)
    return s * s * (3.0 - 2.0 * s)


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
    j = int(np.searchsorted(ts, t_lo))     # t_lo < T/2 <= ts[-1], so j < ts.size
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
    ts, power = traj.snap_t, 2.0 * beta

    def terms(r):   # the integrands of both exponents, in one pass over the run
        gw = _volume_weights(traj.manifold, traj.u[r])
        s_plus = np.maximum(_curvature(traj, r), 0.0)
        return (np.sum(gw * s_plus ** (power * q_hi), axis=1),
                np.sum(gw * s_plus ** (power * N), axis=1))

    vals_hi, vals_N = _row_sums(traj, terms)
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


# refinement quantity -> trajectory summary
_REFINE_SUMMARIES = {"inf_u": _inf_u, "late_sup_abs_s": _late_sup_abs_s}


def refinement_ratio(traj_coarse, traj_fine, quantity: str) -> float:
    """Coarse/fine ratio of a trajectory summary, to land in ``REFINE_BAND``."""
    try:
        fn = _REFINE_SUMMARIES[quantity]
    except KeyError:
        raise ValueError(f"unknown refinement quantity {quantity!r}") from None
    coarse, fine = fn(traj_coarse), fn(traj_fine)
    return coarse / fine if fine > 0 else math.inf


# monitor name -> call; each lambda looks its check_* function up in the
# module globals when it runs, so a wrapper bound to that name takes effect
_MONITORS = {
    "s_minus_decay": lambda traj, p_values, **_: check_s_minus_decay(traj, p_values),
    "scal_lower": lambda traj, **_: [check_scal_lower(traj)],
    "u_upper": lambda traj, **_: [check_u_upper(traj)],
    "u_lower": lambda traj, **_: [check_u_lower(traj)],
    "s_upper": lambda traj, **_: [check_s_upper(traj)],
    "parabolic_sobolev": lambda traj, y_est, samples, seed, **_: [
        check_parabolic_sobolev(traj, y_est=y_est, samples=samples, seed=seed)
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


def _applies(res: MonitorResult, traj, gated: str, unavailable: Optional[str] = None) -> bool:
    """Whether each hypothesis ``REQUIRES[gated]`` names holds, and no reason is ``unavailable``.

    If not, the first failure's reason becomes a note: a gated monitor is
    then not applicable, a gated "<monitor>/<rows>" group only skipped.
    """
    hypotheses = traj.manifold.hypotheses
    failed = [hypotheses[name] for name in REQUIRES.get(gated, ()) if not hypotheses[name].passed]
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


def run_monitors(traj, names=MONITOR_NAMES, p_values=P_DEFAULT, sobolev_samples: int = 20,
                 seed: int = 2024, y_est: Optional[float] = None) -> List[MonitorResult]:
    """Results of the named monitors, in the order of ``names``.

    ``y_est``, a positive Yamabe estimate, gives the Sobolev monitor its constants.
    """
    out: List[MonitorResult] = []
    for name in names:
        try:
            call = _MONITORS[name]
        except KeyError:
            raise ValueError(f"unknown monitor {name!r}") from None
        out.extend(call(traj, p_values=p_values, y_est=y_est, samples=sobolev_samples,
                        seed=seed))
    return out


def describe_ledger(traj, results: List[MonitorResult], y_est: Optional[float] = None) -> str:
    """The text of ``ledger.txt``; its Sobolev constants are those of ``y_est``, if given."""
    def fmt(v):
        return "unavailable" if v is None else f"{v:.12g}"

    man = traj.manifold
    sup_u, inf_u = _sup_u(traj), _inf_u(traj)
    sobolev = ((None,) * 4 if y_est is None
               else astuple(sobolev_constants(man, y_est, sup_u, inf_u)))  # A0, B0, A_T, B_T
    lines = [
        "bound ledger",
        f"  rho0          = {fmt(traj.rho0)}",
        f"  inf S0        = {fmt(float(man.S0.min()))}",
        f"  ||S0||_Lq     = {fmt(man.hypotheses['s0_lq_finite'].value)}  (q = n^2/(2(n-2)))",
        f"  ||(S0)+||_n/2 = {fmt(_s0_plus_norm(man))}",
    ]
    lines += [f"  ||(S0)-||_L{_exponent_tag(p)} = {fmt(s0_minus_norm(man, p))}" for p in P_DEFAULT]
    lines += [
        f"  sup u / inf u = {fmt(sup_u)} / {fmt(inf_u)}",
        f"  Y estimate    = {fmt(y_est)}",
        "  A0, B0        = {}, {}".format(*map(fmt, sobolev[:2])),
        "  A(T), B(T)    = {}, {}".format(*map(fmt, sobolev[2:])),
        f"  violations    = {sum(np.count_nonzero(~r.verdict) for r in results)}",  # failed rows
    ]
    return "\n".join(lines)
