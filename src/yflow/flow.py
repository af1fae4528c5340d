"""Time integration of the normalized conformal flow.

One step freezes the diffusion coefficient ``(n-1) u^{1-N}`` and the
reaction terms at the current state, applies the Laplacian to the new
conformal factor, and solves one tridiagonal system (semi-implicit, first
order in time).  The continuous flow preserves the total volume; the
discrete one drifts by O(dt^2) per step, so every accepted step is
projected back onto the unit-volume slice.

The step controller grows dt by 1.2x on success up to ``dt_max``, halves
it when a step loses positivity, and additionally caps dt by the explicit
reaction limit ``cfl * 4 / ((n-2) max|S - rho|)``.  Runs are strictly
sequential and bit-deterministic for a fixed configuration; independent
runs can execute concurrently.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .discretization import TridiagonalOperator, critical_exponent, flow_exponent, lp_norm
from .geometry import DiscretizedManifold
from .yamabe import FlowState, _unit_volume

__all__ = [
    "FlowConfig",
    "StepRejected",
    "SolverAbort",
    "CheckpointError",
    "StepRecord",
    "Snapshot",
    "Trajectory",
    "step",
    "renormalize_volume",
    "run",
    "checkpoint",
    "restore",
    "config_hash",
]


@dataclass(frozen=True)
class FlowConfig:
    T_final: float
    cfl: float = 0.9
    dt_init: float = 1e-3
    dt_min: float = 1e-9
    dt_max: float = 1e-2
    vol_tol: float = 1e-10
    positivity_floor: float = 1e-12
    checkpoint_every: int = 0       # steps; 0 disables periodic checkpoints
    snapshot_every: int = 1         # steps between stored field snapshots

    def __post_init__(self):
        if not self.T_final > 0.0:
            raise ValueError("T_final must be positive")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.vol_tol <= 0.0 or self.positivity_floor <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")

    def spec_string(self) -> str:
        return (
            f"T={self.T_final:.17g}|cfl={self.cfl:.17g}|dt0={self.dt_init:.17g}"
            f"|dtmin={self.dt_min:.17g}|dtmax={self.dt_max:.17g}"
            f"|voltol={self.vol_tol:.17g}|floor={self.positivity_floor:.17g}"
        )


class StepRejected(Exception):
    """Step produced a conformal factor at or below the positivity floor."""

    def __init__(self, dt: float, node: int, value: float):
        self.dt = dt
        self.node = node
        self.value = value
        super().__init__(f"step dt={dt:.3e} rejected: u[{node}] = {value:.3e}")


class SolverAbort(RuntimeError):
    """Unrecoverable integration failure; carries the last valid state."""

    def __init__(self, message: str, state: Optional[FlowState] = None,
                 checkpoint_path: Optional[str] = None):
        self.state = state
        self.checkpoint_path = checkpoint_path
        super().__init__(message)


class CheckpointError(RuntimeError):
    pass


def renormalize_volume(manifold: DiscretizedManifold, state: FlowState) -> FlowState:
    """Project the state back onto the unit-volume slice.

    Scales u by ``Vol^{-(n-2)/(2n)}`` so the evolving volume is one
    exactly, then refreshes S and rho.
    """
    return FlowState.from_u(manifold, _unit_volume(manifold, state.u, state.volume), state.t)


def step(
    manifold: DiscretizedManifold,
    state: FlowState,
    dt: float,
    positivity_floor: float = 1e-12,
    renormalize: bool = True,
) -> FlowState:
    """Advance one semi-implicit step of size dt.

    The new state is projected with :func:`renormalize_volume`.  With
    ``renormalize=False`` the raw post-step state is returned instead: its
    volume weights are fresh, ``S`` is None and ``rho`` is the previous one.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n = manifold.n
    N = flow_exponent(n)
    u = state.u
    diff_coeff = (n - 1) * u ** (1.0 - N)
    reaction = 0.25 * (n - 2) * (state.rho * u - manifold.S0 * u ** (2.0 - N))

    lap = manifold.laplacian_bands
    op = TridiagonalOperator(
        sub=-dt * diff_coeff * lap.sub,
        diag=1.0 - dt * diff_coeff * lap.diag,
        sup=-dt * diff_coeff * lap.sup,
    )
    u_new = op.solve(u + dt * reaction)

    if not np.all(np.isfinite(u_new)):
        bad = int(np.argmax(~np.isfinite(u_new)))
        raise SolverAbort(
            f"non-finite conformal factor at node {bad} "
            f"(x={manifold.nodes[bad]:.6g}, dt={dt:.3e})",
            state=state,
        )
    if np.any(u_new <= positivity_floor):
        bad = int(np.argmax(u_new <= positivity_floor))
        raise StepRejected(dt, bad, float(u_new[bad]))

    gvol = manifold.mu_weights * u_new ** critical_exponent(n)
    raw = FlowState(t=state.t + dt, u=u_new, S=None, rho=state.rho, gvol_weights=gvol)
    return renormalize_volume(manifold, raw) if renormalize else raw


@dataclass
class StepRecord:
    step: int
    t: float
    dt: float
    rho: float
    vol: float
    min_u: float
    max_u: float
    min_S: float
    max_S: float
    s_minus_l2: float
    s_minus_linf: float
    energy: float          # int (S - rho)^2 dVol_g


@dataclass
class Snapshot:
    step: int
    t: float
    u: np.ndarray
    S: np.ndarray
    rho: float
    gvol_weights: np.ndarray


@dataclass
class Trajectory:
    """Scalar time series plus field snapshots of one run."""

    manifold: DiscretizedManifold
    config: FlowConfig
    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    ledger: Optional[object] = None

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    @property
    def final_state(self) -> Optional[FlowState]:
        if not self.snapshots:
            return None
        s = self.snapshots[-1]
        return FlowState(t=s.t, u=s.u, S=s.S, rho=s.rho, gvol_weights=s.gvol_weights)

    def validate(self) -> None:
        ts = self.times
        if np.any(np.diff(ts) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        for s in self.snapshots:
            if abs(float(np.sum(s.gvol_weights)) - 1.0) > self.config.vol_tol:
                raise ValueError(f"snapshot at t={s.t:g} violates volume tolerance")


def _record_of(state: FlowState, step_index: int, dt: float) -> StepRecord:
    sm = np.maximum(-state.S, 0.0)
    gw = state.gvol_weights
    return StepRecord(
        step=step_index,
        t=state.t,
        dt=dt,
        rho=state.rho,
        vol=state.volume,
        min_u=float(state.u.min()),
        max_u=float(state.u.max()),
        min_S=float(state.S.min()),
        max_S=float(state.S.max()),
        s_minus_l2=lp_norm(sm, 2.0, gw),
        s_minus_linf=lp_norm(sm, math.inf, gw),
        energy=float(np.sum(gw * (state.S - state.rho) ** 2)),
    )


def _snapshot_of(state: FlowState, step_index: int) -> Snapshot:
    return Snapshot(
        step=step_index,
        t=state.t,
        u=state.u.copy(),
        S=state.S.copy(),
        rho=state.rho,
        gvol_weights=state.gvol_weights.copy(),
    )


def run(
    manifold: DiscretizedManifold,
    config: FlowConfig,
    monitors: Iterable[Callable[[FlowState, StepRecord], None]] = (),
    checkpoint_dir: Optional[str] = None,
    initial_state: Optional[FlowState] = None,
    initial_dt: Optional[float] = None,
    initial_step: int = 0,
    rho0: Optional[float] = None,
) -> Trajectory:
    """Integrate to T_final under the adaptive controller.

    ``monitors`` are read-only callbacks invoked at every stored snapshot.
    Passing ``initial_state``/``initial_dt``/``initial_step`` resumes a
    checkpointed run; with identical configuration the continuation is
    bit-identical to the uninterrupted trajectory.  ``rho0`` overrides the
    ledger's time-zero average curvature on resumed runs (by default the
    value at the starting state is used).
    """
    from .bounds import BoundLedger

    monitors = tuple(monitors)
    state = initial_state if initial_state is not None else FlowState.initial(manifold)
    traj = Trajectory(manifold=manifold, config=config)
    ledger = BoundLedger.from_manifold(manifold)
    ledger.rho0 = state.rho if rho0 is None else rho0
    traj.ledger = ledger

    k = initial_step
    dt_nominal = initial_dt if initial_dt is not None else config.dt_init
    dt_nominal = min(max(dt_nominal, config.dt_min), config.dt_max)
    n = manifold.n
    T = config.T_final

    rec = _record_of(state, k, 0.0)
    traj.records.append(rec)
    traj.snapshots.append(_snapshot_of(state, k))
    ledger.observe(rec)
    for cb in monitors:
        cb(state, rec)

    while state.t < T * (1.0 - 1e-14):
        reaction = float(np.max(np.abs(state.S - state.rho)))
        dt_cap = config.cfl * 4.0 / ((n - 2) * reaction) if reaction > 0.0 else math.inf
        dt_eff = min(dt_nominal, dt_cap, T - state.t)

        try:
            state = step(manifold, state, dt_eff, positivity_floor=config.positivity_floor)
        except StepRejected:
            if dt_nominal <= config.dt_min * (1.0 + 1e-12):
                path = None
                if checkpoint_dir is not None:
                    path = os.path.join(checkpoint_dir, f"abort_step{k}.ckpt")
                    checkpoint(state, path, manifold, config, dt_next=dt_nominal, step_index=k)
                raise SolverAbort(
                    f"dt underflow at t={state.t:.6g} after repeated rejections",
                    state=state,
                    checkpoint_path=path,
                )
            dt_nominal = max(dt_nominal / 2.0, config.dt_min)
            continue

        k += 1
        rec = _record_of(state, k, dt_eff)
        traj.records.append(rec)
        ledger.observe(rec)

        done = state.t >= T * (1.0 - 1e-14)
        if k % config.snapshot_every == 0 or done:
            traj.snapshots.append(_snapshot_of(state, k))
            for cb in monitors:
                cb(state, rec)

        dt_nominal = min(dt_nominal * 1.2, config.dt_max)
        if config.checkpoint_every and checkpoint_dir is not None and (
            k % config.checkpoint_every == 0
        ):
            path = os.path.join(checkpoint_dir, f"step{k:08d}.ckpt")
            checkpoint(state, path, manifold, config, dt_next=dt_nominal, step_index=k)

    ledger.finalize()
    traj.validate()
    return traj


# ---------------------------------------------------------------------------
# checkpointing


def config_hash(manifold: DiscretizedManifold, config: FlowConfig) -> str:
    text = manifold.spec_string() + "||" + config.spec_string()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def checkpoint(
    state: FlowState,
    path: str,
    manifold: DiscretizedManifold,
    config: FlowConfig,
    dt_next: float,
    step_index: int,
) -> None:
    """Write a restartable plain-text snapshot (17 significant digits)."""
    lines = [
        "YFLOW v1",
        f"hash {config_hash(manifold, config)}",
        f"t {state.t:.17g}",
        f"dt {dt_next:.17g}",
        f"step {step_index}",
        f"nodes {state.u.size}",
    ]
    lines.extend(f"u {v:.17g}" for v in state.u)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_line(raw: bytes, offset: int, expect: str, path: str):
    if not raw:
        raise CheckpointError(f"{path}: unexpected end of file at byte {offset}")
    text = raw.decode("utf-8", errors="replace").rstrip("\n")
    parts = text.split(" ", 1)
    if parts[0] != expect or len(parts) < 2:
        raise CheckpointError(
            f"{path}: expected '{expect} ...' at byte {offset}, got {text!r}"
        )
    return parts[1]


def restore(
    path: str, manifold: DiscretizedManifold, config: FlowConfig
):
    """Read a checkpoint; returns (state, dt_next, step_index).

    Refuses files whose configuration hash does not match the given
    manifold and flow configuration.
    """
    with open(path, "rb") as fh:
        offset = 0
        header = fh.readline()
        if header.rstrip(b"\n") != b"YFLOW v1":
            raise CheckpointError(f"{path}: bad header at byte 0: {header!r}")
        offset += len(header)

        raw = fh.readline()
        found = _parse_line(raw, offset, "hash", path)
        offset += len(raw)
        expected = config_hash(manifold, config)
        if found != expected:
            raise CheckpointError(
                f"{path}: configuration hash mismatch "
                f"(file {found[:12]}..., current {expected[:12]}...); "
                "the checkpoint belongs to a different manifold or flow setup"
            )

        fields = {}
        for key in ("t", "dt", "step", "nodes"):
            raw = fh.readline()
            fields[key] = _parse_line(raw, offset, key, path)
            offset += len(raw)
        try:
            t = float(fields["t"])
            dt_next = float(fields["dt"])
            step_index = int(fields["step"])
            nodes = int(fields["nodes"])
        except ValueError as exc:
            raise CheckpointError(f"{path}: malformed header field: {exc}") from exc
        if nodes != manifold.node_count:
            raise CheckpointError(
                f"{path}: node count {nodes} does not match the manifold "
                f"({manifold.node_count})"
            )
        u = np.empty(nodes)
        for i in range(nodes):
            raw = fh.readline()
            val = _parse_line(raw, offset, "u", path)
            try:
                u[i] = float(val)
            except ValueError as exc:
                raise CheckpointError(
                    f"{path}: bad node value at byte {offset}: {val!r}"
                ) from exc
            offset += len(raw)

    state = FlowState.from_u(manifold, u, t)
    return state, dt_next, step_index
