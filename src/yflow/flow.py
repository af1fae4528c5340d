"""Time integration of the normalized conformal flow.

One step freezes the diffusion coefficient ``(n-1) u^{1-N}`` and the
reaction terms at the current state, applies the Laplacian to the new
conformal factor, and solves one tridiagonal system (semi-implicit, first
order in time) through :meth:`TridiagonalOperator.solve`.  One min/max test
accepts the new factor; only a failing one is diagnosed further.  The
continuous flow preserves the total volume; the discrete one drifts by
O(dt^2) per step, so every accepted step is projected back onto the
unit-volume slice, where ``FlowState.from_u`` validates u and evaluates S,
the volume weights and ``rho = int S dVol_g`` once each, from u alone;
:meth:`Trajectory.validate` checks the final rho against the Dirichlet form.

The step controller grows dt by 1.2x on success up to ``dt_max`` and caps
dt by the explicit reaction limit ``cfl * 4 / ((n-2) max|S - rho|)``, which
each step's record returns with its row; a limit below ``dt_min`` aborts the
run.  When a step loses positivity it halves the nominal dt until that is
below the rejected dt, so no retry repeats a rejected (state, dt) pair; a
nominal dt at ``dt_min`` that must still be halved aborts the run, as does a
trajectory that fails :meth:`Trajectory.validate`.  Runs are strictly
sequential and bit-deterministic for a fixed configuration; independent runs
can execute concurrently.

Every run starts at ``FlowState.initial(manifold)`` and takes its ``rho0``
from that state; ``run(..., resume_from=path)`` then continues from the
state, nominal dt and step of the checkpoint at ``path``.

A run is stored as columns (:class:`Trajectory`): one vector per
``timeseries.csv`` column plus the step index, and one (snapshots x nodes)
array of u.  A snapshot's curvature S and volume weights ``mu_weights * u**p``
are derived from its u where they are needed (``yamabe._scalar_curvature``
and ``yamabe._volume_weights``), bit for bit those of its state.  ``run``
appends each row to a flat growable buffer and reshapes the buffers into
columns at the end.
"""
from __future__ import annotations

import hashlib
import math
import os
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretization import TridiagonalOperator, flow_exponent, lp_norm
from .geometry import DiscretizedManifold
from .yamabe import (FlowState, VolumeError, _scalar_curvature, _unit_volume, _volume_weights,
                     average_scalar)

__all__ = [
    "FlowConfig",
    "StepRejected",
    "SolverAbort",
    "CheckpointError",
    "RECORD_COLUMNS",
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
    T_final: float = 1.0
    cfl: float = 0.9
    dt_init: float = 1e-3
    dt_min: float = 1e-9
    dt_max: float = 1e-2
    vol_tol: float = 1e-10          # on max|vol - 1|, whose rounding floor is ~4 ulps (8.9e-16)
    positivity_floor: float = 1e-12
    checkpoint_every: int = 0       # steps; 0 disables periodic checkpoints
    snapshot_every: int = 1         # steps between stored field snapshots

    def __post_init__(self):
        if not 0.0 < self.T_final < math.inf:
            raise ValueError("T_final must be positive and finite")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not (self.vol_tol > 0.0 and self.positivity_floor > 0.0):
            raise ValueError("tolerances must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
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
    """Unrecoverable integration failure; names the abort checkpoint, if one was written."""

    def __init__(self, message: str, checkpoint_path: Optional[str] = None):
        self.checkpoint_path = checkpoint_path
        super().__init__(message)


class CheckpointError(RuntimeError):
    pass


def renormalize_volume(manifold: DiscretizedManifold, u: np.ndarray, t: float) -> FlowState:
    """The state at time t of u projected onto the unit-volume slice.

    Scales u by ``Vol^{-(n-2)/(2n)}`` so the evolving volume is one
    exactly, then evaluates S and rho.
    """
    return FlowState.from_u(manifold, _unit_volume(manifold, u), t)


def _advance(
    manifold: DiscretizedManifold, state: FlowState, dt: float, positivity_floor: float
) -> np.ndarray:
    """The conformal factor one semi-implicit step of size dt on, before projection."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n = manifold.n
    u = state.u
    w = u ** (1.0 - flow_exponent(n))          # u^{1-N}
    # u + dt (n-2)/4 (rho u - S0 u^{2-N}), with u^{2-N} = u^{1-N} u
    c = 0.25 * (n - 2) * dt
    rhs = manifold.S0 * w
    rhs *= -c
    rhs += 1.0 + c * state.rho
    rhs *= u
    # I - dt (n-1) u^{1-N} Lap, row by row
    w *= -dt * (n - 1)
    lap = manifold.laplacian_bands
    diag = w * lap.diag
    diag += 1.0
    u_new = TridiagonalOperator(sub=w * lap.sub, diag=diag, sup=w * lap.sup).solve(rhs)

    # one min/max test; NaN fails both comparisons
    if not (np.minimum.reduce(u_new) > positivity_floor
            and np.maximum.reduce(u_new) < math.inf):
        if not np.isfinite(u_new).all():
            bad = int(np.argmax(~np.isfinite(u_new)))
            raise SolverAbort(f"non-finite conformal factor at node {bad} "
                              f"(x={manifold.nodes[bad]:.6g}, dt={dt:.3e})")
        bad = int(np.argmax(u_new <= positivity_floor))
        raise StepRejected(dt, bad, float(u_new[bad]))
    return u_new


def step(
    manifold: DiscretizedManifold, state: FlowState, dt: float, positivity_floor: float = 1e-12
) -> FlowState:
    """Advance one semi-implicit step of size dt, projected with :func:`renormalize_volume`."""
    return renormalize_volume(manifold, _advance(manifold, state, dt, positivity_floor),
                              state.t + dt)


# per-step Trajectory columns after ``step``; ``energy`` is int (S - rho)^2 dVol_g
RECORD_COLUMNS = ("t", "dt", "rho", "vol", "min_u", "max_u", "min_S", "max_S",
                  "s_minus_l2", "s_minus_linf", "energy")


@dataclass
class Trajectory:
    """One run stored as columns, with its time-zero average curvature ``rho0``.

    Per accepted step, the starting state first: ``step`` and the float
    columns named in ``RECORD_COLUMNS``.  Per stored snapshot: the
    ``snap_step`` and ``snap_t`` vectors and the (snapshots x nodes) array
    ``u``, a row-strided view of one buffer.  A snapshot's curvature and
    volume weights are derived from its u where they are used; :attr:`S`
    derives every snapshot's curvature at once.
    """

    manifold: DiscretizedManifold
    config: FlowConfig
    rho0: float
    step: np.ndarray
    t: np.ndarray
    dt: np.ndarray
    rho: np.ndarray
    vol: np.ndarray
    min_u: np.ndarray
    max_u: np.ndarray
    min_S: np.ndarray
    max_S: np.ndarray
    s_minus_l2: np.ndarray
    s_minus_linf: np.ndarray
    energy: np.ndarray
    snap_step: np.ndarray
    snap_t: np.ndarray
    u: np.ndarray

    @property
    def S(self) -> np.ndarray:
        """The (snapshots x nodes) scalar curvature, bit for bit that of each snapshot's state."""
        return _scalar_curvature(self.manifold, self.u)

    def validate(self) -> None:
        """Check times, volumes, and the final rho against the Dirichlet form.

        The ``vol`` column holds every accepted state's volume, the snapshots' included.
        """
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        off = np.abs(self.vol - 1.0) > self.config.vol_tol
        if off.any():
            t = self.t[off.argmax()]
            raise ValueError(f"state at t={t:g} violates volume tolerance")
        rho, u = self.rho[-1], self.u[-1]
        dirichlet = average_scalar(self.manifold, u)
        scale = float(np.add.reduce(_volume_weights(self.manifold, u)
                                    * np.abs(_scalar_curvature(self.manifold, u))))
        if abs(rho - dirichlet) > 1e-12 * scale:
            raise ValueError(f"final rho {rho:.17g} disagrees with the Dirichlet form "
                             f"{dirichlet:.17g}")


def _record_of(state: FlowState, step_index: int, dt: float) -> tuple:
    """``step`` and the RECORD_COLUMNS of one state, and its ``max|S - rho|``."""
    S, gw, rho = state.S, state.gvol_weights, state.rho
    s_min, s_max = float(np.minimum.reduce(S)), float(np.maximum.reduce(S))
    d = S - rho
    # S_- = max(-S, 0) is zero when S >= 0; max(0.0, x) keeps +0.0 for x = -0.0
    s_minus_l2 = lp_norm(np.maximum(-S, 0.0), 2.0, gw) if s_min < 0.0 else 0.0
    row = (
        step_index, state.t, dt, rho, state.volume,
        float(np.minimum.reduce(state.u)), float(np.maximum.reduce(state.u)), s_min, s_max,
        s_minus_l2, max(0.0, -s_min), float(np.add.reduce(gw * d * d)),
    )
    # rounding is monotone, so max|S_i - rho| sits at an extreme of S
    return row, max(s_max - rho, rho - s_min)


def _ended(t: float, T: float, step_index: int) -> bool:
    """Whether a run at time t after ``step_index`` steps has reached T.

    Each step rounds the summed t by at most half an ulp of T, so a remainder
    of at most ``step_index`` ulps is rounding, not a step still to take.
    """
    return T - t <= step_index * math.ulp(T)


def _snapshot(buffer: array, step_index: int, state: FlowState) -> None:
    """Append one snapshot row: step, t and the node values of u."""
    buffer.extend((step_index, state.t))
    buffer.frombytes(state.u.tobytes())


def run(
    manifold: DiscretizedManifold,
    config: FlowConfig,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
) -> Trajectory:
    """Integrate to T_final under the adaptive controller.

    ``resume_from``, a checkpoint path, continues from that checkpoint; under
    the same configuration the continuation is bit-identical to the
    uninterrupted trajectory, its ``rho0`` included.
    """
    state = FlowState.initial(manifold)
    rho0, dt_nominal, k = state.rho, config.dt_init, 0
    if resume_from is not None:
        state, dt_nominal, k = restore(resume_from, manifold, config)
    # growable row-major buffers, one row per record and per snapshot
    records, snapshots = array("d"), array("d")
    n = manifold.n
    T = config.T_final

    def abort(message: str) -> SolverAbort:
        """The abort at the current state, after writing its checkpoint if there is a directory."""
        path = None
        if checkpoint_dir is not None:
            path = os.path.join(checkpoint_dir, f"abort_step{k}.ckpt")
            checkpoint(state, path, manifold, config, dt_next=dt_nominal, step_index=k)
        return SolverAbort(message, checkpoint_path=path)

    row, reaction = _record_of(state, k, 0.0)
    records.extend(row)
    _snapshot(snapshots, k, state)

    while not _ended(state.t, T, k):
        dt_cap = config.cfl * 4.0 / ((n - 2) * reaction) if reaction > 0.0 else math.inf
        if dt_cap < config.dt_min:
            raise abort(f"reaction cap dt={dt_cap:.3e} below dt_min={config.dt_min:.3e} "
                        f"at t={state.t:.6g} (max|S - rho| = {reaction:.3e})")
        dt_eff = min(dt_nominal, dt_cap, T - state.t)

        try:
            state = step(manifold, state, dt_eff, positivity_floor=config.positivity_floor)
        except StepRejected:
            while dt_nominal >= dt_eff:     # a retry at the rejected dt would fail again
                if dt_nominal <= config.dt_min * (1.0 + 1e-12):
                    raise abort(f"dt underflow at t={state.t:.6g} after repeated rejections")
                dt_nominal = max(dt_nominal / 2.0, config.dt_min)
            continue

        k += 1
        row, reaction = _record_of(state, k, dt_eff)
        records.extend(row)
        if k % config.snapshot_every == 0 or _ended(state.t, T, k):
            _snapshot(snapshots, k, state)

        dt_nominal = min(dt_nominal * 1.2, config.dt_max)
        if config.checkpoint_every and checkpoint_dir is not None and (
            k % config.checkpoint_every == 0
        ):
            path = os.path.join(checkpoint_dir, f"step{k:08d}.ckpt")
            checkpoint(state, path, manifold, config, dt_next=dt_nominal, step_index=k)

    # step indices stay below 2^53, so the float buffers hold them exactly
    rec = np.frombuffer(records).reshape(-1, 1 + len(RECORD_COLUMNS)).T.copy()
    snap = np.frombuffer(snapshots).reshape(-1, 2 + manifold.node_count)
    traj = Trajectory(manifold, config, rho0, rec[0].astype(np.int64), *rec[1:],
                      snap[:, 0].astype(np.int64), snap[:, 1].copy(), snap[:, 2:])
    try:
        traj.validate()
    except ValueError as exc:   # a run that breaks its own invariant is a solver failure
        raise SolverAbort(str(exc)) from None
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
    lines.extend(f"u {v:.17g}" for v in state.u.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def restore(
    path: str, manifold: DiscretizedManifold, config: FlowConfig
):
    """Read a checkpoint; returns (state, dt_next, step_index).

    Refuses files whose configuration hash does not match the given
    manifold and flow configuration.  A line that cannot be read, holds a
    value no run resumes from (t < 0 or past ``T_final``, dt outside
    [``dt_min``, ``dt_max``], step < 0, u <= 0, or one not finite), or has a
    hash or node count that does not match is reported with its byte offset,
    as is any byte after the last u line; a u off the unit-volume slice, or
    one whose u^p or S leaves the float range, with that of its first line.
    A t at ``T_final`` is a finished run's last checkpoint.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if header.rstrip(b"\n") != b"YFLOW v1":
            raise CheckpointError(f"{path}: bad header at byte 0: {header!r}")
        at = offset = len(header)      # at: where the line last read starts

        def field(key: str, cast=str, valid=lambda value: True):
            """The value of the next line, ``<key> <value>``, read by ``cast``; ``valid`` holds."""
            nonlocal at, offset
            at, raw = offset, fh.readline()
            if not raw:
                raise CheckpointError(f"{path}: unexpected end of file at byte {offset}")
            text = raw.decode("utf-8", errors="replace").rstrip("\n")
            parts = text.split(" ", 1)
            if parts[0] != key or len(parts) < 2:
                raise CheckpointError(f"{path}: expected '{key} ...' at byte {offset}, got {text!r}")
            try:
                value = cast(parts[1])
                if not valid(value):
                    raise ValueError
            except ValueError:
                raise CheckpointError(
                    f"{path}: malformed {key!r} field at byte {offset}: {parts[1]!r}"
                ) from None
            offset += len(raw)
            return value

        found, expected = field("hash"), config_hash(manifold, config)
        if found != expected:
            raise CheckpointError(
                f"{path}: configuration hash mismatch at byte {at} "
                f"(file {found[:12]}..., current {expected[:12]}...); "
                "the checkpoint belongs to a different manifold or flow setup"
            )
        t = field("t", float, lambda v: 0.0 <= v <= config.T_final)
        dt_next = field("dt", float, lambda v: config.dt_min <= v <= config.dt_max)
        step_index = field("step", int, lambda v: v >= 0)
        nodes = field("nodes", int)
        if nodes != manifold.node_count:
            raise CheckpointError(
                f"{path}: node count {nodes} at byte {at} does not match the manifold "
                f"({manifold.node_count})"
            )
        u_at = offset
        u = np.array([field("u", float, lambda v: 0.0 < v < math.inf) for _ in range(nodes)])
        if fh.read(1):
            raise CheckpointError(f"{path}: unexpected data after the last u line "
                                  f"at byte {offset}")

    try:
        with np.errstate(over="raise", invalid="raise"):    # a huge or tiny u
            state = FlowState.from_u(manifold, u, t)
    except (VolumeError, FloatingPointError) as exc:
        raise CheckpointError(f"{path}: the u lines from byte {u_at}: {exc}") from None
    return state, dt_next, step_index
