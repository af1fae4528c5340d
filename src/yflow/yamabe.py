"""Variational quantities of the conformal class.

The evolving metric is ``g = u^{4/(n-2)} g0`` with conformal factor
``u > 0``.  Its scalar curvature, the volume-normalized average curvature,
the conformal Rayleigh quotient, and an inverse-iteration estimate of the
quotient's infimum all live here, together with the derived Sobolev
constants.

A flow state's average curvature is ``rho = int S dVol_g``.  The discrete
integration by parts is exact, so it equals the Dirichlet form
``int kappa |grad u|^2 + S0 u^2 d(mu)`` of :func:`average_scalar` to
rounding; a finished run compares the two once, on its final snapshot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretization import (
    TridiagonalOperator,
    _conformal_laplacian,
    _dirichlet_form,
    _solve_tridiagonal,
    check_field,
    critical_exponent,
    flow_exponent,
    kappa,
    lp_norm,
)
from .geometry import DiscretizedManifold

__all__ = [
    "PositivityError",
    "VolumeError",
    "YamabeSignError",
    "FlowState",
    "scalar_curvature_flow",
    "average_scalar",
    "yamabe_quotient",
    "YamabeEstimate",
    "estimate_yamabe_constant",
    "SobolevConstants",
    "sobolev_constants",
]


class PositivityError(ValueError):
    """Conformal factor lost positivity."""

    def __init__(self, node: int, value: float):
        self.node = node
        self.value = value
        super().__init__(f"u must be positive: u[{node}] = {value:.6g}")


class VolumeError(ValueError):
    """Evolving volume drifted out of tolerance."""


class YamabeSignError(ValueError):
    """Positive Yamabe constant assumption violated."""


def _positive_field(manifold: DiscretizedManifold, u: np.ndarray) -> np.ndarray:
    """u checked as a field of the manifold, and positive."""
    u = check_field(manifold, u)
    if np.minimum.reduce(u) <= 0.0:
        bad = int(np.argmax(u <= 0.0))
        raise PositivityError(bad, float(u[bad]))
    return u


def _require_unit_volume(volume: float) -> None:
    if abs(volume - 1.0) > 1e-8:
        raise VolumeError(
            f"evolving volume {volume:.12g} is outside tolerance 1e-08 of 1; "
            "renormalize the state first"
        )


def scalar_curvature_flow(manifold: DiscretizedManifold, u: np.ndarray) -> np.ndarray:
    """Scalar curvature of ``u^{4/(n-2)} g0``: ``u^{-(n+2)/(n-2)} L0(u)``."""
    return _scalar_curvature(manifold, _positive_field(manifold, u))


def _scalar_curvature(manifold: DiscretizedManifold, u: np.ndarray) -> np.ndarray:
    """:func:`scalar_curvature_flow` unchecked, along the last axis: a state or a block of rows."""
    return _conformal_laplacian(manifold, u) * u ** (-flow_exponent(manifold.n))


def _volume_weights(manifold: DiscretizedManifold, u: np.ndarray) -> np.ndarray:
    """Node weights ``u^p mu`` of the evolving measure dVol_g, ``p = 2n/(n-2)``.

    Works along the last axis: one state, or a block of snapshot rows.
    """
    w = u ** critical_exponent(manifold.n)
    w *= manifold.mu_weights
    return w


def _unit_volume(manifold: DiscretizedManifold, u: np.ndarray) -> np.ndarray:
    """u scaled by ``vol^{-(n-2)/(2n)}``, ``vol = int u^p d(mu)``."""
    n = manifold.n
    vol = float(np.add.reduce(_volume_weights(manifold, u)))
    return u * vol ** (-(n - 2.0) / (2.0 * n))


def _energy(manifold: DiscretizedManifold, v: np.ndarray) -> float:
    """Conformal energy ``int kappa |grad v|^2 + S0 v^2 d(mu)``; v is not checked."""
    return (kappa(manifold.n) * _dirichlet_form(manifold, v, v)
            + float(np.add.reduce(manifold.mu_S0 * v * v)))


def average_scalar(manifold: DiscretizedManifold, u: np.ndarray) -> float:
    """Volume-normalized average scalar curvature of the evolving metric.

    The Dirichlet form of u; it equals the ``int S dVol_g`` of
    :meth:`FlowState.from_u` to rounding.
    """
    u = _positive_field(manifold, u)
    _require_unit_volume(float(np.add.reduce(_volume_weights(manifold, u))))
    return _energy(manifold, u)


@dataclass
class FlowState:
    """One snapshot of the conformal flow.

    ``S`` caches the scalar curvature of the current metric, ``rho`` its
    average ``int S dVol_g``, ``gvol_weights`` the per-node weights of the
    evolving volume measure and ``volume`` their sum.  :meth:`from_u` builds
    each of them once, from a unit-volume u alone; :meth:`initial` first
    scales u onto that slice.
    """

    t: float
    u: np.ndarray
    S: np.ndarray
    rho: float
    gvol_weights: np.ndarray
    volume: float

    @classmethod
    def initial(cls, manifold: DiscretizedManifold, u: Optional[np.ndarray] = None) -> "FlowState":
        """The time-zero state of u (constant one if not given), scaled to unit volume."""
        if u is None:
            u = np.ones(manifold.node_count)
        return cls.from_u(manifold, _unit_volume(manifold, _positive_field(manifold, u)), 0.0)

    @classmethod
    def from_u(cls, manifold: DiscretizedManifold, u: np.ndarray, t: float) -> "FlowState":
        """The state of a unit-volume u; raises VolumeError off the slice."""
        S = scalar_curvature_flow(manifold, u)    # validates u
        gvol = _volume_weights(manifold, u)
        volume = float(np.add.reduce(gvol))
        _require_unit_volume(volume)
        return cls(t=t, u=u, S=S, rho=float(np.add.reduce(gvol * S)), gvol_weights=gvol,
                   volume=volume)


def yamabe_quotient(manifold: DiscretizedManifold, v: np.ndarray) -> float:
    """Conformal Rayleigh quotient of a test field (scale invariant)."""
    v = check_field(manifold, v)
    denom = lp_norm(v, critical_exponent(manifold.n), manifold.mu_weights)
    if denom == 0.0:
        raise ValueError("yamabe quotient undefined for the zero field")
    return _energy(manifold, v) / denom**2


@dataclass
class YamabeEstimate:
    """Upper bound on the Yamabe constant from nonlinear inverse iteration.

    The minimization runs over rotationally symmetric competitors only, so
    the true constant may be smaller.  ``value`` is the Rayleigh quotient of
    ``minimizer``, the iterate with the least quotient, so it bounds the
    discrete constant from above.
    """

    value: float
    minimizer: np.ndarray
    iterations: int
    converged: bool


# largest sup-norm change of the L^p-normalized iterate, relative to its max,
# that counts as a fixed point; rounding alone moves it ~1e-12 at M=8192, gamma=2
_FIXED_POINT_TOL = 1e-10


def estimate_yamabe_constant(manifold: DiscretizedManifold, max_iter: int = 300) -> YamabeEstimate:
    """Nonlinear inverse iteration for ``L0 v = Y v^{p-1}``, ``p = 2n/(n-2)``.

    Starting from the constant field, each iteration solves ``L0 w = v^{p-1}``
    once, with ``L0 = S0 - kappa Lap`` built from the cached Laplacian bands,
    and normalizes w in L^p.  This is Petviashvili's method; the normalization
    makes its stabilizing factor unnecessary.  The iteration converges when an
    iterate moves by at most ``_FIXED_POINT_TOL`` of its maximum.  It stops
    unconverged at ``max_iter``, at a singular L0, at an iterate that is not
    positive, and at a quotient that is not positive: L0 is positive definite
    only when Y > 0, and only then has positive solutions.
    """
    n = manifold.n
    p, mu, k = critical_exponent(n), manifold.mu_weights, kappa(n)
    lap = manifold.laplacian_bands
    l0 = TridiagonalOperator(sub=-k * lap.sub, diag=manifold.S0 - k * lap.diag,
                             sup=-k * lap.sup)
    v = np.ones(manifold.node_count)
    v /= lp_norm(v, p, mu)
    value, minimizer = yamabe_quotient(manifold, v), v
    it, converged = 0, False
    while it < max_iter and value > 0.0 and not converged:
        it += 1
        try:
            w = _solve_tridiagonal(l0, v ** (p - 1.0))
        except np.linalg.LinAlgError:
            break
        # NaN fails both comparisons
        if not (np.minimum.reduce(w) > 0.0 and np.maximum.reduce(w) < math.inf):
            break
        w /= lp_norm(w, p, mu)
        q = yamabe_quotient(manifold, w)
        if q < value:
            value, minimizer = q, w
        converged = bool(np.maximum.reduce(np.abs(w - v))
                         <= _FIXED_POINT_TOL * np.maximum.reduce(w))
        v = w
    return YamabeEstimate(value=value, minimizer=minimizer, iterations=it, converged=converged)


@dataclass
class SobolevConstants:
    """Background and flow-adapted Sobolev constants.

    ``A0 = kappa(n)/Y`` and ``B0 = sup|S0|/Y`` give the background
    inequality; along the flow they degrade via the conformal-factor
    extremes to ``A_T = A0 (sup u / inf u)^2`` and
    ``B_T = B0 (sup u)^2 / (inf u)^{2n/(n-2)}``.  ``B0``/``B_T`` are None,
    and the inequality unavailable, when the ``s0_bounded`` hypothesis fails.
    """

    A0: float
    B0: Optional[float]
    A_T: Optional[float]
    B_T: Optional[float]


def sobolev_constants(
    manifold: DiscretizedManifold, y_est: float, sup_u: float, inf_u: float
) -> SobolevConstants:
    if not y_est > 0.0:
        raise YamabeSignError(
            f"positive Yamabe constant assumption violated (estimate {y_est:.6g})"
        )
    if not (inf_u > 0.0 and sup_u >= inf_u):
        raise ValueError("need sup_u >= inf_u > 0")
    A0 = kappa(manifold.n) / y_est
    s0_bounded = manifold.hypotheses["s0_bounded"]
    if not s0_bounded.passed:
        return SobolevConstants(A0=A0, B0=None, A_T=None, B_T=None)
    B0 = s0_bounded.value / y_est
    ratio = sup_u / inf_u
    A_T = A0 * ratio**2
    B_T = B0 * sup_u**2 / inf_u ** critical_exponent(manifold.n)
    return SobolevConstants(A0=A0, B0=B0, A_T=A_T, B_T=B_T)
