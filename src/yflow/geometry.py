"""Rotationally symmetric model manifolds.

A manifold here is the warped product ``dx^2 + phi(x)^2 g_{S^{n-1}}`` on an
interval ``(0, x_max)``.  The warping function ``phi`` may vanish at either
end: linearly with unit slope (a smooth pole, as for the round sphere) or
with slope ``a != 1`` (a cone point).  Ends where ``phi`` stays positive are
reflecting walls ("open" ends), which the zero-flux discretization treats
like interior points of the measure.

Everything downstream works on a :class:`DiscretizedManifold`: a graded
radial grid, quadrature weights for the background measure
``d(mu) = omega_{n-1} phi^{n-1} dx``, and the background scalar curvature
field.  Construction normalizes the total volume to one by a homothety;
curvature scales accordingly.  ``HYPOTHESES`` holds the paper's hypotheses
as predicates, which each manifold decides once; :func:`audit_assumptions` renders them.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Tip",
    "SMOOTH_POLE",
    "OPEN_END",
    "cone_tip",
    "WarpedProfile",
    "RadialGrid",
    "DiscretizedManifold",
    "GeometryError",
    "ConstructionError",
    "HYPOTHESES",
    "AuditCheck",
    "AuditReport",
    "build_manifold",
    "lq_exponent",
    "audit_assumptions",
    "sphere",
    "perturbed_sphere",
    "cone",
    "capped_cone",
    "tabulated",
    "make_profile",
    "unit_sphere_area",
]


class GeometryError(ValueError):
    """Invalid profile or grid data."""


class ConstructionError(GeometryError):
    """Raised when a manifold cannot be assembled from its inputs."""


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n.

    Raises GeometryError from n = 344 on, where ``Gamma(n/2)`` overflows a float.
    """
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise GeometryError(f"dimension n = {n} is too large: the area of the unit "
                            f"sphere S^{n - 1} overflows a float") from None


@dataclass(frozen=True)
class Tip:
    """Classification of one end of the radial interval.

    ``smooth-pole`` and ``cone`` ends have ``phi -> 0`` with limiting slope
    1 and ``slope`` respectively; ``open`` ends keep ``phi > 0`` and act as
    reflecting walls.
    """

    kind: str
    slope: float = 1.0

    def __post_init__(self):
        if self.kind not in ("smooth-pole", "cone", "open"):
            raise GeometryError(f"unknown tip kind {self.kind!r}")
        if self.kind == "cone" and not self.slope > 0.0:
            raise GeometryError("cone tip needs slope > 0")

    @property
    def vanishes(self) -> bool:
        return self.kind in ("smooth-pole", "cone")

    @property
    def effective_slope(self) -> float:
        """phi/d limit at the tip (1 for smooth poles)."""
        return self.slope if self.kind == "cone" else 1.0

    def describe(self) -> str:
        if self.kind == "cone":
            return f"cone({self.slope:g})"
        return self.kind


SMOOTH_POLE = Tip("smooth-pole")
OPEN_END = Tip("open")


def cone_tip(slope: float) -> Tip:
    return Tip("cone", slope)


# Step used by the fallback finite-difference derivatives, relative to x_max.
_FD_STEP = 5.0e-4


@dataclass(frozen=True)
class WarpedProfile:
    """Warping function defining the metric ``dx^2 + phi(x)^2 g_{S^{n-1}}``.

    ``phi`` must be positive on the open interval ``(0, x_max)`` and accept
    numpy arrays.  When closed-form derivatives are not supplied they are
    approximated by fourth-order central differences on an auxiliary fine
    stencil; the background curvature needs two derivatives, so profiles
    should be smooth at that scale.
    """

    name: str
    n: int
    x_max: float
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2phi: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tip_left: Tip = SMOOTH_POLE
    tip_right: Tip = SMOOTH_POLE
    params: tuple = ()

    def __post_init__(self):
        if self.n < 3:
            raise GeometryError("dimension n must be >= 3")
        if not (self.x_max > 0.0 and math.isfinite(self.x_max)):
            raise GeometryError("x_max must be positive and finite")

    def spec_string(self) -> str:
        """Canonical description used for checkpoint hashing."""
        ps = ",".join(f"{p:.17g}" if isinstance(p, float) else str(p) for p in self.params)
        return (
            f"{self.name}({ps})|n={self.n}|x_max={self.x_max:.17g}"
            f"|L={self.tip_left.describe()}|R={self.tip_right.describe()}"
        )

    def phi_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.phi(np.asarray(x, dtype=float)), dtype=float)

    def _fd_steps(self, x: np.ndarray) -> np.ndarray:
        # keep the 5-point stencil inside (0, x_max)
        h = np.full_like(x, _FD_STEP * self.x_max)
        h = np.minimum(h, x / 2.5)
        h = np.minimum(h, (self.x_max - x) / 2.5)
        return np.maximum(h, 1e-13 * self.x_max)

    def dphi_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.dphi is not None:
            return np.asarray(self.dphi(x), dtype=float)
        h = self._fd_steps(x)
        p = self.phi_at
        return (-p(x + 2 * h) + 8 * p(x + h) - 8 * p(x - h) + p(x - 2 * h)) / (12 * h)

    def d2phi_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.d2phi is not None:
            return np.asarray(self.d2phi(x), dtype=float)
        h = self._fd_steps(x)
        p = self.phi_at
        return (
            -p(x + 2 * h) + 16 * p(x + h) - 30 * p(x) + 16 * p(x - h) - p(x - 2 * h)
        ) / (12 * h * h)


@dataclass(frozen=True)
class RadialGrid:
    """Graded grid of M+1 nodes strictly inside (0, x_max).

    Nodes follow the symmetric grading map ``s -> s^gamma / (s^gamma +
    (1-s)^gamma)`` sampled at ``s_i = (i+1)/(M+2)``, so offsets from both
    tips shrink like ``(1/M)^gamma`` and ``gamma = 1`` gives a uniform grid.
    """

    M: int = 256
    gamma: float = 1.0

    def __post_init__(self):
        if self.M < 16:
            raise GeometryError("grid needs M >= 16")
        if not self.gamma >= 1.0:
            raise GeometryError("grading exponent gamma must be >= 1")

    def nodes(self, x_max: float) -> np.ndarray:
        s = (np.arange(self.M + 1) + 1.0) / (self.M + 2.0)
        sg = s**self.gamma
        den = sg + (1.0 - s) ** self.gamma
        if not np.all(den > 0.0):   # checked before the map divides by it
            bad = int(np.argmax(den <= 0.0))
            raise GeometryError(f"grading exponent gamma = {self.gamma:g} is too steep for "
                                f"M = {self.M}: both powers underflow to 0 at node {bad}")
        return x_max * sg / den


@dataclass
class DiscretizedManifold:
    """Grid, measure and background curvature of one model manifold.

    All arrays live on the homothetically rescaled manifold with unit total
    volume.  ``mu_weights`` are the per-node quadrature weights of the
    background measure, ``face_weights`` the values ``omega_{n-1}
    phi^{n-1}`` at the midpoints between nodes (used by the conservative
    flux stencil), and ``S0`` the background scalar curvature.  Instances
    are immutable by convention after construction and safe to share across
    concurrent runs.
    """

    profile: WarpedProfile
    grid: RadialGrid
    n: int
    nodes: np.ndarray
    x_max: float
    face_h: np.ndarray
    face_weights: np.ndarray
    mu_weights: np.ndarray
    S0: np.ndarray
    scale: float
    raw_volume: float

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @property
    def h_max(self) -> float:
        return float(self.face_h.max())

    @functools.cached_property
    def conductance(self) -> np.ndarray:
        """Face conductances ``face_weights / face_h`` of the flux stencil."""
        return self.face_weights / self.face_h

    @functools.cached_property
    def mu_S0(self) -> np.ndarray:
        """``mu_weights * S0``, the background curvature as a measure."""
        return self.mu_weights * self.S0

    @functools.cached_property
    def laplacian_bands(self):
        """The Laplacian as a tridiagonal operator, built on first use."""
        from .discretization import TridiagonalOperator   # imports this module

        return TridiagonalOperator.laplacian(self)

    @functools.cached_property
    def hypotheses(self) -> dict:
        """Name -> :class:`AuditCheck` of every ``HYPOTHESES`` entry, in table order."""
        return {name: AuditCheck(name, *pred(self)) for name, pred in HYPOTHESES.items()}

    def spec_string(self) -> str:
        return f"{self.profile.spec_string()}|M={self.grid.M}|gamma={self.grid.gamma:.17g}"

    def cone_coefficients(self) -> list:
        """Leading 1/x^2 curvature coefficients at vanishing tips.

        Returns (tip, coefficient) pairs; the coefficient vanishes for
        smooth poles and unit-slope cones, where S0 stays bounded.
        """
        out = []
        nn = self.n
        for tip in (self.profile.tip_left, self.profile.tip_right):
            if tip.vanishes:
                a = tip.effective_slope
                out.append((tip, (nn - 1) * (nn - 2) * (1.0 - a * a) / (a * a)))
        return out


def _scal0(profile: WarpedProfile, x: np.ndarray, c: float) -> np.ndarray:
    """Background scalar curvature at the raw abscissae x, scaled by c^-2.

    Uses the warped-product identity
    ``S0 = -2(n-1) phi''/phi + (n-1)(n-2)(1 - phi'^2)/phi^2``
    evaluated on the unscaled profile, then rescaled by the inverse square
    of the normalization homothety c.
    """
    n = profile.n
    ph = profile.phi_at(x)
    d1 = profile.dphi_at(x)
    d2 = profile.d2phi_at(x)
    raw = -2.0 * (n - 1) * d2 / ph + (n - 1) * (n - 2) * (1.0 - d1 * d1) / (ph * ph)
    s0 = raw / (c * c)
    if not np.all(np.isfinite(s0)):
        bad = int(np.argmax(~np.isfinite(s0)))
        raise ConstructionError(f"non-finite curvature at node {bad} (x={x[bad]:.6g})")
    return s0


def build_manifold(profile: WarpedProfile, grid: RadialGrid) -> DiscretizedManifold:
    """Assemble the discrete manifold and normalize its volume to one.

    Quadrature is the composite trapezoidal rule on the graded nodes,
    extended by the two tip slivers (with ``phi = 0`` at vanishing tips).
    The homothety ``g -> c^2 g`` with ``c = V^{-1/n}`` makes the total
    volume exactly one; S0 picks up the factor ``c^{-2}``.
    """
    n = profile.n
    omega = unit_sphere_area(n)
    x = grid.nodes(profile.x_max)
    ph = profile.phi_at(x)
    if not np.all(np.isfinite(ph)):
        bad = int(np.argmax(~np.isfinite(ph)))
        raise ConstructionError(f"phi not finite at node {bad} (x={x[bad]:.6g})")
    if not np.all(ph > 0.0):
        bad = int(np.argmax(ph <= 0.0))
        raise ConstructionError(
            f"phi must be positive: phi({x[bad]:.6g}) = {ph[bad]:.6g} at node {bad}"
        )

    # trapezoid over [0, x_max] with the tips appended as extra endpoints;
    # open ends extend phi constantly over their (thin) boundary sliver
    phi_left = 0.0 if profile.tip_left.vanishes else float(ph[0])
    phi_right = (
        0.0
        if profile.tip_right.vanishes
        else float(profile.phi_at(np.array([profile.x_max]))[0])
    )
    xe = np.concatenate(([0.0], x, [profile.x_max]))
    we = omega * np.concatenate(([phi_left], ph, [phi_right])) ** (n - 1)
    h = np.diff(xe)
    acc = np.zeros(xe.size)
    acc[:-1] += 0.5 * h * we[:-1]
    acc[1:] += 0.5 * h * we[1:]
    mu = acc[1:-1].copy()
    mu[0] += acc[0]
    mu[-1] += acc[-1]

    raw_volume = float(mu.sum())
    if not (raw_volume > 0.0 and math.isfinite(raw_volume)):
        raise ConstructionError(f"degenerate volume {raw_volume}")
    c = raw_volume ** (-1.0 / n)

    mu = mu / raw_volume
    mu = mu / mu.sum()  # second pass kills the last ulps of drift
    # checked before anything divides by the grid: the stencil divides by both, and S0
    # by phi^2, which is 0 only where phi^(n-1) is. Nodes that coincide in float64 (a
    # steep grading) leave the face after a node zero width, and phi^(n-1) underflowing
    # near a tip a zero weight
    face_h = c * np.diff(x)
    for what, values in (("width of the face after", face_h), ("weight at", mu)):
        if not np.all(values > 0.0):
            bad = int(np.argmax(values <= 0.0))
            raise ConstructionError(f"zero {what} node {bad} (x={x[bad]:.6g})")

    xm = 0.5 * (x[:-1] + x[1:])
    phi_faces = profile.phi_at(xm)
    s0 = _scal0(profile, x, c)
    return DiscretizedManifold(
        profile=profile,
        grid=grid,
        n=n,
        nodes=c * x,
        x_max=c * profile.x_max,
        face_h=face_h,
        face_weights=omega * (c * phi_faces) ** (n - 1),
        mu_weights=mu,
        S0=s0,
        scale=c,
        raw_volume=raw_volume,
    )


# ---------------------------------------------------------------------------
# the paper's hypotheses and their audit


def lq_exponent(n: int) -> float:
    """The exponent ``q = n^2/(2(n-2))`` of the paper's hypothesis ``S0 in L^q``."""
    return n * n / (2.0 * (n - 2.0))


def _divergent_tips(manifold: DiscretizedManifold) -> list:
    """Tips where ``|S0|^q ~ x^(-2q)`` is not integrable against ``x^(n-1)``."""
    # that is every tip with a nonzero coefficient: 2q = n^2/(n-2) > n for n >= 3
    return [tip for tip, coeff in manifold.cone_coefficients() if abs(coeff) > 0.0]


def _s0_lq_finite(manifold: DiscretizedManifold):
    from .discretization import lp_norm   # imports this module

    lq_val = lp_norm(manifold.S0, lq_exponent(manifold.n), manifold.mu_weights)
    ok = not _divergent_tips(manifold)
    return ok, lq_val, f"quadrature value {lq_val:.6g}" + ("" if ok else " (divergent at tip)")


def _sup_verdict(values: np.ndarray, ok: bool, label: str, failure: str):
    worst = float(values.max())
    return ok, worst, f"{label} = {worst:.6g}" + ("" if ok else f" (unbounded: {failure})")


# hypothesis name -> predicate (manifold) -> (holds, value, reason).  Each
# verdict follows from the tips' leading 1/x^2 curvature coefficients
# (n-1)(n-2)(1-a^2)/a^2, so refinement cannot change it; the value is measured
# on this grid.  S0 is unbounded unless every coefficient vanishes, (S0)_-
# when one is negative (a cone of slope a > 1).
HYPOTHESES = {
    "finite_volume": lambda m: (True, 1.0, "total volume normalized to 1"),
    "s0_lq_finite": _s0_lq_finite,
    "s0_minus_bounded": lambda m: _sup_verdict(
        np.maximum(-m.S0, 0.0), all(c >= 0.0 for _, c in m.cone_coefficients()),
        "max (S0)_- over nodes", "cone slope > 1"),
    "s0_bounded": lambda m: _sup_verdict(
        np.abs(m.S0), all(c == 0.0 for _, c in m.cone_coefficients()),
        "max |S0| over nodes", "cone slope != 1"),
}


@dataclass
class AuditCheck:
    """Verdict of one hypothesis: whether it holds, its value and the reason."""

    name: str
    passed: bool
    value: float
    detail: str


@dataclass
class AuditReport:
    """Verdicts on the paper's hypotheses.

    The audit annotates; it never blocks a simulation.  ``ok`` is False if
    any check failed, and ``warnings`` collects the refinement-divergence
    notes for singular tips.
    """

    q: float
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [f"assumption audit (q = {self.q:g})"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


def audit_assumptions(manifold: DiscretizedManifold) -> AuditReport:
    """The manifold's ``hypotheses`` as a report: one check per hypothesis, in order.

    The exponent is ``q = lq_exponent(n)``.  The tips' leading curvature
    coefficients decide each verdict (see ``HYPOTHESES``), with the value
    on this grid reported for context; each tip where the L^q integral
    diverges under refinement adds a warning.
    """
    n, q = manifold.n, lq_exponent(manifold.n)
    report = AuditReport(q=q, checks=list(manifold.hypotheses.values()))
    for tip in _divergent_tips(manifold):
        report.warnings.append(
            f"{tip.describe()} tip: |S0|^q ~ x^(-2q) against weight x^(n-1); "
            f"exponent n-1-2q = {n - 1 - 2 * q:g} <= -1, so the L^{q:g} "
            "integral diverges under refinement"
        )
    return report


# ---------------------------------------------------------------------------
# profile gallery


def sphere(n: int = 3) -> WarpedProfile:
    """Round sphere S^n: phi = sin(x) on (0, pi)."""
    return WarpedProfile(
        name="sphere",
        n=n,
        x_max=math.pi,
        phi=np.sin,
        dphi=np.cos,
        d2phi=lambda x: -np.sin(x),
        tip_left=SMOOTH_POLE,
        tip_right=SMOOTH_POLE,
    )


def perturbed_sphere(eps: float, n: int = 3) -> WarpedProfile:
    """Sphere with warping perturbation phi = sin(x) (1 + eps sin^2 x).

    The perturbation preserves both smooth poles.  Small eps keeps S0
    positive; around eps = 0.2 (n = 3) the curvature takes both signs,
    which makes this the stock mixed-sign scenario.
    """
    if not abs(eps) < 1.0:
        raise GeometryError("perturbation eps must satisfy |eps| < 1")

    def phi(x):
        return np.sin(x) * (1.0 + eps * np.sin(x) ** 2)

    def dphi(x):
        return np.cos(x) * (1.0 + 3.0 * eps * np.sin(x) ** 2)

    def d2phi(x):
        return -np.sin(x) * (1.0 + 3.0 * eps * np.sin(x) ** 2) + 6.0 * eps * np.sin(
            x
        ) * np.cos(x) ** 2

    return WarpedProfile(
        name="perturbed_sphere",
        n=n,
        x_max=math.pi,
        phi=phi,
        dphi=dphi,
        d2phi=d2phi,
        params=(float(eps),),
    )


def cone(a: float, n: int = 3, x_max: float = 1.0) -> WarpedProfile:
    """Straight cone phi = a x on (0, x_max] with an open outer wall."""
    if not a > 0.0:
        raise GeometryError("cone slope must be positive")
    return WarpedProfile(
        name="cone",
        n=n,
        x_max=x_max,
        phi=lambda x: a * np.asarray(x, dtype=float),
        dphi=lambda x: np.full_like(np.asarray(x, dtype=float), a),
        d2phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        tip_left=cone_tip(a),
        tip_right=OPEN_END,
        params=(float(a),),
    )


def capped_cone(a: float, cap_radius: float, n: int = 3) -> WarpedProfile:
    """Cone of slope a closed off by a round spherical cap.

    The cap is a radius-``cap_radius`` sphere patch glued C^1 to the cone
    where the sphere's slope equals ``a``; the far end is then a smooth
    pole, so the space is compact with a single cone point.  Curvature
    jumps at the junction but stays bounded.  Requires ``a < 1``.
    """
    if not (0.0 < a < 1.0):
        raise GeometryError("capped cone needs slope 0 < a < 1")
    if not cap_radius > 0.0:
        raise GeometryError("cap radius must be positive")
    R = float(cap_radius)
    theta_j = math.acos(-a)          # cap colatitude at the junction
    x_join = R * math.sin(theta_j) / a
    x_max = x_join + R * theta_j

    def theta(x):
        return (x_max - np.asarray(x, dtype=float)) / R

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= x_join, a * x, R * np.sin(theta(x)))

    def dphi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= x_join, a, -np.cos(theta(x)))

    def d2phi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= x_join, 0.0, -np.sin(theta(x)) / R)

    return WarpedProfile(
        name="capped_cone",
        n=n,
        x_max=x_max,
        phi=phi,
        dphi=dphi,
        d2phi=d2phi,
        tip_left=cone_tip(a),
        tip_right=SMOOTH_POLE,
        params=(float(a), R),
    )


def tabulated(path: str, n: int = 3) -> WarpedProfile:
    """Profile read from a two-column text file of (x, phi) samples.

    Lines starting with '#' are comments.  Values are interpolated with a
    cubic spline; derivatives come from the standard fourth-order stencil
    on the interpolant.  The tips are classified by extrapolating
    phi/d toward each end: slope within 5% of 1 reads as a smooth pole,
    other vanishing behaviour as a cone, non-vanishing phi as open.
    """
    from scipy.interpolate import CubicSpline

    xs, ps = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:            # a ValueError unless the line is two numbers
                x, phi = map(float, body.split())
                if not (math.isfinite(x) and math.isfinite(phi)):
                    raise ValueError
            except ValueError:
                raise ConstructionError(
                    f"{path}:{lineno}: expected two finite numbers, got {body!r}") from None
            xs.append(x)
            ps.append(phi)
    if len(xs) < 8:
        raise ConstructionError(f"{path}: need at least 8 samples")
    xs_a = np.asarray(xs)
    ps_a = np.asarray(ps)
    order = np.argsort(xs_a)
    xs_a, ps_a = xs_a[order], ps_a[order]
    if np.any(np.diff(xs_a) <= 0.0):
        raise ConstructionError(f"{path}: sample abscissae must be strictly increasing")
    x_max = float(xs_a[-1])
    spline = CubicSpline(xs_a, ps_a, extrapolate=True)

    def classify(x_probe: float, dist: float) -> Tip:
        val = float(spline(x_probe))
        slope = val / dist
        if val > 0.05 * float(ps_a.max()):
            return OPEN_END
        if abs(slope - 1.0) <= 0.05:
            return SMOOTH_POLE
        return cone_tip(max(slope, 1e-8))

    probe = xs_a[0] if xs_a[0] > 0 else xs_a[1]
    tip_left = classify(probe, float(probe))
    d = max(x_max - float(xs_a[-2]), 1e-12)
    tip_right = classify(float(xs_a[-2]), d) if ps_a[-1] <= 0 else OPEN_END

    import hashlib

    digest = hashlib.sha256(np.ascontiguousarray(np.stack([xs_a, ps_a])).tobytes()).hexdigest()[:16]
    return WarpedProfile(
        name="tabulated",
        n=n,
        x_max=x_max,
        phi=lambda x: np.asarray(spline(np.asarray(x, dtype=float)), dtype=float),
        tip_left=tip_left,
        tip_right=tip_right,
        params=(digest,),
    )


_PROFILES = {f.__name__: f for f in (sphere, perturbed_sphere, cone, capped_cone, tabulated)}


def make_profile(name: str, **params) -> WarpedProfile:
    """The profile function ``name`` (a config file's profile.name) called with ``params``.

    ``params`` are checked against the function's signature first, so an
    unknown or a missing parameter is a GeometryError.
    """
    try:
        factory = _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise GeometryError(f"unknown profile {name!r} (known: {known})") from None
    takes = inspect.signature(factory).parameters
    for key in params:
        if key not in takes:
            raise GeometryError(f"profile {name!r} takes no parameter {key!r} "
                                f"(it takes {', '.join(takes)})")
    for key, param in takes.items():
        if param.default is param.empty and key not in params:
            raise GeometryError(f"profile {name!r} needs parameter {key!r}")
    return factory(**params)
