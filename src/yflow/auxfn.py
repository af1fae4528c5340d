"""Piecewise auxiliary-function families and their inequality catalogue.

The base family switches from a pure power to its tangent line at ``x = L``:

    phi(x) = x^beta            for x <= L, linear beyond (C^1 match),
    G      = int_0^x phi'(y)^2 dy,
    H      = int_0^x G(y) dy,

with companions ``f`` (power capped by a linear branch), ``F = (x f)^{1/(2
beta+1)}``, and a "tilde" variant whose outer branch grows like ``x^nu``
instead of linearly.  All branch antiderivatives are hard-coded closed
forms, so inequality verdicts carry no quadrature noise.  Each family
evaluates only the branches its points take (``_piecewise``).

Every inequality in the catalogue is jointly homogeneous under
``(x, L) -> (lambda x, lambda L)``, so checks are evaluated at the
scale-reduced point ``(x, L)/max(x, L)``.  That keeps verdicts exact over
the full sampler ranges without floating-point overflow; reported sides
are the scale-reduced values.  The sides see the points with x <= L and
the rest apart, so that every family there takes one branch.

The located constants of I9 (C1, C2) and I11 (C4) and the region gate of I8
are suprema over s = x/L, each in closed form: the ratios of I9 and I11 peak
at the branch point, and I8's lhs where its derivative, affine in
s^{2 nu - 1}, vanishes.  Each carries a stated allowance for the rounding of
the computed sides.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, Optional

import numpy as np

__all__ = [
    "AuxParams",
    "RegionError",
    "Violation",
    "CatalogueRow",
    "DEFAULT_SEED",
    "check_inequality",
    "find_counterexample",
    "run_catalogue",
    "catalogue_ids",
    "locate_tilde_constants",
    "locate_chain_constant",
]

# seed tag "YF01" as big-endian bytes
DEFAULT_SEED = 0x59463031

_REL_TOL = 1e-12

_CHUNK = 20_000     # samples a scan draws and checks per vectorized block


class RegionError(ValueError):
    """Parameters outside an inequality's validity region."""


@dataclass(frozen=True)
class AuxParams:
    beta: float
    L: float
    nu: float = 1.0
    n: int = 3

    def __post_init__(self):
        if not self.beta >= 1.0:
            raise ValueError(f"beta must be >= 1 (got {self.beta})")
        if not self.L > 0.0:
            raise ValueError(f"L must be positive (got {self.L})")
        if not (0.0 < self.nu <= 1.0) or self.nu == 0.5:
            raise ValueError(f"nu must lie in (0, 1] and differ from 1/2 (got {self.nu})")
        if int(self.n) != self.n or self.n < 3:
            raise ValueError(f"dimension n must be an integer >= 3 (got {self.n})")


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("arguments x must be non-negative")
    return x


def _piecewise(x, L, inner, outer):
    """``np.where(x <= L, inner(), outer())`` bit for bit, calling only the branches taken.

    Each inner branch powers ``np.minimum(x, L)``, which keeps it finite where np.where drops it.
    """
    take = np.less_equal(x, L)
    if take.all():
        value = inner()
    elif not take.any():
        value = outer()
    else:
        return np.where(take, inner(), outer())
    if np.shape(value) != take.shape:   # np.where's shape, for a branch without x (tf's outer)
        value = np.full(np.broadcast_shapes(take.shape, np.shape(value)), value)
    return value


# --- base family -----------------------------------------------------------


def _phi(b, L, x):
    return _piecewise(x, L, lambda: np.minimum(x, L) ** b,
                      lambda: b * L ** (b - 1.0) * (x - L) + L**b)


def _G(b, L, x):
    return _piecewise(
        x, L, lambda: b * b / (2.0 * b - 1.0) * np.minimum(x, L) ** (2.0 * b - 1.0),
        lambda: b * b * L ** (2.0 * (b - 1.0)) * x
        - 2.0 * b * b * L ** (2.0 * b - 1.0) * (b - 1.0) / (2.0 * b - 1.0))


def _H(b, L, x):
    return _piecewise(
        x, L, lambda: b / (2.0 * (2.0 * b - 1.0)) * np.minimum(x, L) ** (2.0 * b),
        lambda: 0.5 * b * b * L ** (2.0 * (b - 1.0)) * (x * x - L * L)
        - 2.0 * b * b * L ** (2.0 * b - 1.0) * (b - 1.0) / (2.0 * b - 1.0) * (x - L)
        + b * L ** (2.0 * b) / (2.0 * (2.0 * b - 1.0)))


def _f(b, L, n, x):
    return _piecewise(x, L, lambda: b * np.minimum(x, L) ** (2.0 * b),
                      lambda: n * b * b * L ** (2.0 * b - 1.0) * x)


def _F(b, L, n, x):
    return (x * _f(b, L, n, x)) ** (1.0 / (2.0 * b + 1.0))


# --- tilde family ----------------------------------------------------------


def _C_coeff(b, nu):
    return (
        b
        * (b * (2.0 * b - 1.0) + 4.0 * nu * b * (nu - b) + nu * (1.0 - 2.0 * nu))
        / (2.0 * nu * (2.0 * b - 1.0) * (2.0 * nu - 1.0))
    )


def _tphi(b, L, nu, x):
    # increment form anchored at the junction: algebraically equal to
    # (b/nu) L^{b-nu} x^nu + L^b (1 - b/nu) but free of the ~b/nu
    # cancellation near x = L
    return _piecewise(x, L, lambda: np.minimum(x, L) ** b,
                      lambda: L**b + b / nu * L ** (b - nu) * (x**nu - L**nu))


def _tG(b, L, nu, x):
    return _piecewise(
        x, L, lambda: b * b / (2.0 * b - 1.0) * np.minimum(x, L) ** (2.0 * b - 1.0),
        lambda: b * b * L ** (2.0 * b - 1.0) / (2.0 * b - 1.0) + b * b * L ** (2.0 * (b - nu))
        * (x ** (2.0 * nu - 1.0) - L ** (2.0 * nu - 1.0)) / (2.0 * nu - 1.0))


def _tH(b, L, nu, x):
    def inner():
        return b / (2.0 * (2.0 * b - 1.0)) * np.minimum(x, L) ** (2.0 * b)

    def outer():
        # junction value plus the integral of the outer tG branch
        k_lin = (
            2.0 * b * b * L ** (2.0 * b - 1.0) * (b - nu)
            / ((2.0 * nu - 1.0) * (2.0 * b - 1.0))
        )
        return (
            b * L ** (2.0 * b) / (2.0 * (2.0 * b - 1.0))
            + b * b * L ** (2.0 * (b - nu)) * (x ** (2.0 * nu) - L ** (2.0 * nu))
            / (2.0 * nu * (2.0 * nu - 1.0))
            - k_lin * (x - L)
        )
    return _piecewise(x, L, inner, outer)


def _tf(b, L, nu, n, x):
    return _piecewise(x, L, lambda: b * np.minimum(x, L) ** (2.0 * b),
                      lambda: 0.5 * n * np.abs(_C_coeff(b, nu)) * L ** (2.0 * b))


def _tF(b, L, nu, n, x):
    return (x * _tf(b, L, nu, n, x)) ** (1.0 / (2.0 * b + 1.0))


# ---------------------------------------------------------------------------
# located constants for the tilde comparisons
#
# Each constant is the supremum of a ratio that depends on (x, L) only through
# s = x/L, so L = 1 is general.  The outer branches obey tH' = tG, tG' = tphi'^2
# and tphi'' = beta (nu - 1) s^{nu-2} <= 0, and the suprema follow in closed form.

# C1 and C2 are their suprema times 1 + _ROUNDING_ULPS u (1 + beta (2 beta - 1)/(nu
# |2 nu - 1|)), u the unit roundoff: over 6000 draws the ratios computed near the
# junction exceeded their suprema by at most 3 u (1 + ...)
_UNIT_ROUNDOFF = 2.0**-53
_ROUNDING_ULPS = 16.0
# C4's relative margin over its supremum, wider than that bound at nu = beta/(2 beta + 1)
# (below 2e-9 for beta <= 50)
_C4_MARGIN = 1.0 + 1e-4


def locate_tilde_constants(beta: float, nu: float, n: int):
    """Constants (C1, C2) with C1 tH >= tphi^2 and C2 tH >= x tG for all x.

    On the inner branch the ratios are the constants c1 = 2 (2 beta - 1)/beta
    and c2 = 2 beta.  On the outer branch E = c1 tH - tphi^2 and
    D = c2 tH - s tG vanish at s = 1 with their first derivatives, and
    E'' = (c1 - 2) tphi'^2 - 2 tphi tphi'' >= 0 and
    D'' = 2 beta^2 (beta - nu) s^{2 nu - 2} >= 0, so both ratios fall past L:
    c1 and c2 are the suprema.  Each is returned times
    1 + 16 u (1 + beta (2 beta - 1)/(nu |2 nu - 1|)), u the unit roundoff,
    which bounds the rounding of the computed ratios near the junction, where
    they peak.  ``n`` does not enter.
    """
    # near the junction the outer branches add powers of s scaled by up to
    # beta^2/(nu |2 nu - 1|) to tH(L) = beta/(2 (2 beta - 1)), so one rounding of a
    # power moves the computed ratios by about u beta (2 beta - 1)/(nu |2 nu - 1|)
    margin = 1.0 + _ROUNDING_ULPS * _UNIT_ROUNDOFF * (
        1.0 + beta * (2.0 * beta - 1.0) / (nu * abs(2.0 * nu - 1.0)))
    return 2.0 * (2.0 * beta - 1.0) / beta * margin, 2.0 * beta * margin


def locate_chain_constant(beta: float, n: int) -> float:
    """C4 with C4 tH >= tF^{2 beta} for all x, at nu = beta/(2 beta + 1).

    On the inner branch the ratio is 2 (2 beta - 1) beta^{2 nu - 1}.  tF jumps
    up at x = L, and past it tF^{2 beta} = (s tf)^{2 nu} with tf constant,
    while s tG >= tH (tH is the integral of the nondecreasing tG): the
    logarithmic derivative 2 nu/s - tG/tH is negative, so the ratio falls
    from its x -> L+ limit, the jump.  C4 is the larger of the two times
    ``_C4_MARGIN``.
    """
    nu = beta / (2.0 * beta + 1.0)
    inner = 2.0 * (2.0 * beta - 1.0) * beta ** (2.0 * nu - 1.0)
    jump = (0.5 * n * abs(_C_coeff(beta, nu))) ** (2.0 * nu) * 2.0 * (
        2.0 * beta - 1.0
    ) / beta
    return max(inner, jump) * _C4_MARGIN


def _chain_c3(beta, nu, n):
    # sharp comparison constant for tF^beta <= phi~/C3; the max's second
    # element always dominates the first for n >= 3
    return 1.0 / np.maximum(
        beta**nu, (0.5 * n * np.abs(_C_coeff(beta, nu))) ** nu
    )


# ---------------------------------------------------------------------------
# inequality catalogue


@dataclass(frozen=True)
class Violation:
    ineq_id: str
    params: AuxParams
    x: float
    lhs: float
    rhs: float


@dataclass
class CatalogueRow:
    ineq_id: str
    samples: int
    violations: int
    worst_margin: float
    first_violation: Optional[Violation] = None


@dataclass(frozen=True)
class _Inequality:
    ineq_id: str
    summary: str
    region: Callable          # (beta, L, nu, n) -> error string or None
    sides: Callable           # arrays (beta, L, nu, n, x, *constants) -> (lhs, rhs)
    sample: Callable          # (rng, size) -> (beta, L, nu, n, x) in-region
    sample_outside: Optional[Callable] = None
    constants: Callable = lambda b, nu, n: ()    # (beta, nu, n) -> located-constant columns


def _region_all(b, L, nu, n):
    return None


def _region_I2(b, L, nu, n):
    if n < 4:
        return f"I2 requires n >= 4 (got n={n})"
    if abs(b - n / 4.0) > 1e-12 * max(1.0, b):
        return f"I2 requires beta = n/4 (got beta={b}, n/4={n / 4.0})"
    return None


def _region_I4(b, L, nu, n):
    if n < 4:
        return f"I4 requires n >= 4 (got n={n})"
    return None


def _i6_gap(b, n):
    # F jumps up by a factor ~(n beta)^{2 beta/(2 beta+1)} at x = L while H
    # stays continuous, so the ratio F^{2 beta}/(4 n beta H) peaks exactly at
    # x -> L+ (H' = G is increasing and H <= x G keep it falling beyond).
    # The comparison therefore holds iff ((2b-1)/2)^{2b+1} <= n b^2.
    return (2.0 * b + 1.0) * np.log((2.0 * b - 1.0) / 2.0) - np.log(n * b * b)


@lru_cache(maxsize=64)
def i6_beta_max(n: int) -> float:
    """Largest beta for which the level-H comparison I6 holds for all x."""
    lo, hi = 1.0, 60.0
    if _i6_gap(hi, n) < 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _i6_gap(mid, n) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _region_I6(b, L, nu, n):
    if _i6_gap(b, n) > 1e-12:
        return (
            f"I6 requires ((2b-1)/2)^(2b+1) <= n b^2, i.e. beta <= "
            f"{i6_beta_max(int(n)):.6g} at n={n} (got beta={b})"
        )
    return None


def _region_tilde(b, L, nu, n):
    if nu > n / 4.0:
        return f"tilde family requires nu <= n/4 (got nu={nu}, n={n})"
    return None


# I8's relative margin must stay below this, as the gate's guard against rounding
_I8_THRESHOLD = -1e-9


def _i8_sup_margin(b, nu, n):
    """The supremum over x of I8's relative margin (lhs - rhs)/max(|lhs|, |rhs|), for
    nu < 1/2 <= n/4 <= beta; elementwise over arrays.

    The claim is scale invariant, so L = 1.  The inner branch's margin is
    (beta - n/4)/(2 beta - 1) - 1 <= -1/2.  On the outer branch rhs = tf is
    constant and q = s tG - (n/2) tH is concave, q'' = beta^2 s^{2 nu - 2}
    (2 nu - n/2) < 0, while q' = (1 - n/2) tG + beta^2 t is affine in
    t = s^{2 nu - 1}.  So q peaks at the root t* = 2 a (beta - nu)/((2 beta - 1)
    (a + 2 nu - 1)), a = 1 - n/2, or at x -> L+ when t* >= 1.  The margin rises
    with q wherever it exceeds -1, so the margin there is the supremum whenever
    the gate can refuse.  Its rounding, at most 2.3e-14 over 3000 sampler draws
    against a 40-digit evaluation, is far inside the gate's 1e-9 guard.
    """
    a = 1.0 - 0.5 * n
    t = np.minimum(2.0 * a * (b - nu) / ((2.0 * b - 1.0) * (a + 2.0 * nu - 1.0)), 1.0)
    # a nan or inf at extreme parameters fails the gate
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the least s > 1 stands for x -> L+, where the points take the outer branch
        s = np.maximum(t ** (1.0 / (2.0 * nu - 1.0)), np.nextafter(1.0, 2.0))
        lhs, rhs = _sides_I8(b, 1.0, nu, n, s)
        return (lhs - rhs) / np.maximum(1e-300, np.maximum(np.abs(lhs), np.abs(rhs)))


def i8_region_ok(beta: float, nu: float, n: int) -> bool:
    """Oracle gate for the tilde-family domination x tG - (n/2) tH <= tf.

    Admits (beta, nu, n) when the supremum over x of the relative margin,
    located in closed form (``_i8_sup_margin``), is at most -1e-9.  The
    admissible (beta, nu) set is genuinely curved: nu >= 1/2 flips the linear
    coefficient's sign against the constant outer branch of tf, and even
    below 1/2 large beta opens a mid-range band of failures.
    """
    return bool(_i8_sup_margin(beta, nu, n) <= _I8_THRESHOLD)


def _region_I8(b, L, nu, n):
    base = _region_tilde(b, L, nu, n)
    if base:
        return base
    if b < n / 4.0:
        return f"I8 requires beta >= n/4 (got beta={b}, n={n})"
    if nu >= 0.5:
        # for nu >= 1/2 the linear coefficient of x G~ - (n/2) H~ turns
        # positive while f~ stays constant past L, so the bound breaks on a
        # mid-range band
        return f"I8 requires nu < 1/2 (got nu={nu})"
    if not i8_region_ok(float(b), float(nu), int(n)):
        return (
            "I8 holds only on an oracle-located (beta, nu) set; "
            f"(beta={b}, nu={nu}, n={n}) lies outside it"
        )
    return None


def _region_pinned_nu(b, L, nu, n):
    want = b / (2.0 * b + 1.0)
    if abs(nu - want) > 1e-9 * max(1.0, want):
        return f"requires nu = beta/(2 beta + 1) = {want} (got nu={nu})"
    return None


# samplers: draw (beta, L, nu, n, x); evaluation is scale-reduced later
_BETA_RANGE = (1.0, 50.0)
_L_RANGE = (1e-3, 1e3)
_X_RANGE = (1e-6, 1e6)
_N_CHOICES = np.array([3, 4, 5, 6, 8, 10])


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _draw_common(rng, size, n_choices=_N_CHOICES):
    b = _log_uniform(rng, *_BETA_RANGE, size)
    L = _log_uniform(rng, *_L_RANGE, size)
    x = _log_uniform(rng, *_X_RANGE, size)
    n = rng.choice(n_choices, size=size)
    return b, L, x, n


def _sample_plain(rng, size):
    b, L, x, n = _draw_common(rng, size)
    nu = np.ones(size)
    return b, L, nu, n, x


def _sample_I2(rng, size):
    n = rng.choice(np.array([4, 5, 6, 8, 10, 12]), size=size)
    b = n / 4.0
    L = _log_uniform(rng, *_L_RANGE, size)
    x = _log_uniform(rng, *_X_RANGE, size)
    return b, L, np.ones(size), n, x


def _sample_I2_outside(rng, size):
    # beta strictly above n/4: the inner branch turns positive
    n = rng.choice(np.array([4, 5, 6, 8, 10, 12]), size=size)
    b = n / 4.0 * (1.0 + _log_uniform(rng, 0.05, 2.0, size))
    L = _log_uniform(rng, *_L_RANGE, size)
    x = _log_uniform(rng, *_X_RANGE, size)
    return b, L, np.ones(size), n, x


def _sample_I4(rng, size):
    b, L, x, _ = _draw_common(rng, size)
    n = rng.choice(np.array([4, 5, 6, 8, 10]), size=size)
    return b, L, np.ones(size), n, x


def _sample_I4_outside(rng, size):
    # the excluded dimension: the outer branch grows quadratically past f
    b, L, x, _ = _draw_common(rng, size)
    n = np.full(size, 3)
    return b, L, np.ones(size), n, x


def _sample_I6(rng, size):
    n = rng.choice(_N_CHOICES, size=size)
    caps = np.array([i6_beta_max(int(v)) for v in _N_CHOICES])
    b_max = caps[np.searchsorted(_N_CHOICES, n)]
    frac = rng.uniform(0.0, 1.0, size)
    b = np.exp(frac * np.log(b_max * (1.0 - 1e-9)))
    L = _log_uniform(rng, *_L_RANGE, size)
    x = _log_uniform(rng, *_X_RANGE, size)
    return b, L, np.ones(size), n, x


def _sample_I6_outside(rng, size):
    # just past the beta ceiling, probing near the branch point where the
    # ratio peaks
    n = rng.choice(_N_CHOICES, size=size)
    caps = np.array([i6_beta_max(int(v)) for v in _N_CHOICES])
    b = caps[np.searchsorted(_N_CHOICES, n)] * (1.0 + _log_uniform(rng, 0.05, 2.0, size))
    L = _log_uniform(rng, *_L_RANGE, size)
    x = L * (1.0 + _log_uniform(rng, 1e-4, 1.0, size))
    return b, L, np.ones(size), n, x


def _draw_nu(rng, size, cap):
    nu = _log_uniform(rng, 1e-3, cap, size)
    # keep clear of the removable singularity at 1/2
    near_half = np.abs(nu - 0.5) < 1e-3
    nu[near_half] = 0.45
    return nu


def _tile_groups(rng, size, draw_group):
    # located-constant inequalities reuse each parameter triple for many x
    # samples, so the constants are located once per group
    groups = max(1, size // 512)
    cols = draw_group(groups)
    reps = -(-size // groups)
    return tuple(np.repeat(col, reps)[:size] for col in cols)


def _sample_tilde(rng, size):
    def draw(groups):
        b = _log_uniform(rng, *_BETA_RANGE, groups)
        n = rng.choice(_N_CHOICES, size=groups)
        nu = np.minimum(_draw_nu(rng, groups, 0.75), n / 4.0)
        return b, nu, n

    b, nu, n = _tile_groups(rng, size, draw)
    L = _log_uniform(rng, *_L_RANGE, size)
    x = _log_uniform(rng, *_X_RANGE, size)
    return b, L, nu, n, x


def _sample_I8(rng, size):
    # grouped draws with the region gate: shrink nu until the oracle admits
    # the pair (small nu is always admissible)
    def draw(groups):
        n = rng.choice(_N_CHOICES, size=groups)
        b = np.maximum(_log_uniform(rng, *_BETA_RANGE, groups), n / 4.0)
        nu = _log_uniform(rng, 1e-3, 0.49, groups)
        out = np.ones(groups, dtype=bool)
        while out.any():    # every refused group at once; draws nothing
            out[out] = ~(_i8_sup_margin(b[out], nu[out], n[out]) <= _I8_THRESHOLD)
            nu[out] *= 0.5
        return b, nu, n

    b, nu, n = _tile_groups(rng, size, draw)
    L = _log_uniform(rng, *_L_RANGE, size)
    x = _log_uniform(rng, *_X_RANGE, size)
    return b, L, nu, n, x


def _sample_pinned(rng, size):
    def draw(groups):
        b = _log_uniform(rng, *_BETA_RANGE, groups)
        n = rng.choice(_N_CHOICES, size=groups)
        return b, n

    b, n = _tile_groups(rng, size, draw)
    nu = b / (2.0 * b + 1.0)
    L = _log_uniform(rng, *_L_RANGE, size)
    x = _log_uniform(rng, *_X_RANGE, size)
    return b, L, nu, n, x


def _sample_I12(rng, size):
    b = np.ones(size)
    eps = _log_uniform(rng, *_L_RANGE, size)   # L doubles as epsilon
    x = _log_uniform(rng, *_X_RANGE, size)
    n = np.full(size, 3)
    return b, eps, np.ones(size), n, x


def _sample_limits(rng, size):
    b, L, x, n = _draw_common(rng, size)
    L = np.maximum(L, x)  # the limit regime: L >= x
    return b, L, np.ones(size), n, x


# sides: all return (lhs, rhs) meaning "lhs <= rhs"


def _sides_I1(b, L, nu, n, x):
    return _H(b, L, x), b * b * x ** (2.0 * b)


def _sides_I2(b, L, nu, n, x):
    return x * _G(b, L, x) - 0.5 * n * _H(b, L, x), np.zeros_like(x)


def _sides_I3(b, L, nu, n, x):
    h = _H(b, L, x)
    lhs = np.maximum(_phi(b, L, x) ** 2 - 12.0 * b * h, x * _G(b, L, x) - 4.0 * b * h)
    return lhs, np.zeros_like(x)


def _sides_I4(b, L, nu, n, x):
    return x * _G(b, L, x) - 0.5 * n * _H(b, L, x), _f(b, L, n, x)


def _sides_I5(b, L, nu, n, x):
    return _F(b, L, n, x) ** b, n * b * _phi(b, L, x)


def _sides_I6(b, L, nu, n, x):
    return _F(b, L, n, x) ** (2.0 * b), 4.0 * n * b * _H(b, L, x)


def _sides_I7(b, L, nu, n, x):
    return x * _G(b, L, x), b * b / (2.0 * b - 1.0) * _phi(b, L, x) ** 2


def _sides_I8(b, L, nu, n, x):
    return x * _tG(b, L, nu, x) - 0.5 * n * _tH(b, L, nu, x), _tf(b, L, nu, n, x)


def _per_run(lookup, *cols):
    """``lookup`` once per run of equal consecutive parameter tuples, called
    with the run's Python scalars as a per-sample loop would; returns one
    array per lookup output, shaped like the broadcast columns.  The
    ``constants`` hooks of I9 and I11 call it on every sample of a block,
    before the block is split by branch (``_scale_reduced``)."""
    cols = np.broadcast_arrays(*cols)
    flat = [c.ravel() for c in cols]
    new = np.zeros(flat[0].size, dtype=bool)
    new[:1] = True
    for c in flat:
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    values = np.array([lookup(*args) for args in zip(*(c[starts].tolist() for c in flat))])
    reps = np.diff(starts, append=new.size)
    return tuple(np.repeat(v, reps).reshape(cols[0].shape)
                 for v in values.reshape(starts.size, -1).T)


def _sides_I9(b, L, nu, n, x, c1, c2):
    th = _tH(b, L, nu, x)
    lhs = np.maximum(
        _tphi(b, L, nu, x) ** 2 - c1 * th, x * _tG(b, L, nu, x) - c2 * th
    )
    return lhs, np.zeros_like(np.asarray(x, dtype=float))


def _sides_I10(b, L, nu, n, x):
    c3 = _chain_c3(b, nu, n)
    return c3 * _tF(b, L, nu, n, x) ** b, _tphi(b, L, nu, x)


def _sides_I11(b, L, nu, n, x, c4):
    return _tF(b, L, nu, n, x) ** (2.0 * b), c4 * _tH(b, L, nu, x)


def _sides_I12(b, eps, nu, n, x):
    root = np.sqrt(x * x + eps * eps)
    d1 = x / root
    d2 = eps * eps / root**3
    psi = root - eps
    # the surrogate-convergence defect is normalized by its own scale so
    # sqrt rounding at x >> eps does not register as a violation
    conv = (np.abs(psi - x) - eps) / np.maximum(1.0, x)
    lhs = np.maximum.reduce([
        -d1,          # psi' >= 0
        d1 - 1.0,     # psi' <= 1
        -d2,          # psi'' >= 0
        conv,         # psi -> positive part as eps -> 0
    ])
    return lhs, np.zeros_like(np.asarray(x, dtype=float))


def _sides_I13(b, L, nu, n, x):
    lhs = 0.5 * n * _H(b, L, x) - x * _G(b, L, x) - 0.25 * (n - 2.0) * _phi(b, L, x) ** 2
    return lhs, np.zeros_like(np.asarray(x, dtype=float))


def _sides_limits(b, L, nu, n, x):
    # once L >= x both integrals sit on the inner branch: equality is exact
    g_lim = b * b / (2.0 * b - 1.0) * x ** (2.0 * b - 1.0)
    h_lim = b / (2.0 * (2.0 * b - 1.0)) * x ** (2.0 * b)
    lhs = np.maximum(np.abs(_G(b, L, x) - g_lim), np.abs(_H(b, L, x) - h_lim))
    return lhs, np.zeros_like(np.asarray(x, dtype=float))


CATALOGUE: Dict[str, _Inequality] = {}


def _register(ineq):
    CATALOGUE[ineq.ineq_id] = ineq


_register(_Inequality("I1", "H <= beta^2 x^{2 beta}", _region_all, _sides_I1, _sample_plain))
_register(_Inequality("I2", "x G - (n/2) H <= 0 at beta = n/4, n >= 4",
                      _region_I2, _sides_I2, _sample_I2, _sample_I2_outside))
_register(_Inequality("I3", "12 beta H >= phi^2 and 4 beta H >= x G",
                      _region_all, _sides_I3, _sample_plain))
_register(_Inequality("I4", "x G - (n/2) H <= f for n >= 4",
                      _region_I4, _sides_I4, _sample_I4, _sample_I4_outside))
_register(_Inequality("I5", "F^beta <= n beta phi", _region_all, _sides_I5, _sample_plain))
_register(_Inequality("I6", "F^{2 beta} <= 4 n beta H below the sharp beta ceiling",
                      _region_I6, _sides_I6, _sample_I6, _sample_I6_outside))
_register(_Inequality("I7", "x G <= beta^2/(2 beta - 1) phi^2",
                      _region_all, _sides_I7, _sample_plain))
_register(_Inequality("I8", "x G~ - (n/2) H~ <= f~ for nu <= n/4 <= beta",
                      _region_I8, _sides_I8, _sample_I8))
_register(_Inequality("I9", "C1 H~ >= phi~^2 and C2 H~ >= x G~ (located constants)",
                      _region_tilde, _sides_I9, _sample_tilde,
                      constants=lambda b, nu, n: _per_run(locate_tilde_constants, b.astype(float),
                                                          nu.astype(float), n.astype(int))))
_register(_Inequality("I10", "C3 F~^beta <= phi~ at nu = beta/(2 beta + 1)",
                      _region_pinned_nu, _sides_I10, _sample_pinned))
_register(_Inequality("I11", "F~^{2 beta} <= C4 H~ at nu = beta/(2 beta + 1)",
                      _region_pinned_nu, _sides_I11, _sample_pinned,
                      constants=lambda b, nu, n: _per_run(locate_chain_constant, b.astype(float),
                                                          n.astype(int))))
_register(_Inequality("I12", "psi_eps is a monotone convex positive-part surrogate",
                      _region_all, _sides_I12, _sample_I12))
_register(_Inequality("I13", "(n/2) H - x G - (n-2)/4 phi^2 <= 0",
                      _region_all, _sides_I13, _sample_plain))
_register(_Inequality("LIMITS", "G and H match their large-L power laws once L >= x",
                      _region_all, _sides_limits, _sample_limits))


def catalogue_ids():
    return list(CATALOGUE.keys())


def _scale_reduced(ineq, b, L, nu, n, x):
    """The sides at ``(x, L)/max(x, L)``, evaluated on the points with x <= L there
    and on the rest apart, so that each family takes one branch."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # unused where-branches may overflow harmlessly at extreme params
        if ineq.ineq_id == "I12":
            return ineq.sides(b, L, nu, n, x)    # psi checks are scale-safe and branch-free
        z = np.maximum(np.asarray(x, dtype=float), np.asarray(L, dtype=float))
        z = np.maximum(z, 1e-300)
        cols = np.broadcast_arrays(b, L / z, nu, n, x / z)
        shape, cols = cols[0].shape, [c.ravel() for c in cols]
        cols += ineq.constants(cols[0], cols[2], cols[3])   # looked up before the split
        inner = cols[4] <= cols[1]
        lhs, rhs = np.empty(inner.size), np.empty(inner.size)
        for part in (np.flatnonzero(inner), np.flatnonzero(~inner)):
            lhs[part], rhs[part] = ineq.sides(*(c[part] for c in cols))
    return lhs.reshape(shape), rhs.reshape(shape)


def _inequality(ineq_id: str) -> _Inequality:
    try:
        return CATALOGUE[ineq_id]
    except KeyError:
        known = ", ".join(CATALOGUE)
        raise ValueError(f"unknown inequality {ineq_id!r} (known: {known})") from None


def check_inequality(ineq_id: str, params: AuxParams, x) -> bool:
    """Evaluate one catalogue inequality at (params, x).

    Raises :class:`RegionError` (naming the violated precondition) when
    the parameters fall outside the inequality's validity region; the
    sharpness of those regions is probed through
    :func:`find_counterexample` instead.
    """
    ineq = _inequality(ineq_id)
    msg = ineq.region(params.beta, params.L, params.nu, params.n)
    if msg:
        raise RegionError(msg)
    x = _check_x(x)
    lhs, rhs = _scale_reduced(ineq, params.beta, params.L, params.nu, params.n, x)
    tol = _REL_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return bool(np.all(lhs <= rhs + tol))


def find_counterexample(
    ineq_id: str,
    sampler: Optional[Callable] = None,
    budget: int = 100_000,
    seed: int = DEFAULT_SEED,
    out_of_region: bool = False,
) -> Optional[Violation]:
    """Seeded randomized search for a violation; None when the budget passes.

    ``out_of_region=True`` switches to the inequality's sharpness sampler,
    which deliberately leaves the validity region (available for I2 and
    I4) and is expected to produce violations there.
    """
    row = _scan(ineq_id, sampler, budget, seed, out_of_region, stop_early=True)
    return row.first_violation


def run_catalogue(ids=None, samples: int = 100_000, seed: int = DEFAULT_SEED):
    """Exhaustively sample every requested inequality; returns table rows.

    Each scan draws from its own ``default_rng(seed)`` stream, so the rows do
    not depend on where the scans run.  When two or more workers (one per
    id, up to ``os.cpu_count()``) would each scan at least one ``_CHUNK``
    block, the scans run on a process pool; the rows come back in the order
    of ``ids``.
    """
    ids = list(ids or catalogue_ids())
    for ineq_id in ids:
        _inequality(ineq_id)    # an unknown id fails here, before any worker starts
    scan = partial(_scan, sampler=None, budget=samples, seed=seed, out_of_region=False,
                   stop_early=False)
    workers = min(len(ids), os.cpu_count() or 1)
    if workers < 2 or samples < _CHUNK:     # a pool would cost more than it saves
        return [scan(ineq_id) for ineq_id in ids]
    import concurrent.futures as cf     # imported here: a serial scan starts no pool

    with cf.ProcessPoolExecutor(workers) as pool:
        return list(pool.map(scan, ids))


def _scan(ineq_id, sampler, budget, seed, out_of_region, stop_early) -> CatalogueRow:
    ineq = _inequality(ineq_id)
    if sampler is None:
        sampler = ineq.sample_outside if out_of_region else ineq.sample
        if sampler is None:
            raise ValueError(f"{ineq_id} has no out-of-region sharpness sampler")
    rng = np.random.default_rng(seed)
    remaining = int(budget)
    worst = math.inf
    violations = 0
    first: Optional[Violation] = None
    while remaining > 0:
        size = min(_CHUNK, remaining)
        remaining -= size
        b, L, nu, n, x = sampler(rng, size)
        lhs, rhs = _scale_reduced(ineq, b, L, nu, n, x)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst = min(worst, float(((rhs - lhs) / scale).min()))
        bad = lhs > rhs + _REL_TOL * scale
        nbad = int(np.count_nonzero(bad))
        violations += nbad
        if nbad and first is None:
            i = int(np.argmax(bad))
            first = Violation(
                ineq_id=ineq_id,
                params=AuxParams(float(b[i]), float(L[i]), float(nu[i]), int(n[i])),
                x=float(x[i]),
                lhs=float(lhs[i]),
                rhs=float(rhs[i]),
            )
            if stop_early:
                break
    total = int(budget) - remaining
    return CatalogueRow(
        ineq_id=ineq_id,
        samples=total,
        violations=violations,
        worst_margin=worst,
        first_violation=first,
    )
