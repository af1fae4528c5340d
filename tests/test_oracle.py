"""Exact results that the discrete flow must reproduce under refinement.

Two-pole profiles.  A metric ``dx^2 + phi^2 g_{S^{n-1}}`` whose
``I(x) = int dx/phi`` covers all of R is conformally round: with
``tan(r/2) = e^{I(x)}``, the metric ``(sin r/phi)^2 g0`` is round, so the flow
ends at ``u_1 = (sin r/phi)^{(n-2)/2}`` on the unit-volume slice (the
x -> pi - x symmetry of ``perturbed_sphere`` fixes the axial dilation), with
``rho = Y(S^n)`` (Schwetlick-Struwe 2003).  The Yamabe estimate's minimizer is
the same factor.  Both errors fall 4x per grid doubling.

Cone tips.  Near a tip of slope a the flow's factor behaves like ``d^{g+}``
with the indicial root ``g+ = (n-2)/2 (1/a - 1)`` of ``S0 - kappa Lap``
(Mazzeo 1991), so the factor at the first node changes per grid doubling by
``(x0'/x0)^{g+}``.

Homotheties.  The metric ``c^2 (dx^2 + phi^2 g0)`` is the profile
``(x, phi) -> (c x, c phi)``, and construction normalizes the volume by a
homothety, so a rescaled profile builds the same manifold and runs the same
flow, up to rounding.
"""
import dataclasses
import math

import numpy as np
import pytest

from conftest import RHO_SPHERE
from yflow.discretization import critical_exponent, lp_norm
from yflow.flow import FlowConfig, run
from yflow.geometry import RadialGrid, build_manifold, cone, perturbed_sphere
from yflow.yamabe import estimate_yamabe_constant

GRIDS = (128, 256, 512)

# eps -> (gamma, T, dt_max); at dt_max = 1 the eps = -0.7 run is still 3.2e-3 from
# u_1 at T = 4 on every grid, so it takes the smaller step
TWO_POLE = {0.1: (2.0, 5.0, 1.0), 0.2: (2.0, 5.0, 1.0), -0.7: (1.0, 4.0, 1e-2)}

# eps -> bounds on max|u - u_1| and on |rho_T - Y(S^3)| at each of GRIDS, about 1.1x
# the errors measured (5.63e-5 / 1.43e-5 / 3.61e-6 and -5.94e-3 / -1.51e-3 / -3.80e-4
# at eps = 0.1; 1.36e-4 / 3.46e-5 / 8.72e-6 and -6.82e-3 / -1.73e-3 / -4.36e-4 at 0.2;
# 3.87e-4 / 9.81e-5 / 2.47e-5 and -9.10e-3 / -2.31e-3 / -5.82e-4 at -0.7)
U_BOUNDS = {0.1: (6.2e-5, 1.6e-5, 4.0e-6), 0.2: (1.5e-4, 3.9e-5, 9.6e-6),
            -0.7: (4.3e-4, 1.1e-4, 2.8e-5)}
RHO_BOUNDS = {0.1: (6.6e-3, 1.7e-3, 4.2e-4), 0.2: (7.5e-3, 1.9e-3, 4.8e-4),
              -0.7: (1.0e-2, 2.6e-3, 6.4e-4)}


def round_factor(manifold, eps):
    """u_1 of ``perturbed_sphere(eps)`` at the manifold's nodes, scaled to unit volume."""
    x = manifold.nodes / manifold.scale
    if eps > 0.0:
        s = math.sqrt(eps / (1.0 + eps))
        I = np.log(np.tan(x / 2.0)) + s * np.arctanh(s * np.cos(x))
    else:
        s = math.sqrt(-eps / (1.0 + eps))
        I = np.log(np.tan(x / 2.0)) - s * np.arctan(s * np.cos(x))
    # sin r = 1/cosh(I) for tan(r/2) = e^I
    u = (1.0 / (np.cosh(I) * manifold.profile.phi_at(x))) ** ((manifold.n - 2) / 2.0)
    return u / lp_norm(u, critical_exponent(manifold.n), manifold.mu_weights)


def rescaled(profile, c):
    """The profile of ``c^2`` times ``profile``'s metric: ``(x, phi) -> (c x, c phi)``."""
    return dataclasses.replace(
        profile, x_max=c * profile.x_max, phi=lambda x: c * profile.phi(x / c),
        dphi=lambda x: profile.dphi(x / c), d2phi=lambda x: profile.d2phi(x / c) / c)


def assert_second_order(errors, bounds):
    """Each error below its bound, and falling 3.5-4.5x per grid doubling."""
    assert all(abs(e) < b for e, b in zip(errors, bounds)), errors
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


@pytest.fixture(scope="module", params=list(TWO_POLE), ids=lambda eps: f"eps{eps:g}")
def two_pole(request):
    """(eps, [(manifold, final u, final rho) at each of GRIDS])."""
    eps = request.param
    gamma, T, dt_max = TWO_POLE[eps]
    runs = []
    for M in GRIDS:
        m = build_manifold(perturbed_sphere(eps), RadialGrid(M=M, gamma=gamma))
        traj = run(m, FlowConfig(T_final=T, dt_max=dt_max))
        runs.append((m, traj.u[-1], traj.rho[-1]))
    return eps, runs


def test_flow_converges_to_the_round_metric(two_pole):
    eps, runs = two_pole
    assert_second_order([float(np.max(np.abs(u - round_factor(m, eps)))) for m, u, _ in runs],
                        U_BOUNDS[eps])
    assert_second_order([rho - RHO_SPHERE for _, _, rho in runs], RHO_BOUNDS[eps])


def test_yamabe_minimizer_is_the_round_factor(two_pole):
    eps, runs = two_pole
    errors = []
    for m, _, _ in runs:
        est = estimate_yamabe_constant(m)
        assert est.converged
        errors.append(float(np.max(np.abs(est.minimizer - round_factor(m, eps)))))
    assert_second_order(errors, U_BOUNDS[eps])


def test_final_factor_is_mirror_symmetric(two_pole):
    # the grid and the profile are symmetric under x -> pi - x; only rounding breaks it
    for _, u, _ in two_pole[1]:
        assert np.max(np.abs(u - u[::-1])) <= 1e-10 * np.max(u)


def test_rescaled_profile_builds_the_same_manifold_and_run():
    # measured: the arrays within 8.5e-16 relative, and after 19 steps u within
    # 4.4e-14 and rho within 4.9e-16 relative
    grid = RadialGrid(M=128, gamma=2.0)
    base = build_manifold(perturbed_sphere(0.1), grid)
    twice = build_manifold(rescaled(perturbed_sphere(0.1), 2.0), grid)
    assert twice.scale * 2.0 == pytest.approx(base.scale, rel=1e-15)
    for name in ("nodes", "face_h", "face_weights", "mu_weights", "S0"):
        np.testing.assert_allclose(getattr(twice, name), getattr(base, name), rtol=1e-14,
                                   err_msg=name)
    config = FlowConfig(T_final=0.1, dt_init=1e-3, dt_max=1e-2)
    a, b = run(base, config), run(twice, config)
    np.testing.assert_allclose(b.t, a.t, rtol=1e-14)
    np.testing.assert_allclose(b.rho, a.rho, rtol=1e-14)
    assert np.max(np.abs(b.u - a.u)) <= 1e-12 * np.max(a.u)


# slope a -> bound on |ratio / prediction - 1| per doubling from M = 64 to 512; the gaps
# measured are 1.5e-4 / 5.6e-5 / 2.1e-5 at a = 0.7 and 1.4e-3 / 7.8e-4 / 4.4e-4 at a = 1.2
TIP_TOL = {0.7: 2e-4, 1.2: 2e-3}


@pytest.mark.parametrize("a", list(TIP_TOL), ids=lambda a: f"cone{a:g}")
def test_first_node_follows_the_indicial_root(a):
    root = 0.5 * (1.0 / a - 1.0)       # (n-2)/2 (1/a - 1) at n = 3
    tips = []                          # (x0, u at x0) per grid
    for M in (64, 128, 256, 512):
        m = build_manifold(cone(a), RadialGrid(M=M, gamma=1.0))
        traj = run(m, FlowConfig(T_final=1.0, dt_max=1e-3))
        tips.append((m.nodes[0], traj.u[-1][0]))
    gaps = [abs((u1 / u0) / (x1 / x0) ** root - 1.0)
            for (x0, u0), (x1, u1) in zip(tips, tips[1:])]
    assert max(gaps) < TIP_TOL[a], gaps
    # the tip's discretization error shrinks under refinement
    assert all(fine < 0.7 * coarse for coarse, fine in zip(gaps, gaps[1:])), gaps
