import math

import numpy as np
import pytest

from conftest import RHO_SPHERE
from yflow.geometry import (
    ConstructionError,
    GeometryError,
    RadialGrid,
    WarpedProfile,
    audit_assumptions,
    build_manifold,
    capped_cone,
    cone,
    make_profile,
    perturbed_sphere,
    sphere,
    tabulated,
)


def test_grid_monotone_and_interior():
    g = RadialGrid(M=32, gamma=2.0)
    x = g.nodes(1.0)
    assert x.size == 33
    assert np.all(np.diff(x) > 0)
    assert x[0] > 0 and x[-1] < 1.0


def test_grid_gamma_one_uniform():
    x = RadialGrid(M=20, gamma=1.0).nodes(2.0)
    h = np.diff(x)
    assert np.allclose(h, h[0], rtol=1e-13)


def test_grid_validation():
    with pytest.raises(GeometryError):
        RadialGrid(M=8)
    with pytest.raises(GeometryError):
        RadialGrid(M=32, gamma=0.5)


def test_sphere_volume_and_curvature(sphere256):
    m = sphere256
    assert abs(m.mu_weights.sum() - 1.0) <= 1e-12
    assert np.all(m.mu_weights > 0)
    # S0 is constant; the quadrature oracle gives the level via the raw
    # volume (round S^3 has volume 2 pi^2 and curvature 6 before rescaling)
    ref = 6.0 * m.raw_volume ** (2.0 / 3.0)
    # 1 - cos^2 cancels catastrophically at the tip nodes; 1e-7 is honest
    assert np.allclose(m.S0, ref, rtol=1e-7)
    assert abs(ref - RHO_SPHERE) / RHO_SPHERE < 1e-4
    assert abs(m.raw_volume - 2 * np.pi**2) < 1e-3


def test_flat_cone_scalar_flat():
    m = build_manifold(cone(1.0), RadialGrid(M=64))
    assert np.max(np.abs(m.S0)) <= 1e-9


def test_cone_curvature_formula():
    # slope 0.8 in dimension 3: S0 x^2 = (n-1)(n-2)(1-a^2)/a^2 = 1.125,
    # a homothety-invariant combination
    m = build_manifold(cone(0.8), RadialGrid(M=128, gamma=2.0))
    assert np.allclose(m.S0 * m.nodes**2, 1.125, rtol=1e-10)


def test_quadrature_order_under_doubling():
    # cone volume has the closed form omega_2 a^2 x_max^3 / 3
    exact = 4.0 * math.pi * 0.64 / 3.0
    errs = []
    for M in (64, 128, 256):
        v = build_manifold(cone(0.8), RadialGrid(M=M)).raw_volume
        errs.append(abs(v - exact))
    assert errs[0] / errs[1] > 3.0  # ~4x per doubling for order-2 quadrature
    assert errs[1] / errs[2] > 3.0


def test_smooth_pole_curvature_stable_under_refinement():
    m1 = build_manifold(perturbed_sphere(0.1), RadialGrid(M=256, gamma=2.0))
    m2 = build_manifold(perturbed_sphere(0.1), RadialGrid(M=512, gamma=2.0))
    a, b = np.abs(m1.S0).max(), np.abs(m2.S0).max()
    assert abs(a - b) / b < 0.01


def test_cone_tip_coefficient_refined():
    m = build_manifold(cone(0.8), RadialGrid(M=2048, gamma=2.0))
    target = 2.0 * (1.0 - 0.64) / 0.64
    got = m.S0[0] * m.nodes[0] ** 2
    assert abs(got - target) / target < 1e-3


def test_negative_phi_rejected():
    prof = WarpedProfile(
        name="bad", n=3, x_max=2.0,
        phi=lambda x: np.asarray(1.0 - x, dtype=float),
        dphi=lambda x: np.full_like(np.asarray(x, float), -1.0),
        d2phi=lambda x: np.zeros_like(np.asarray(x, float)),
    )
    with pytest.raises(ConstructionError, match="node"):
        build_manifold(prof, RadialGrid(M=32))


def test_capped_cone_geometry():
    prof = capped_cone(0.6, cap_radius=0.5)
    m = build_manifold(prof, RadialGrid(M=256, gamma=2.0))
    assert abs(m.mu_weights.sum() - 1.0) <= 1e-12
    # cap region is a round sphere patch of the cap radius: S0 = n(n-1)/R^2
    # there, rescaled by the homothety
    ref = 3 * 2 / (0.5 * m.scale) ** 2
    assert abs(m.S0[-1] - ref) / ref < 1e-6
    # cone region keeps the 1/x^2 law
    assert abs(m.S0[0] * m.nodes[0] ** 2 - 2 * (1 - 0.36) / 0.36) < 1e-6


def test_fd_derivative_fallback_matches_analytic():
    # same warping with and without closed-form derivatives
    ref = build_manifold(perturbed_sphere(0.1), RadialGrid(M=64))
    prof = perturbed_sphere(0.1)
    fd = WarpedProfile(
        name="fd", n=3, x_max=prof.x_max, phi=prof.phi,
        tip_left=prof.tip_left, tip_right=prof.tip_right,
    )
    m = build_manifold(fd, RadialGrid(M=64))
    assert np.allclose(m.S0, ref.S0, rtol=1e-6, atol=1e-6)


def test_tabulated_roundtrip(tmp_path):
    x = np.linspace(1e-4, math.pi - 1e-4, 4000)
    path = tmp_path / "profile.txt"
    lines = ["# tabulated sphere profile"]
    lines += [f"{xi:.12e} {math.sin(xi):.12e}" for xi in x]
    path.write_text("\n".join(lines))
    prof = tabulated(str(path))
    assert prof.tip_left.kind == "smooth-pole"
    m = build_manifold(prof, RadialGrid(M=128, gamma=2.0))
    assert abs(m.mu_weights.sum() - 1.0) <= 1e-12
    ref = build_manifold(sphere(3), RadialGrid(M=128, gamma=2.0))
    # interior curvature close to the analytic sphere; spline ends are noisy
    sl = slice(10, -10)
    assert np.allclose(m.S0[sl], ref.S0[sl], rtol=5e-3)


def test_make_profile_registry():
    assert make_profile("sphere").name == "sphere"
    assert make_profile("perturbed_sphere", eps=0.2).params == (0.2,)
    assert make_profile("cone", a=0.8).tip_left.slope == 0.8
    with pytest.raises(GeometryError, match="unknown profile"):
        make_profile("torus")
    with pytest.raises(GeometryError, match="profile 'cone' takes no parameter 'eps'"):
        make_profile("cone", a=0.8, eps=0.1)
    with pytest.raises(GeometryError, match="profile 'perturbed_sphere' needs parameter 'eps'"):
        make_profile("perturbed_sphere")


# --- audit -----------------------------------------------------------------


def test_audit_sphere_all_pass(sphere64):
    rep = audit_assumptions(sphere64)
    assert rep.ok
    assert not rep.warnings


def test_audit_cone_lq_fails():
    m = build_manifold(cone(0.8), RadialGrid(M=64))
    rep = audit_assumptions(m)
    assert not rep.ok
    failed = {c.name for c in rep.checks if not c.passed}
    # S0 ~ +1/x^2 at the tip: outside L^q and unbounded
    assert failed == {"s0_lq_finite", "s0_bounded"}
    # the divergence exponent is reported: x^{-2q} x^2 integrand for n=3
    assert any("diverges" in w for w in rep.warnings)
    # (S0)_- is bounded for slope < 1 (curvature blows up to +inf)
    assert rep.checks[2].passed


def test_audit_cone_steep_slope_unbounded_negative():
    m = build_manifold(cone(1.5), RadialGrid(M=64))
    rep = audit_assumptions(m)
    names = {c.name: c.passed for c in rep.checks}
    assert not names["s0_minus_bounded"]


def test_audit_perturbed_sphere_passes():
    prof = perturbed_sphere(0.1)
    m = build_manifold(prof, RadialGrid(M=64))
    rep = audit_assumptions(m)
    assert rep.ok


def test_audit_default_exponent(sphere64):
    rep = audit_assumptions(sphere64)
    assert rep.q == pytest.approx(4.5)  # n^2/(2(n-2)) at n = 3
