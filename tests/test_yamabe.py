import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RHO_SPHERE
from yflow import yamabe
from yflow.discretization import _dirichlet_form, kappa, lp_norm
from yflow.geometry import RadialGrid, build_manifold, cone, perturbed_sphere
from yflow.yamabe import (
    FlowState,
    PositivityError,
    VolumeError,
    YamabeSignError,
    average_scalar,
    estimate_yamabe_constant,
    scalar_curvature_flow,
    sobolev_constants,
    yamabe_quotient,
)


def test_identity_factor_reproduces_background(sphere64):
    S = scalar_curvature_flow(sphere64, np.ones(sphere64.node_count))
    assert np.allclose(S, sphere64.S0, rtol=1e-10)


def test_constant_factor_homothety(sphere64):
    # u = c rescales curvature by c^{-4/(n-2)}
    c = 1.7
    S = scalar_curvature_flow(sphere64, np.full(sphere64.node_count, c))
    assert np.allclose(S, c ** (-4.0) * sphere64.S0, rtol=1e-10)


def test_scalar_curvature_symbolic_crosscheck(sphere512):
    # u = 1 + 0.1 cos(x/c): the discrete curvature must match the 1D
    # formula S = u^{-5}(S0 u - 8 Lap u) with Lap u = -lam (u - 1)
    m = sphere512
    xc = m.nodes / m.scale
    u = 1.0 + 0.1 * np.cos(xc)
    lam = 3.0 / m.scale**2
    expected = (m.S0 * u + 8.0 * lam * 0.1 * np.cos(xc)) / u**5
    got = scalar_curvature_flow(m, u)
    rng = np.random.default_rng(3)
    nodes = rng.integers(m.node_count // 8, 7 * m.node_count // 8, size=10)
    for i in nodes:
        assert got[i] == pytest.approx(expected[i], rel=2e-4)


def test_positivity_error_names_node(sphere64):
    u = np.ones(sphere64.node_count)
    u[5] = -0.25
    with pytest.raises(PositivityError, match=r"u\[5\]"):
        scalar_curvature_flow(sphere64, u)


def test_average_scalar_constant_factor(sphere256):
    rho = average_scalar(sphere256, np.ones(sphere256.node_count))
    ref = float(np.sum(sphere256.mu_weights * sphere256.S0))
    assert type(rho) is float
    assert rho == pytest.approx(ref, rel=1e-12)
    assert rho == pytest.approx(RHO_SPHERE, rel=1e-4)


def test_average_scalar_forms_agree(bumpy128):
    m = bumpy128
    u = 1.0 + 0.05 * np.sin(m.nodes / m.scale)
    st0 = FlowState.initial(m, u)
    # Dirichlet form against int S dVol_g, by exact discrete integration by parts
    integral = float(np.sum(st0.gvol_weights * st0.S))
    assert average_scalar(m, st0.u) == pytest.approx(integral, rel=1e-8)


def test_average_scalar_requires_unit_volume(sphere64):
    with pytest.raises(VolumeError, match="renormalize"):
        average_scalar(sphere64, 1.5 * np.ones(sphere64.node_count))


def test_quotient_of_constant(sphere64):
    q = yamabe_quotient(sphere64, np.ones(sphere64.node_count))
    ref = float(np.sum(sphere64.mu_weights * sphere64.S0))
    assert q == pytest.approx(ref, rel=1e-12)


from yflow.geometry import sphere as _sphere_profile

_SCALE_M = build_manifold(_sphere_profile(3), RadialGrid(M=64, gamma=2.0))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=-100.0, max_value=100.0).filter(lambda v: abs(v) > 1e-6))
def test_quotient_scale_invariant(c):
    m = _SCALE_M
    v = 1.0 + 0.3 * np.sin(2.0 * m.nodes / m.scale)
    assert yamabe_quotient(m, c * v) == pytest.approx(
        yamabe_quotient(m, v), rel=1e-12
    )


def test_quotient_rejects_zero(sphere64):
    with pytest.raises(ValueError, match="zero"):
        yamabe_quotient(sphere64, np.zeros(sphere64.node_count))


def test_estimator_on_round_sphere(sphere512):
    est = estimate_yamabe_constant(sphere512, max_iter=200)
    assert 0.98 * RHO_SPHERE <= est.value <= 1.0001 * RHO_SPHERE
    # the constant field already solves L0 v = Y v^{p-1}
    assert est.converged and est.iterations == 1


def test_estimator_upper_bounds_random_quotients(bumpy128):
    est = estimate_yamabe_constant(bumpy128, max_iter=200)
    # the iterate moves here, so the bound is more than that of v = 1
    assert est.converged and est.iterations > 1
    rng = np.random.default_rng(11)
    xc = bumpy128.nodes / bumpy128.x_max
    for _ in range(100):
        coeff = rng.uniform(-1.0, 1.0, size=4)
        v = 1.0 + coeff[0] * xc + coeff[1] * xc**2 + coeff[2] * np.sin(
            math.pi * xc
        ) + coeff[3] * np.cos(math.pi * xc)
        if lp_norm(v, 2.0, bumpy128.mu_weights) < 1e-8:
            continue
        assert est.value <= yamabe_quotient(bumpy128, v) * (1.0 + 1e-10)


def test_estimator_deterministic(bumpy128):
    a = estimate_yamabe_constant(bumpy128)
    b = estimate_yamabe_constant(bumpy128)
    assert a.value == b.value
    assert a.minimizer.tobytes() == b.minimizer.tobytes()
    assert (a.iterations, a.converged) == (b.iterations, b.converged)


def test_estimator_constant_upper_bound(sphere64):
    # v = 1 already gives Q = int S0, so the estimate sits at or below it
    est = estimate_yamabe_constant(sphere64, max_iter=30)
    assert est.value <= float(np.sum(sphere64.mu_weights * sphere64.S0)) + 1e-12


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_estimator_value_is_quotient_of_minimizer(eps):
    m = build_manifold(perturbed_sphere(eps), RadialGrid(M=256, gamma=2.0))
    est = estimate_yamabe_constant(m)
    assert est.converged
    assert est.value == pytest.approx(yamabe_quotient(m, est.minimizer), rel=1e-12, abs=0.0)
    assert est.value <= yamabe_quotient(m, np.ones(m.node_count))
    assert np.all(est.minimizer > 0.0)


def test_estimator_second_order_to_sphere_constant():
    # perturbed_sphere is conformal to the round sphere, so Y = Y(S^3)
    errs = []
    for M in (256, 512, 1024):
        est = estimate_yamabe_constant(
            build_manifold(perturbed_sphere(0.1), RadialGrid(M=M, gamma=2.0)))
        assert est.converged
        errs.append(abs(est.value - RHO_SPHERE))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


@pytest.mark.parametrize("a, gamma", [(1.5, 1.0), (1.5, 2.0), (1.0, 1.0), (1.0, 2.0)])
def test_estimator_stops_without_positive_constant(a, gamma):
    # cone(1.5) has S0 < 0, so Y < 0; the flat cone(1.0) has S0 = 0 and a
    # singular L0; both give v = 1 a quotient that is not positive
    m = build_manifold(cone(a), RadialGrid(M=256, gamma=gamma))
    est = estimate_yamabe_constant(m)
    assert not est.converged and est.iterations == 0
    assert not est.value > 0.0


@pytest.mark.parametrize("failure", ["singular", "not_positive", "not_finite"])
def test_estimator_stops_at_failed_solve(bumpy128, monkeypatch, failure):
    def solve(op, rhs):
        if failure == "singular":
            raise np.linalg.LinAlgError("singular matrix")
        out = np.ones_like(rhs)
        out[3] = -1.0 if failure == "not_positive" else math.nan
        return out

    monkeypatch.setattr(yamabe, "_solve_tridiagonal", solve)
    est = estimate_yamabe_constant(bumpy128)
    assert not est.converged and est.iterations == 1
    assert est.value == yamabe_quotient(bumpy128, est.minimizer)
    assert np.all(est.minimizer == est.minimizer[0])     # the start, v = 1


def test_sobolev_constants_formulas(sphere64):
    sc = sobolev_constants(sphere64, y_est=40.0, sup_u=1.0, inf_u=1.0)
    assert sc.A0 == pytest.approx(8.0 / 40.0)
    assert sc.B0 == pytest.approx(float(np.abs(sphere64.S0).max()) / 40.0)
    assert sc.A_T == sc.A0 and sc.B_T == sc.B0

    sc2 = sobolev_constants(sphere64, y_est=40.0, sup_u=2.0, inf_u=0.5)
    assert sc2.A_T == pytest.approx(sc.A0 * 16.0)
    assert sc2.B_T == pytest.approx(sc.B0 * 4.0 / 0.5**6)


def test_sobolev_constants_flagged_for_cone():
    m = build_manifold(cone(0.8), RadialGrid(M=32))
    sc = sobolev_constants(m, y_est=5.0, sup_u=1.0, inf_u=1.0)
    assert sc.B0 is None and sc.B_T is None


def test_sobolev_requires_positive_estimate(sphere64):
    with pytest.raises(YamabeSignError, match="positive Yamabe"):
        sobolev_constants(sphere64, y_est=-1.0, sup_u=1.0, inf_u=1.0)


def test_elliptic_sobolev_inequality_holds(sphere256):
    # with A0, B0 from the estimate, every sampled field satisfies
    # ||f||_{2n/(n-2)}^2 <= A0 ||grad f||^2 + B0 ||f||^2
    m = sphere256
    est = estimate_yamabe_constant(m, max_iter=100)
    sc = sobolev_constants(m, est.value, 1.0, 1.0)
    rng = np.random.default_rng(5)
    xc = m.nodes / m.x_max
    for _ in range(100):
        coeff = rng.uniform(-1.0, 1.0, size=5)
        fld = (coeff[0] + coeff[1] * xc + coeff[2] * xc**2
               + coeff[3] * np.sin(math.pi * xc) + coeff[4] * np.cos(2 * math.pi * xc))
        lhs = lp_norm(fld, 3.0, m.mu_weights) ** 2
        rhs = sc.A0 * _dirichlet_form(m, fld, fld) + sc.B0 * lp_norm(fld, 2.0, m.mu_weights) ** 2
        assert lhs <= rhs * (1.0 + 1e-10)


def test_flow_state_initial_renormalizes(sphere64):
    st0 = FlowState.initial(sphere64, 2.0 * np.ones(sphere64.node_count))
    assert st0.volume == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(st0.u, 1.0, rtol=1e-12)
