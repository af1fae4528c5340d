import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RHO_SPHERE
from yflow.discretization import dirichlet_form, kappa, lp_norm
from yflow.geometry import RadialGrid, build_manifold, cone
from yflow.yamabe import (
    FlowState,
    PositivityError,
    VolumeError,
    YamabeOptions,
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
    est = estimate_yamabe_constant(sphere512, YamabeOptions(max_iter=200))
    assert 0.98 * RHO_SPHERE <= est.value <= 1.0001 * RHO_SPHERE
    assert np.all(np.diff(est.history) <= 1e-12)


def test_estimator_upper_bounds_random_quotients(bumpy128):
    est = estimate_yamabe_constant(bumpy128, YamabeOptions(max_iter=200))
    # genuine descent happens here, so the line-search contract is
    # non-vacuous: the recorded quotient sequence never increases
    assert len(est.history) > 2
    assert np.all(np.diff(est.history) <= 1e-12)
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


def test_estimator_multistart_deterministic(sphere64):
    a = estimate_yamabe_constant(sphere64, YamabeOptions(max_iter=50, multistart=3))
    b = estimate_yamabe_constant(sphere64, YamabeOptions(max_iter=50, multistart=3))
    assert a.value == b.value


def test_estimator_constant_upper_bound(sphere64):
    # v = 1 already gives Q = int S0, so the estimate sits at or below it
    est = estimate_yamabe_constant(sphere64, YamabeOptions(max_iter=30))
    assert est.value <= float(np.sum(sphere64.mu_weights * sphere64.S0)) + 1e-12


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
    est = estimate_yamabe_constant(m, YamabeOptions(max_iter=100))
    sc = sobolev_constants(m, est.value, 1.0, 1.0)
    rng = np.random.default_rng(5)
    xc = m.nodes / m.x_max
    for _ in range(100):
        coeff = rng.uniform(-1.0, 1.0, size=5)
        fld = (coeff[0] + coeff[1] * xc + coeff[2] * xc**2
               + coeff[3] * np.sin(math.pi * xc) + coeff[4] * np.cos(2 * math.pi * xc))
        lhs = lp_norm(fld, 3.0, m.mu_weights) ** 2
        rhs = sc.A0 * dirichlet_form(m, fld) + sc.B0 * lp_norm(fld, 2.0, m.mu_weights) ** 2
        assert lhs <= rhs * (1.0 + 1e-10)


def test_flow_state_initial_renormalizes(sphere64):
    st0 = FlowState.initial(sphere64, 2.0 * np.ones(sphere64.node_count))
    assert st0.volume == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(st0.u, 1.0, rtol=1e-12)
