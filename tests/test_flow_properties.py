"""Invariants of the semi-implicit step over random profiles, grids and steps."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yflow.discretization import _conformal_laplacian, critical_exponent, flow_exponent
from yflow.flow import StepRejected, _advance, renormalize_volume, step
from yflow.geometry import RadialGrid, build_manifold, perturbed_sphere, sphere
from yflow.yamabe import FlowState, average_scalar

STEPS = 4
GRIDS = st.sampled_from([32, 64, 128])
DTS = st.floats(1e-5, 2e-3)


def _same_bits(a: FlowState, b: FlowState) -> bool:
    return (a.t == b.t and a.rho == b.rho
            and all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                    for f in ("u", "S", "gvol_weights")))


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(0.0, 0.3), M=GRIDS, dt=DTS)
def test_step_invariants(eps, M, dt):
    m = build_manifold(perturbed_sphere(eps), RadialGrid(M=M, gamma=2.0))
    state = FlowState.initial(m)
    for _ in range(STEPS):
        try:
            raw = _advance(m, state, dt, 1e-12)
        except StepRejected:
            return
        new = step(m, state, dt)
        assert _same_bits(new, renormalize_volume(m, raw, state.t + dt))
        assert abs(new.volume - 1.0) <= 1e-12
        assert np.all(new.u > 0.0)
        # rho is non-increasing; a few ulp of rounding at the fixed point
        assert new.rho <= state.rho + 1e-14 * abs(state.rho)
        state = new


@settings(max_examples=20, deadline=None)
@given(M=GRIDS, dt=DTS)
def test_round_sphere_is_a_fixed_point(M, dt):
    m = build_manifold(sphere(3), RadialGrid(M=M, gamma=2.0))
    st0 = FlowState.initial(m)
    state = st0
    for _ in range(STEPS):
        state = step(m, state, dt)
    assert np.max(np.abs(state.u - 1.0)) <= 1e-12
    assert state.rho == pytest.approx(st0.rho, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 5]), eps=st.floats(0.0, 0.3), M=GRIDS, dt=DTS)
def test_step_invariants_in_higher_dimensions(n, eps, M, dt):
    m = build_manifold(perturbed_sphere(eps, n=n), RadialGrid(M=M, gamma=2.0))
    state = FlowState.initial(m)
    for _ in range(STEPS):
        try:
            raw = _advance(m, state, dt, 1e-12)
        except StepRejected:
            return
        new = step(m, state, dt)
        assert _same_bits(new, renormalize_volume(m, raw, state.t + dt))
        assert abs(new.volume - 1.0) <= 1e-12
        assert np.all(new.u > 0.0)
        assert new.rho <= state.rho + 1e-14 * abs(state.rho)
        state = new


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4, 5, 6]), eps=st.floats(0.0, 0.3), M=GRIDS,
       amp=st.floats(-0.2, 0.2), dt=DTS)
def test_state_matches_reference_formulas(n, eps, M, amp, dt):
    # S, the volume weights and rho of a state, initial and after a step,
    # against their defining formulas and the Dirichlet form of rho
    m = build_manifold(perturbed_sphere(eps, n=n), RadialGrid(M=M, gamma=2.0))
    x = m.nodes / m.x_max
    state = FlowState.initial(m, 1.0 + amp * np.cos(np.pi * x))
    try:
        states = (state, step(m, state, dt))
    except StepRejected:
        states = (state,)
    for s in states:
        u = s.u
        np.testing.assert_allclose(
            s.S, _conformal_laplacian(m, u) * u ** (-flow_exponent(n)), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            s.gvol_weights, m.mu_weights * u ** critical_exponent(n), rtol=1e-12, atol=0.0)
        assert s.rho == pytest.approx(average_scalar(m, u), rel=1e-12, abs=0.0)
