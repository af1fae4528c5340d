"""Invariants of the semi-implicit step over random profiles, grids and steps."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yflow.flow import StepRejected, renormalize_volume, step
from yflow.geometry import RadialGrid, build_manifold, perturbed_sphere, sphere
from yflow.yamabe import FlowState

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
            raw = step(m, state, dt, renormalize=False)
        except StepRejected:
            return
        new = step(m, state, dt)
        assert _same_bits(new, renormalize_volume(m, raw))
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
