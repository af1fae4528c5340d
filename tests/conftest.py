import numpy as np
import pytest

from yflow import RadialGrid, build_manifold, perturbed_sphere, sphere
from yflow.flow import FlowConfig, _advance, run
from yflow.yamabe import _volume_weights

# reference value: background curvature of the volume-normalized round
# 3-sphere, 6 * (2 pi^2)^{2/3}
RHO_SPHERE = 6.0 * (2.0 * np.pi**2) ** (2.0 / 3.0)


def raw_volume(m, state, dt):
    """The evolving volume after one step of size dt, before projection."""
    return float(np.add.reduce(_volume_weights(m, _advance(m, state, dt))))


@pytest.fixture(scope="session")
def sphere64():
    return build_manifold(sphere(3), RadialGrid(M=64, gamma=2.0))


@pytest.fixture(scope="session")
def sphere256():
    return build_manifold(sphere(3), RadialGrid(M=256, gamma=2.0))


@pytest.fixture(scope="session")
def sphere512():
    return build_manifold(sphere(3), RadialGrid(M=512, gamma=2.0))


@pytest.fixture(scope="session")
def bumpy128():
    return build_manifold(perturbed_sphere(0.1), RadialGrid(M=128, gamma=2.0))


@pytest.fixture(scope="session")
def bumpy128_run(bumpy128):
    cfg = FlowConfig(T_final=1.0, dt_init=1e-3, dt_max=1e-3, snapshot_every=10)
    return run(bumpy128, cfg)
