import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

import yflow
from yflow import discretization
from yflow.discretization import (
    FieldAlignmentError,
    TridiagonalOperator,
    _conformal_laplacian,
    _dirichlet_form,
    _gradient,
    _shifted_laplacian,
    h1_norm,
    kappa,
    laplacian,
    lp_norm,
)
from yflow.geometry import RadialGrid, build_manifold, cone, perturbed_sphere, sphere


def test_constants_are_harmonic(sphere256):
    ones = np.ones(sphere256.node_count)
    assert np.max(np.abs(laplacian(sphere256, ones))) <= 1e-12


def _apply(op: TridiagonalOperator, f: np.ndarray) -> np.ndarray:
    """The matrix-vector product of the bands, row by row."""
    out = op.diag * f
    out[1:] += op.sub[1:] * f[:-1]
    out[:-1] += op.sup[:-1] * f[1:]
    return out


def test_tridiagonal_rows_annihilate_constants(sphere64):
    op = TridiagonalOperator.laplacian(sphere64)
    scale = np.abs(op.diag) + np.abs(op.sub) + np.abs(op.sup)
    assert np.max(np.abs(op.sub + op.diag + op.sup) / scale) <= 1e-12
    ones = np.ones(sphere64.node_count)
    assert np.max(np.abs(_apply(op, ones))) <= 1e-9 * scale.max()


def test_tridiagonal_apply_matches_laplacian(sphere64):
    op = TridiagonalOperator.laplacian(sphere64)
    f = np.sin(3.0 * sphere64.nodes)
    assert np.allclose(_apply(op, f), laplacian(sphere64, f), rtol=1e-12, atol=1e-12)


def test_sphere_eigenfunction_second_order():
    # cos(geodesic distance) is a first eigenfunction of the round sphere;
    # eigenvalue n rescales with the normalization homothety
    errs = []
    for M in (128, 256, 512):
        m = build_manifold(sphere(3), RadialGrid(M=M, gamma=2.0))
        lam = 3.0 / m.scale**2
        fld = np.cos(m.nodes / m.scale)
        res = laplacian(m, fld) + lam * fld
        errs.append(math.sqrt(float(np.sum(m.mu_weights * res**2))) / lam)
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_euclidean_laplacian_of_x_squared():
    # flat cone: Lap(x^2) = 2n = 6, scale-free under the homothety
    m = build_manifold(cone(1.0), RadialGrid(M=256))
    got = laplacian(m, m.nodes**2)
    # truncation behaves like h^2/x^2 near the tip, and the zero-flux wall
    # node sees the closure (x^2 has nonzero flux there); test the interior
    interior = (m.nodes > 0.2 * m.x_max) & (m.nodes < 0.97 * m.x_max)
    assert np.allclose(got[interior], 6.0, rtol=1e-4)


def test_conformal_laplacian_of_constant(sphere64):
    res = _conformal_laplacian(sphere64, np.ones(sphere64.node_count))
    assert np.allclose(res, sphere64.S0, rtol=1e-10)
    res3 = _conformal_laplacian(sphere64, 3.0 * np.ones(sphere64.node_count))
    assert np.allclose(res3, 3.0 * sphere64.S0, rtol=1e-10)


def test_conformal_laplacian_flat_cone():
    # kappa = 8 in dimension 3 and S0 = 0, so L0(x^2) = -8 * 6 = -48
    m = build_manifold(cone(1.0), RadialGrid(M=256))
    got = _conformal_laplacian(m, m.nodes**2)
    interior = (m.nodes > 0.2 * m.x_max) & (m.nodes < 0.97 * m.x_max)
    assert np.allclose(got[interior], -48.0, rtol=1e-4)
    assert kappa(3) == pytest.approx(8.0)


def test_integration_by_parts_exact(sphere256):
    rng = np.random.default_rng(7)
    x = sphere256.nodes / sphere256.scale
    for _ in range(5):
        a, b = rng.integers(1, 6, size=2)
        f = np.sin(a * x) + 0.2 * np.cos(b * x)
        g = np.cos(b * x) - 0.1 * np.sin(a * x)
        lhs = float(np.sum(sphere256.mu_weights * (laplacian(sphere256, f) * g)))
        rhs = -_dirichlet_form(sphere256, f, g)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_laplacian_symmetry(sphere256):
    x = sphere256.nodes / sphere256.scale
    f = np.sin(2 * x) + 0.3 * x
    g = np.cos(3 * x)
    mu = sphere256.mu_weights
    lhs = float(np.sum(mu * (laplacian(sphere256, f) * g)))
    rhs = float(np.sum(mu * (f * laplacian(sphere256, g))))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_misaligned_field_rejected(sphere64):
    with pytest.raises(FieldAlignmentError):
        laplacian(sphere64, np.ones(sphere64.node_count + 1))
    bad = np.ones(sphere64.node_count)
    bad[3] = np.nan
    with pytest.raises(FieldAlignmentError, match="node 3"):
        laplacian(sphere64, bad)


def test_lp_norm_basics(sphere64):
    ones = np.ones(sphere64.node_count)
    mu = sphere64.mu_weights
    for p in (1.0, 2.0, 3.5, 7.0):
        assert lp_norm(ones, p, mu) == pytest.approx(1.0, abs=1e-12)
    f = np.linspace(-2.0, 3.0, sphere64.node_count)
    assert lp_norm(f, math.inf, mu) == pytest.approx(np.abs(f).max())
    with pytest.raises(ValueError):
        lp_norm(ones, 0.5, mu)


@pytest.mark.parametrize("size", [1e-3, 1.0, 8.0], ids=["underflow", "plain", "overflow"])
def test_lp_norm_rescales_only_a_sum_past_the_float_range(sphere64, size):
    # sum of mu |f|^400 with max|f| = size: 0 below the float range, inf above it
    mu = sphere64.mu_weights
    f = np.linspace(-0.5, 1.0, sphere64.node_count) * size
    with np.errstate(over="ignore"):
        plain = float(np.add.reduce(mu * np.abs(f) ** 400.0))
    got = lp_norm(f, 400.0, mu)
    if 0.0 < plain < math.inf:
        assert got == plain ** (1.0 / 400.0)       # the plain sum's root, bit for bit
    else:
        assert got == pytest.approx(size * lp_norm(f / size, 400.0, mu), rel=1e-14)
        assert 0.0 < got < math.inf


def test_l2_norm_of_cosine_closed_form(sphere256):
    # int cos^2 d(mu) = (1/(2 pi^2)) int_0^pi cos^2 x (4 pi sin^2 x) dx = 1/4
    f = np.cos(sphere256.nodes / sphere256.scale)
    got = lp_norm(f, 2.0, sphere256.mu_weights)
    assert got == pytest.approx(0.5, rel=1e-5)


def test_h1_norm_constant(sphere64):
    ones = np.ones(sphere64.node_count)
    assert h1_norm(sphere64, ones) == pytest.approx(1.0, rel=1e-12)


def test_gradient_linear_field(sphere64):
    f = 2.5 * sphere64.nodes + 1.0
    g = _gradient(sphere64, f)
    assert np.allclose(g, 2.5, rtol=1e-9)


def test_dirichlet_form_positive(sphere64):
    f = np.sin(sphere64.nodes / sphere64.scale)
    assert _dirichlet_form(sphere64, f, f) > 0.0


# --- tridiagonal solve ---------------------------------------------------------


def _step_systems(M, count, seed):
    """Operators and right-hand sides shaped like ``flow.step``'s, at random u and dt."""
    m = build_manifold(perturbed_sphere(0.1), RadialGrid(M=M, gamma=2.0))
    lap = TridiagonalOperator.laplacian(m)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        u = rng.uniform(0.5, 2.0, m.node_count)
        dt_diff = 10.0 ** rng.uniform(-6.0, -2.0) * 2.0 * u**-4.0
        op = _shifted_laplacian(lap, -dt_diff, 1.0)
        yield op, u + rng.normal(0.0, 1e-3, m.node_count)


def _solve_banded(op, rhs):
    ab = np.zeros((3, op.diag.size))
    ab[0, 1:] = op.sup[:-1]
    ab[1] = op.diag
    ab[2, :-1] = op.sub[1:]
    return solve_banded((1, 1), ab, rhs)


@pytest.fixture(params=["bundled", "scipy"])
def loader(request, monkeypatch):
    """Each path of ``_gtsv``; ``scipy`` forces the fallback."""
    if request.param == "scipy":
        monkeypatch.setattr(discretization, "_gtsv", lambda: discretization._scipy_gtsv)
    return request.param


@pytest.mark.parametrize("M", [128, 512, 2048])
def test_solve_matches_solve_banded_bitwise(loader, M):
    for op, rhs in _step_systems(M, count=10, seed=M):
        assert op.solve(rhs).tobytes() == _solve_banded(op, rhs).tobytes()


def test_solve_leaves_inputs_unchanged(loader):
    op, rhs = next(_step_systems(128, count=1, seed=1))
    before = [a.copy() for a in (op.sub, op.diag, op.sup, rhs)]
    op.solve(rhs)
    for a, b in zip((op.sub, op.diag, op.sup, rhs), before):
        assert a.tobytes() == b.tobytes()


def test_solve_zero_pivot_raises(loader):
    # column 1 is all zero, so elimination meets an exactly zero pivot
    op = TridiagonalOperator(sub=np.zeros(4), diag=np.array([1.0, 0.0, 1.0, 1.0]),
                             sup=np.zeros(4))
    with pytest.raises(np.linalg.LinAlgError):
        op.solve(np.ones(4))


ONE_STEP_RUN = """
import sys
from yflow.cli import main
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"])
print(code, "scipy" in sys.modules, "scipy.linalg" in sys.modules)
"""

ONE_STEP_CFG = """profile.name = perturbed_sphere
profile.eps = 0.1
grid.M = 64
flow.T = 1e-3
flow.dt_init = 1e-3
flow.dt_max = 1e-3
"""


@pytest.mark.skipif(discretization._gtsv() is discretization._scipy_gtsv,
                    reason="numpy has no bundled scipy_dgtsv_64_")
def test_flow_run_does_not_import_scipy(tmp_path):
    cfg = tmp_path / "one_step.cfg"
    cfg.write_text(ONE_STEP_CFG)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(yflow.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", ONE_STEP_RUN, str(cfg), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False"]
    assert len((tmp_path / "out" / "timeseries.csv").read_text().splitlines()) == 3
