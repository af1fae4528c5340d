"""Discrete operators and norms on a radial manifold.

Fields are plain numpy arrays aligned with the manifold's nodes.  The
Laplacian is the conservative flux stencil ``(1/w) D(w Df)`` with weight
``w = phi^{n-1}`` sampled at the face midpoints and zero flux through both
ends.  This makes constants exactly harmonic and yields an exact discrete
integration-by-parts identity against the face-based Dirichlet form
(:func:`_dirichlet_form`), which the variational quantities downstream rely
on.  Both read the face conductances ``face_weights / face_h`` cached on the
manifold.  The program calls the unchecked operators (underscored); only
:func:`laplacian` and :func:`h1_norm` check their field first (:func:`check_field`).

Tridiagonal systems are solved by LAPACK ``dgtsv``, the routine
``scipy.linalg.solve_banded((1, 1), ...)`` reaches, bound with ``ctypes``
from the OpenBLAS that numpy bundles.  A flow step therefore imports no
scipy; builds of numpy without that library fall back to
``scipy.linalg.lapack.dgtsv``.  Both paths give the same bits.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import DiscretizedManifold

__all__ = [
    "FieldAlignmentError",
    "kappa",
    "flow_exponent",
    "critical_exponent",
    "check_field",
    "laplacian",
    "lp_norm",
    "h1_norm",
    "TridiagonalOperator",
]


class FieldAlignmentError(ValueError):
    """Field does not match the manifold's grid (length or finiteness)."""


def kappa(n: int) -> float:
    """Conformal Laplacian gradient coefficient 4(n-1)/(n-2)."""
    return 4.0 * (n - 1) / (n - 2)


def flow_exponent(n: int) -> float:
    """(n+2)/(n-2), the conformal-factor power in the flow equation."""
    return (n + 2.0) / (n - 2.0)


def critical_exponent(n: int) -> float:
    """2n/(n-2), the critical Sobolev exponent."""
    return 2.0 * n / (n - 2.0)


def check_field(manifold: DiscretizedManifold, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (manifold.node_count,):
        raise FieldAlignmentError(
            f"field of shape {f.shape} does not match {manifold.node_count} nodes"
        )
    if not np.isfinite(f).all():
        bad = int(np.argmax(~np.isfinite(f)))
        raise FieldAlignmentError(f"non-finite field entry at node {bad}")
    return f


def laplacian(manifold: DiscretizedManifold, f: np.ndarray) -> np.ndarray:
    """Weighted Laplace-Beltrami operator, zero-flux closure at the tips."""
    return _laplacian(manifold, check_field(manifold, f))


def _laplacian(manifold: DiscretizedManifold, f: np.ndarray) -> np.ndarray:
    # unchecked body, along the last axis: row by row on a (rows x nodes) block
    flux = f[..., 1:] - f[..., :-1]
    flux *= manifold.conductance
    out = np.empty_like(f)
    np.subtract(flux[..., 1:], flux[..., :-1], out=out[..., 1:-1])
    out[..., 0] = flux[..., 0]
    out[..., -1] = -flux[..., -1]
    out /= manifold.mu_weights
    return out


def _conformal_laplacian(manifold: DiscretizedManifold, f: np.ndarray) -> np.ndarray:
    """S0 f - (4(n-1)/(n-2)) Laplacian(f)."""
    return manifold.S0 * f - kappa(manifold.n) * _laplacian(manifold, f)


def _dirichlet_form(manifold: DiscretizedManifold, f: np.ndarray, g: np.ndarray) -> float:
    """Face-based energy pairing; the exact adjoint of the Laplacian.

    ``sum_i mu_i (Lap f)_i g_i == -_dirichlet_form(f, g)`` holds to rounding.
    """
    df = f[1:] - f[:-1]
    dg = df if g is f else g[1:] - g[:-1]
    return float(np.add.reduce(manifold.conductance * df * dg))


def _gradient(manifold: DiscretizedManifold, f: np.ndarray) -> np.ndarray:
    """Nodal radial derivative along the last axis: centered inside, one-sided at the tips."""
    x = manifold.nodes
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (x[2:] - x[:-2])
    out[..., 0] = (f[..., 1] - f[..., 0]) / (x[1] - x[0])
    out[..., -1] = (f[..., -1] - f[..., -2]) / (x[-1] - x[-2])
    return out


def lp_norm(f: np.ndarray, p: float, weights: np.ndarray) -> float:
    """L^p norm under the given node weights; p = inf is the node max.

    A sum that overflows to inf, or underflows to 0 while max|f| > 0, is taken
    again as ``max|f| * ||f / max|f|||_p``; every other norm is the plain sum's root.
    """
    if p != math.inf and p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    f = np.asarray(f, dtype=float)
    if p == math.inf:
        return float(np.abs(f).max())
    weights = np.asarray(weights)
    with np.errstate(over="ignore"):    # a sum past the float range is inf, rescaled below
        total = float(np.add.reduce(weights * np.abs(f) ** p))
    if total == math.inf or total == 0.0:
        top = float(np.abs(f).max(initial=0.0))
        if 0.0 < top < math.inf:
            return top * float(np.add.reduce(weights * np.abs(f / top) ** p)) ** (1.0 / p)
    return total ** (1.0 / p)


def h1_norm(manifold: DiscretizedManifold, f: np.ndarray) -> float:
    """First Sobolev norm sqrt(||f||_2^2 + ||f'||_2^2) in the background measure.

    The program sums it per snapshot block instead (``bounds.check_energy_decay``);
    this checked form is the tests' reference for those sums.
    """
    f = check_field(manifold, f)
    g = _gradient(manifold, f)
    mu = manifold.mu_weights
    return math.sqrt(float(np.sum(mu * f * f)) + float(np.sum(mu * g * g)))


@dataclass
class TridiagonalOperator:
    """Tridiagonal matrix in (sub, diag, sup) form.

    ``sub[i]`` couples row i to node i-1 (sub[0] is unused), ``sup[i]`` to
    node i+1 (sup[-1] unused).  The Laplacian stencil has vanishing row
    sums, so constants are annihilated exactly.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @classmethod
    def laplacian(cls, manifold: DiscretizedManifold) -> "TridiagonalOperator":
        cw, m = manifold.conductance, manifold.mu_weights
        sub, sup = np.zeros(manifold.node_count), np.zeros(manifold.node_count)
        sup[:-1] = cw / m[:-1]
        sub[1:] = cw / m[1:]
        return cls(sub=sub, diag=-(sub + sup), sup=sup)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` by Gaussian elimination with partial pivoting.

        The operator and ``rhs`` are left unchanged.  Raises
        ``numpy.linalg.LinAlgError`` on an exactly zero pivot, as
        ``scipy.linalg.solve_banded`` does.
        """
        return _solve_tridiagonal(self, rhs)


def _shifted_laplacian(lap: TridiagonalOperator, coef, shift) -> TridiagonalOperator:
    """The bands of ``coef Lap + shift`` from the Laplacian's; each may be per node."""
    diag = coef * lap.diag
    diag += shift
    return TridiagonalOperator(sub=coef * lap.sub, diag=diag, sup=coef * lap.sup)


def _solve_tridiagonal(op: TridiagonalOperator, rhs: np.ndarray) -> np.ndarray:
    """The body of :meth:`TridiagonalOperator.solve`.

    The Yamabe estimate solves through here, so ``solve`` runs once per flow step.
    """
    npts = op.diag.size
    # dgtsv overwrites its inputs, so it gets copies: sub[1:], diag, sup[:-1]
    # and rhs back to back in this size's buffer; the solution ends in the last block
    with _SOLVING:
        work = _work(npts)
        np.concatenate((op.sub[1:], op.diag, op.sup[:-1], rhs), out=work)
        info = _gtsv()(work, npts)
        solution = work[3 * npts - 2 :].copy()
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    return solution


# the solves of one size share a buffer, so one solve runs at a time
_SOLVING = threading.Lock()


@functools.cache
def _work(n: int) -> np.ndarray:
    """The work buffer of the solves of n unknowns."""
    return np.empty(4 * n - 2)


@functools.cache
def _gtsv():
    """LAPACK ``dgtsv`` as ``gtsv(work, n) -> info``, solving in place.

    ``work`` holds ``dl`` (n-1), ``d`` (n), ``du`` (n-1) and ``b`` (n) back to
    back; ``b`` is overwritten by the solution.  Binds ``scipy_dgtsv_64_``
    (64-bit integers) from numpy's bundled OpenBLAS, else falls back to
    ``scipy.linalg.lapack.dgtsv``.  The ``ctypes`` arguments into a buffer are
    built at its first solve, and again only when another buffer of its size comes.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = next(f for f in os.listdir(libs)
                    if f.startswith("libscipy_openblas64_") and f.endswith(".so"))
        fn = ctypes.CDLL(os.path.join(libs, name)).scipy_dgtsv_64_
    except (StopIteration, OSError, AttributeError):
        return _scipy_gtsv

    i64 = ctypes.POINTER(ctypes.c_int64)
    f64 = ctypes.POINTER(ctypes.c_double)
    fn.argtypes = [i64, i64, f64, f64, f64, f64, i64, i64]
    fn.restype = None
    byref = ctypes.byref
    nrhs = ctypes.c_int64(1)
    bound = {}      # n -> (work, dgtsv's arguments into it, its info)

    def gtsv(work: np.ndarray, n: int) -> int:
        if (args := bound.get(n)) is None or args[0] is not work:
            head = ctypes.c_double.from_buffer(work)     # holds the buffer while bound
            size, info = ctypes.c_int64(n), ctypes.c_int64(0)
            args = bound[n] = (work, (
                byref(size), byref(nrhs), byref(head), byref(head, 8 * (n - 1)),
                byref(head, 8 * (2 * n - 1)), byref(head, 8 * (3 * n - 2)), byref(size),
                byref(info)), info)
        fn(*args[1])
        return args[2].value

    return gtsv


def _scipy_gtsv(work: np.ndarray, n: int) -> int:
    """``scipy.linalg.lapack.dgtsv`` behind :func:`_gtsv`'s interface (needs n >= 2)."""
    from scipy.linalg.lapack import dgtsv

    dl, d, du, b = np.split(work, (n - 1, 2 * n - 1, 3 * n - 2))
    _, _, _, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
    b[...] = x
    return info
