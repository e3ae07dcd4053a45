"""Multivariate Gaussian distribution.

Used by the robot tracking example (Fig. 5 of the paper): the position /
velocity state of the robot is a small Gaussian vector, and the
GPS/accelerometer updates are matrix Kalman updates expressed through the
multivariate linear-Gaussian conjugacy.
"""

from __future__ import annotations

import numpy as np

from repro.dists.base import Distribution
from repro.errors import DistributionError

__all__ = [
    "MvGaussian",
    "require_symmetric",
    "batched_matvec",
    "batched_rowdot",
    "batched_mv_log_pdf",
]


def require_symmetric(cov: np.ndarray) -> None:
    """Reject a covariance matrix that is not symmetric (to round-off)."""
    if not np.allclose(cov, cov.T, atol=1e-8):
        raise DistributionError("cov must be symmetric")


def batched_matvec(a, x: np.ndarray) -> np.ndarray:
    """``A @ x_i`` for every particle row of ``x`` — ``(n, d_in) -> (n, d_out)``.

    Expanded into per-column elementwise products summed left to right,
    so each output row is computed independently of every other row:
    slicing the particle axis (sharded execution) cannot change a single
    bit of the result, which BLAS-backed ``matmul`` does not guarantee.
    State dimensions are tiny (the robot's is 3), so the Python loop is
    over matrix entries, not particles.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(a.shape[0]):
        acc = a[i, 0] * x[:, 0]
        for j in range(1, a.shape[1]):
            acc = acc + a[i, j] * x[:, j]
        cols.append(acc)
    return np.stack(cols, axis=1)


def batched_rowdot(row, x: np.ndarray) -> np.ndarray:
    """``row . x_i`` for every particle row of ``x`` — ``(n, d) -> (n,)``.

    The projection kernel (``x[i]`` observations, GPS fixes); same
    fixed-order summation guarantee as :func:`batched_matvec`.
    """
    row = np.asarray(row, dtype=float)
    x = np.asarray(x, dtype=float)
    acc = row[0] * x[:, 0]
    for j in range(1, row.size):
        acc = acc + row[j] * x[:, j]
    return acc


def batched_mv_log_pdf(value, means: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``log N(value; mean_i, cov)`` for per-particle means, shared cov.

    The batched counterpart of :meth:`MvGaussian.log_pdf` under the
    Gaussian-chain invariant that covariances are particle-independent
    (covariance arithmetic never touches realized values). Uses the same
    pseudo-inverse / pseudo-determinant treatment of degenerate
    covariances as the scalar method.
    """
    means = np.asarray(means, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    diff = np.asarray(value, dtype=float).reshape(1, -1) - means
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        eigvals = np.linalg.eigvalsh(cov)
        pos = eigvals[eigvals > 1e-12]
        logdet = float(np.sum(np.log(pos)))
    pinv = np.linalg.pinv(cov)
    maha = batched_rowdot(np.ones(d), diff * batched_matvec(pinv, diff))
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


class MvGaussian(Distribution):
    """Multivariate normal ``N(mu, cov)`` over ``R^d``.

    ``mu`` is a length-``d`` vector, ``cov`` a ``d x d`` symmetric positive
    semi-definite matrix. Arrays are copied and frozen at construction.
    """

    __slots__ = ("mu", "cov", "_dim")

    def __init__(self, mu, cov):
        mu = np.asarray(mu, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (mu.size, mu.size):
            raise DistributionError(
                f"cov shape {cov.shape} does not match mean of dim {mu.size}"
            )
        require_symmetric(cov)
        self.mu = mu
        self.cov = cov
        self._dim = mu.size
        self.mu.setflags(write=False)
        self.cov.setflags(write=False)

    @property
    def dim(self) -> int:
        """Dimension of the support."""
        return self._dim

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.multivariate_normal(self.mu, self.cov, method="svd")

    def log_pdf(self, value) -> float:
        value = np.asarray(value, dtype=float).reshape(-1)
        if value.size != self._dim:
            raise DistributionError(
                f"value of dim {value.size} scored against MvGaussian of dim {self._dim}"
            )
        diff = value - self.mu
        # Pseudo-inverse / pseudo-determinant handle the degenerate
        # (rank-deficient) covariances that arise from deterministic
        # components of the state.
        sign, logdet = np.linalg.slogdet(self.cov)
        if sign <= 0:
            eigvals = np.linalg.eigvalsh(self.cov)
            pos = eigvals[eigvals > 1e-12]
            logdet = float(np.sum(np.log(pos)))
        maha = float(diff @ np.linalg.pinv(self.cov) @ diff)
        return -0.5 * (self._dim * np.log(2.0 * np.pi) + logdet + maha)

    def mean(self) -> np.ndarray:
        return self.mu

    def variance(self) -> np.ndarray:
        return self.cov

    def affine(self, a, b) -> "MvGaussian":
        """Distribution of ``A @ X + b`` for ``X ~ self``."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
        return MvGaussian(a @ self.mu + b, a @ self.cov @ a.T)

    def memory_words(self) -> int:
        return 2 + self._dim + self._dim * self._dim

    def __repr__(self) -> str:
        return f"MvGaussian(mu={np.array2string(self.mu, precision=4)}, dim={self._dim})"
