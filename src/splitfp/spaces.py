"""Finite-dimensional real inner-product space primitives.

Vectors ("points") are one-dimensional float64 numpy arrays, frozen after
construction.  Linear maps are dense matrices carrying their transpose as
the adjoint and a write-once cache for the spectral norm estimated by
power iteration.
"""

import math

import numpy as np

__all__ = [
    "point",
    "inner",
    "norm",
    "DimensionMismatch",
    "PowerIterationError",
    "LinearMap",
    "estimate_norm_squared",
]


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimension."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


_FLOAT64 = np.dtype(float)


def _vector(x):
    """``x`` as a float64 array of at least one dimension.

    The same as ``np.atleast_1d(np.asarray(x, dtype=float))``, which
    returns a float64 ndarray of ndim >= 1 itself; that case is answered
    first, without the two numpy calls.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim:
        return x
    return np.atleast_1d(np.asarray(x, dtype=float))


def point(values):
    """Build an immutable float64 vector, validating finiteness and dim >= 1.

    Scalars are promoted to one-dimensional vectors.
    """
    arr = _vector(values).copy()
    if arr.ndim != 1:
        raise ValueError("a point must be one-dimensional, got shape %s" % (arr.shape,))
    if arr.size < 1:
        raise ValueError("a point needs at least one component")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point components must be finite")
    arr.flags.writeable = False
    return arr


def _check_same_dim(a, b):
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            "dimension mismatch: %d vs %d" % (a.shape[0], b.shape[0])
        )


def inner(a, b):
    """Euclidean inner product <a, b> = sum_i a_i b_i."""
    a = _vector(a)
    b = _vector(b)
    _check_same_dim(a, b)
    return float(np.dot(a, b))


def norm(a):
    """Norm induced by :func:`inner`, bit for bit ``np.linalg.norm``.

    This is numpy's own formula for a real array, ``sqrt(a.a)`` over
    ``ravel(order='K')``, without the ``linalg`` dispatch.
    """
    a = _vector(a).ravel(order="K")
    return math.sqrt(a.dot(a))


class LinearMap:
    """Bounded linear operator given by a dense real matrix.

    The adjoint is the transpose.  ``norm_bound`` is a write-once cache of
    an upper bound on the operator norm, filled by
    :func:`estimate_norm_squared`.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim == 0:
            m = m.reshape(1, 1)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        if m.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        self.matrix = m.copy()
        self.matrix.flags.writeable = False
        self._norm_sq = None  # write-once: largest eigenvalue of A^T A

    @property
    def rows(self):
        return self.matrix.shape[0]

    @property
    def cols(self):
        return self.matrix.shape[1]

    @property
    def norm_bound(self):
        """Cached operator-norm bound (sqrt of the spectral estimate), or None."""
        if self._norm_sq is None:
            return None
        return float(np.sqrt(self._norm_sq))

    def apply(self, x):
        x = _vector(x)
        if x.shape[0] != self.cols:
            raise DimensionMismatch(
                "map expects dimension %d, got %d" % (self.cols, x.shape[0])
            )
        return self.matrix @ x

    def apply_adjoint(self, z):
        z = _vector(z)
        if z.shape[0] != self.rows:
            raise DimensionMismatch(
                "adjoint expects dimension %d, got %d" % (self.rows, z.shape[0])
            )
        return self.matrix.T @ z

    def __repr__(self):
        return "LinearMap(%dx%d)" % (self.rows, self.cols)


def estimate_norm_squared(A, tol=1e-10, max_iters=10000):
    """Largest eigenvalue of A^T A (= ||A||^2 = ||A A*||) by power iteration.

    Deterministic all-ones start vector, Rayleigh-quotient convergence test
    ``|lam_new - lam| <= tol * lam_new``.  The square root is cached into
    ``A.norm_bound``.  Raises :class:`PowerIterationError` carrying the best
    estimate if the test is not met within ``max_iters``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if A._norm_sq is not None:
        return A._norm_sq
    if not np.any(A.matrix):
        raise ValueError("power iteration requires a nonzero map")
    M = A.matrix.T @ A.matrix
    n = M.shape[0]
    v = np.ones(n) / np.sqrt(n)
    lam = float(v @ (M @ v))
    restart_axis = 0
    for _ in range(max_iters):
        w = M @ v
        nw = norm(w)
        if nw == 0.0:
            # current vector sits in the kernel: restart along basis axes
            v = np.zeros(n)
            v[restart_axis % n] = 1.0
            restart_axis += 1
            lam = float(v @ (M @ v))
            continue
        v = w / nw
        lam_new = float(v @ (M @ v))
        if abs(lam_new - lam) <= tol * max(lam_new, np.finfo(float).tiny):
            A._norm_sq = lam_new
            return lam_new
        lam = lam_new
    raise PowerIterationError(
        "power iteration did not converge within %d iterations" % max_iters, lam
    )
