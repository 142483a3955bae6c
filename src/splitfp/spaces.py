"""Finite-dimensional real inner-product space primitives.

Vectors ("points") are one-dimensional float64 numpy arrays, frozen after
construction.  Linear maps are dense matrices carrying their transpose as
the adjoint; their spectral norm is estimated by power iteration.
"""

import math

import numpy as np

__all__ = [
    "point",
    "inner",
    "norm",
    "row_norms",
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
    ``ravel(order='K')``, without the ``linalg`` dispatch.  Only where
    ``a.a`` overflows for a finite ``a`` is the norm taken of ``a / m``,
    m = max |a_i|, and scaled back: ``m sqrt((a/m).(a/m))``.  ``np.vdot``
    takes ``a.a`` by the same dot kernel as ``a.dot(a)``, but does not warn
    where it overflows.  A Python float v (exactly that type) is a 1-D
    point: ``sqrt(v*v)``, or ``|v|`` where ``v*v`` overflows, as the scaled
    form gives.
    """
    if type(a) is float:
        r = math.sqrt(a * a)
        return abs(a) if r == math.inf and math.isfinite(a) else r
    if not (type(a) is np.ndarray and a.dtype is _FLOAT64 and a.ndim == 1
            and a.flags.c_contiguous):   # else ravel, as a strided vdot sums in another order
        a = _vector(a).ravel(order="K")
    r = math.sqrt(np.vdot(a, a))
    if r == math.inf and np.isfinite(a).all():
        m = float(np.abs(a).max())
        r = m * math.sqrt((a / m).dot(a / m))
    return r


def row_norms(a):
    """The norm of each row of ``a`` along its last axis, with :func:`norm`'s
    bits: an array, or a 0-d numpy float64 for a single vector.

    ``np.vecdot`` of a row is the BLAS ``a.dot(a)`` of ``norm``'s
    ``np.vdot``, and a finite row whose ``a.a`` overflows takes ``norm``'s
    scaled form.  It raises no warning: an overflowing ``a.a``, and the 0/0
    and inf/inf the scaled form meets on zero and infinite rows, stay
    inside its ``errstate``.
    """
    with np.errstate(all="ignore"):
        out = np.sqrt(np.vecdot(a, a))
        if np.isinf(out).any():
            m = np.abs(a).max(-1)
            s = a / m[..., None]
            out = np.where(np.isinf(out) & np.isfinite(m), m * np.sqrt(np.vecdot(s, s)), out)[()]
    return out


class LinearMap:
    """Bounded linear operator given by a dense real matrix.

    The adjoint is the transpose, bound once as a read-only view.
    ``rows`` and ``cols`` are the matrix's shape.  Each product is bound at
    construction with the bits of ``matrix @ x`` (``matrix.T @ z`` for the
    adjoint).  Over two or more contracted entries (``cols`` for ``apply``,
    ``rows`` for the adjoint) it is ``ndarray.dot``, one BLAS call, about
    half the cost of a small matmul; its bits match only on a C- or
    F-contiguous matrix, which the map's own copy and its transpose are.
    Over one entry it stays ``@``: the matmul sums from +0.0, turning a
    -0.0 product into +0.0, where ``dot`` keeps -0.0.  A 1x1 map takes a
    Python float v to ``0.0 + m*v``, the same bits.
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
        self._adjoint = self.matrix.T
        self.rows, self.cols = m.shape
        self._entry = float(m[0, 0]) if m.shape == (1, 1) else None
        self._product = self.matrix.dot if self.cols > 1 else self.matrix.__matmul__
        self._adjoint_product = self._adjoint.dot if self.rows > 1 else self._adjoint.__matmul__

    def apply(self, x):
        if type(x) is float and self._entry is not None:
            return 0.0 + self._entry * x
        x = _vector(x)
        if x.shape[0] != self.cols:
            raise DimensionMismatch(
                "map expects dimension %d, got %d" % (self.cols, x.shape[0])
            )
        return self._product(x)

    def apply_adjoint(self, z):
        if type(z) is float and self._entry is not None:
            return 0.0 + self._entry * z
        z = _vector(z)
        if z.shape[0] != self.rows:
            raise DimensionMismatch(
                "adjoint expects dimension %d, got %d" % (self.rows, z.shape[0])
            )
        return self._adjoint_product(z)

    def __repr__(self):
        return "LinearMap(%dx%d)" % (self.rows, self.cols)


def estimate_norm_squared(A, tol=1e-10, max_iters=10000):
    """Largest eigenvalue of A^T A (= ||A||^2 = ||A A*||) by power iteration.

    Deterministic all-ones start vector, Rayleigh-quotient convergence test
    ``|lam_new - lam| <= tol * lam_new``.  Raises
    :class:`PowerIterationError` carrying the best estimate if the test is
    not met within ``max_iters``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
            return lam_new
        lam = lam_new
    raise PowerIterationError(
        "power iteration did not converge within %d iterations" % max_iters, lam
    )
