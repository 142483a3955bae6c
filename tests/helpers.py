"""Constructions that only the tests use."""

import numpy as np

from splitfp.operators import FixedPointMap, power_apply
from splitfp.projections import InfeasibleIntersection, ProjectionNoConvergence
from splitfp.spaces import norm


def power_map(T, n, name=None):
    """The n-th iterate power of T as a map in its own right."""
    return FixedPointMap(
        lambda x: power_apply(T, n, x, check_domain=False),
        T.domain,
        known_fixed_points=T.known_fixed_points,
        name=name or ("%s^%d" % (T.name or "T", n)),
    )


def full_orbit(T, x, n_max):
    """x, Tx, ..., T^{n_max} x with every power evaluated: the reference for
    ``operators._iterates``, which stops at a bitwise-fixed iterate."""
    out = [np.atleast_1d(np.asarray(x, dtype=float))]
    for _ in range(n_max):
        out.append(T(out[-1]))
    return out


class DykstraNoConvergence(ProjectionNoConvergence):
    """Dykstra did not reach the requested tolerance."""


def _dykstra(bodies, x, tol=1e-12, max_sweeps=10000,
             infeasible_gap=1e-8, infeasible_patience=1000):
    """Dykstra's corrected cyclic projection onto an intersection: the
    independent reference the exact projections are compared with.

    Convergence is judged by the in-sweep cycle gap: the largest move any
    single body projection makes during a sweep.  A small gap means the
    iterate is within tolerance of every member, hence feasible and (by
    Dykstra's correction bookkeeping) the metric projection.  On an empty
    intersection the sweep endpoint can freeze while the cycle keeps
    oscillating between the sets, so a gap that stays above
    ``infeasible_gap`` for ``infeasible_patience`` consecutive sweeps is
    declared infeasible.  That guess can be false on a thin intersection.
    """
    m = len(bodies)
    y = x.astype(float).copy()
    corrections = [np.zeros_like(y) for _ in range(m)]
    stalled = 0
    gap = np.inf
    for _ in range(max_sweeps):
        gap = 0.0
        for i, body in enumerate(bodies):
            z = y - corrections[i]
            moved = body._project(z)
            corrections[i] = moved - z
            gap = max(gap, norm(moved - y))
            y = moved
        if gap <= tol:
            return y
        if gap > infeasible_gap:
            stalled += 1
            if stalled >= infeasible_patience:
                raise InfeasibleIntersection(
                    "cycle gap %.3e stayed above %.1e for %d sweeps; "
                    "intersection looks empty" % (gap, infeasible_gap, stalled)
                )
        else:
            stalled = 0
    raise DykstraNoConvergence(
        "Dykstra stopped after %d sweeps with residual %.3e" % (max_sweeps, gap), gap
    )
