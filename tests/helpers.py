"""Constructions that only the tests use."""

import numpy as np

from splitfp.operators import (
    CheckRecord,
    ClassReport,
    FixedPointMap,
    _Lcg,
    _sample_pair,
    power_apply,
    sample_point,
)
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


def verify_class_rows(T, claimed, samples=1000, seed=1, slack=1e-9, n_max=20,
                      scale=10.0, extra_points=(), extra_pairs=()):
    """``operators.verify_class`` one sample at a time: the reference its
    stacked evaluation is compared with.

    Each sample's orbit is evaluated at every power (:func:`full_orbit`),
    ``claimed.sides`` is called on single vectors, and each sample's worst
    case is picked with Python comparisons.
    """
    lcg = _Lcg(seed)
    powers = range(1, n_max + 1) if claimed.asymptotic else (1,)
    tasks = []
    if claimed.pairwise:
        for x, z in extra_pairs:
            tasks.append((np.atleast_1d(np.asarray(x, dtype=float)),
                          np.atleast_1d(np.asarray(z, dtype=float))))
        for i in range(samples):
            tasks.append(_sample_pair(T.domain, lcg, i, scale))
    else:
        for pt in extra_points:
            tasks.append((np.atleast_1d(np.asarray(pt, dtype=float)), None))
        for _ in range(samples):
            tasks.append((sample_point(T.domain, lcg, scale), None))

    records = []
    for idx, (x, z) in enumerate(tasks):
        with np.errstate(all="ignore"):   # Python floats do not warn
            records.append(_worst_case(T, claimed, idx, x, z, powers, slack))
    violations = [r for r in records if not r.passed]
    return ClassReport(T.name or "unnamed", repr(claimed), samples, seed,
                       records, violations)


def _worst_case(T, claimed, idx, x, z, powers, slack):
    xs = full_orbit(T, x, max(powers))
    if claimed.pairwise:
        zs = full_orbit(T, z, max(powers))
        cases = ((z, n, claimed.sides(x, z, xs[n], zs[n], n)) for n in powers)
    else:
        cases = ((p, n, claimed.sides(x, p, xs[n], n))
                 for p in T.known_fixed_points for n in powers)
    worst = None
    for partner, n, (lhs, rhs) in cases:
        lhs, rhs = float(lhs), float(rhs)
        if worst is None or lhs - rhs > worst[0]:
            worst = (lhs - rhs, lhs, rhs, n, partner)
    margin, lhs, rhs, n, partner = worst
    ok = margin <= slack * (1.0 + abs(rhs))
    return CheckRecord(idx, x.tolist(), partner.tolist(),
                       n if claimed.asymptotic else None, lhs, rhs, ok)


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
