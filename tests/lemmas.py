"""Checkers for the lemmas the convergence proofs rest on.

The program never calls these; the tests use them as oracles:

- the two norm-expansion identities (:func:`polarization_check`);
- the characterisation of the metric projection
  (:func:`check_projection_inequalities`);
- the three equivalent forms of the iterate-power inequality
  (:func:`check_power_inequality_equivalences`);
- the strong monotonicity of ``I - f`` for a contraction ``f``
  (:func:`strong_monotonicity_of_complement`).
"""

from dataclasses import dataclass

import numpy as np

from splitfp.operators import (
    _FIXED_POINT_TOL,
    ClassMismatch,
    Contraction,
    FixedPointMap,
    StronglyMonotone,
    power_apply,
    verify_class,
)
from splitfp.projections import contains, project
from splitfp.spaces import DimensionMismatch, inner, norm


def polarization_check(x, y, alpha):
    """Evaluate both sides of the two norm-expansion identities.

    Returns ``((lhs1, rhs1), (lhs2, rhs2))`` where the first pair is the
    expansion of ||x+y||^2 and the second the convex-combination identity at
    weight ``alpha``.  The two members of each pair agree up to rounding.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise DimensionMismatch("dimension mismatch: %s vs %s" % (x.shape, y.shape))
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")

    def sq(v):  # squared norm via the inner product, no sqrt round-trip
        return inner(v, v)

    lhs1 = sq(x + y)
    rhs1 = sq(x) + 2.0 * inner(x, y) + sq(y)
    lhs2 = sq(alpha * x + (1.0 - alpha) * y)
    rhs2 = alpha * sq(x) + (1.0 - alpha) * sq(y) - alpha * (1.0 - alpha) * sq(x - y)
    return (lhs1, rhs1), (lhs2, rhs2)


@dataclass
class ProjectionInequalityReport:
    """Both sides of the projection inequalities at one (x, y) pair."""

    shrink_lhs: float          # ||x - P(x)||^2
    shrink_rhs: float          # ||y - x||^2 - ||y - P(x)||^2
    shrink_holds: bool
    anchored_checked: bool     # hypothesis <x - y, x - P(x)> <= 0 held
    anchored_lhs: float | None  # ||P(x) - x||
    anchored_rhs: float | None  # ||P(x) - y||
    anchored_holds: bool | None

    @property
    def passed(self):
        if not self.shrink_holds:
            return False
        return self.anchored_holds is not False


def check_projection_inequalities(S, x, y, slack=1e-9):
    """Check the two metric-projection inequalities at (x, y) with y in S.

    The first states ||x - P(x)||^2 <= ||y - x||^2 - ||y - P(x)||^2 for any
    y in S.  The second, ||P(x) - x|| <= ||P(x) - y||, is conditional on
    <x - y, x - P(x)> <= 0 and is flagged as skipped when that inner-product
    hypothesis fails at (x, y).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not contains(S, y):
        raise ValueError("y is not a member of S (projection moves it)")
    px = project(S, x)
    lhs = norm(x - px) ** 2
    rhs = norm(y - x) ** 2 - norm(y - px) ** 2
    shrink_holds = lhs <= rhs + slack
    hypothesis = inner(x - y, x - px) <= slack
    if hypothesis:
        a_lhs = norm(px - x)
        a_rhs = norm(px - y)
        return ProjectionInequalityReport(
            lhs, rhs, shrink_holds, True, a_lhs, a_rhs, a_lhs <= a_rhs + slack
        )
    return ProjectionInequalityReport(lhs, rhs, shrink_holds, False, None, None, None)


@dataclass
class PowerInequalityReport:
    """The three equivalent inequalities evaluated at one (x, y, n) triple."""

    distance_lhs: float
    distance_rhs: float
    distance_holds: bool
    forward_lhs: float
    forward_rhs: float
    forward_holds: bool
    backward_lhs: float
    backward_rhs: float
    backward_holds: bool

    @property
    def implication_ok(self):
        """Whenever the distance form holds, the two inner-product forms do."""
        if not self.distance_holds:
            return True
        return self.forward_holds and self.backward_holds


def check_power_inequality_equivalences(G, y, x, n, slack=1e-9):
    """Evaluate the three equivalent iterate-power inequalities at (x, y, n).

    ``y`` must be a fixed point of G and G must declare a
    (total quasi-)asymptotically nonexpansive class.  The distance form is
    that class's own inequality; the two inner-product forms move its
    surplus over ||x - y||^2 to the other side.  Returns a report whose
    ``implication_ok`` asserts the equivalence direction testable at a
    single sample: the distance form implies both inner-product forms.
    """
    view = getattr(G.declared_class, "total_quasi", None)
    if view is None:
        raise ClassMismatch(
            "operator must be (total quasi-)asymptotically nonexpansive or "
            "quasi-nonexpansive, got %r" % (G.declared_class,)
        )
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if norm(G(y) - y) > _FIXED_POINT_TOL:
        raise ValueError("y is not a fixed point of G")
    gx = power_apply(G, n, x, check_domain=False)
    d_lhs, d_rhs = view.sides(x, y, gx, n)
    bump = d_rhs - norm(x - y) ** 2
    f_lhs = 2.0 * inner(x - gx, x - y)
    f_rhs = norm(gx - x) ** 2 - bump
    b_lhs = 2.0 * inner(x - gx, y - gx)
    b_rhs = norm(gx - x) ** 2 + bump
    tol = slack * (1.0 + abs(d_rhs))
    return PowerInequalityReport(
        d_lhs, d_rhs, d_lhs <= d_rhs + tol,
        f_lhs, f_rhs, f_lhs >= f_rhs - tol,
        b_lhs, b_rhs, b_lhs <= b_rhs + tol,
    )


def strong_monotonicity_of_complement(f, samples=1000, seed=1):
    """``verify_class`` of ``I - f`` against ``StronglyMonotone(1 - k)``,
    for ``f`` declared ``Contraction(k)``.
    """
    if not isinstance(f.declared_class, Contraction):
        raise ClassMismatch("operator must declare Contraction(k)")
    complement = FixedPointMap(lambda x: x - f(x), f.domain)
    return verify_class(complement, StronglyMonotone(1.0 - f.declared_class.k),
                        samples=samples, seed=seed)
