"""Projectable convex sets and metric projections.

Closed forms for boxes, halfspaces and balls.  An intersection projects
by the first of these paths that fits it (nested intersections are
flattened):

- an analytic interval, when it is one-dimensional and every member is
  interval-like;
- the exact dual active-set method of Goldfarb & Idnani, when every member
  is a box, a halfspace or the whole space;
- that method along the path x + s (c - x), when the members are such a
  polyhedron and one ball B(c, r);
- the intersection of the two spheres, for two balls and no row;
- otherwise Dykstra's corrected cyclic projection.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import DimensionMismatch, _vector, norm

__all__ = [
    "ConvexBody",
    "WholeSpace",
    "Box",
    "Halfspace",
    "Ball",
    "Intersection",
    "project",
    "contains",
    "halfspace_from_distance_dominance",
    "InfeasibleIntersection",
    "SeparatingHyperplane",
    "ProjectionNoConvergence",
    "DykstraNoConvergence",
]


class InfeasibleIntersection(RuntimeError):
    """The intersection is empty.

    ``certificate`` is one of:

    - a Farkas vector y >= 0 with y^T b < 0 for the rows (N, b) of the
      polyhedral members (the intersection's ``polyhedron`` when it has
      one), and y^T N zero up to the dependence threshold: it proves that no
      point of the set lies within -y^T b / ||y^T N|| of the origin
      (everywhere when y^T N = 0), so nearly parallel rows that cross
      farther out are taken as empty;
    - a ``SeparatingHyperplane`` between the polyhedral members and the
      ball, or between two balls;
    - None on the interval and Dykstra paths.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class SeparatingHyperplane:
    """<normal, z> <= offset on one part and >= offset + gap on the other.

    ``normal`` is a read-only unit vector and ``gap`` > 0.  The first part
    is the polyhedron of an intersection with one ball, or the first of two
    balls; the second is the (other) ball.
    """

    normal: np.ndarray
    offset: float
    gap: float

    def __post_init__(self):
        self.normal.flags.writeable = False


class ProjectionNoConvergence(RuntimeError):
    """An iterative projection stopped short of its tolerance; carries the residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class DykstraNoConvergence(ProjectionNoConvergence):
    """Dykstra did not reach the requested tolerance."""


class ConvexBody:
    """Base class; concrete sets implement ``_project`` and ``dim``.

    ``polyhedron`` is ``(N, b)``, read-only arrays with unit-norm rows such
    that the body is {z : N z <= b}, for a box, a halfspace, the whole space
    and an intersection of those; None for any other body.
    """

    polyhedron = None

    def project(self, x):
        return project(self, x)


@dataclass(frozen=True)
class WholeSpace(ConvexBody):
    dim: int

    def _project(self, x):
        return x.copy()

    @cached_property
    def polyhedron(self):
        return _rows(np.zeros((0, self.dim)), np.zeros(0))


class Box(ConvexBody):
    """Axis-aligned box; +-inf entries make a side unbounded."""

    def __init__(self, lower, upper):
        lo = _vector(lower)
        hi = _vector(upper)
        if lo.shape != hi.shape:
            raise DimensionMismatch("box bounds differ in dimension")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        self.lower = lo.copy()
        self.upper = hi.copy()
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False

    @property
    def dim(self):
        return self.lower.shape[0]

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)

    @cached_property
    def polyhedron(self):
        """One +-e_j row per finite bound; None for a NaN bound."""
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            return None
        eye = np.eye(self.dim)
        upper, lower = np.isfinite(self.upper), np.isfinite(self.lower)
        return _rows(np.concatenate([eye[upper], -eye[lower]]),
                     np.concatenate([self.upper[upper], -self.lower[lower]]))

    def __repr__(self):
        return "Box(%s, %s)" % (self.lower.tolist(), self.upper.tolist())


_SMALLEST_NORMAL = np.finfo(float).tiny


class Halfspace(ConvexBody):
    """{z : <a, z> <= b}.  A zero normal is the whole space (requires b >= 0).

    An offset of -inf describes the empty set: projecting onto it raises
    :class:`InfeasibleIntersection`.

    A finite nonzero normal whose ``a.a`` underflows to a subnormal or zero,
    or overflows, is stored with (a, b) scaled by one power of two, which
    brings its largest component into [1/2, 1) and describes the same set.
    Every other halfspace keeps the bits it was given.
    """

    def __init__(self, a, b):
        a = _vector(a).copy()
        b = float(b)
        with np.errstate(over="ignore", under="ignore"):
            norm_sq = float(np.dot(a, a))
            if not _SMALLEST_NORMAL <= norm_sq < np.inf:
                top = float(np.abs(a).max(initial=0.0))
                if 0.0 < top < np.inf:
                    shift = -math.frexp(top)[1]
                    a, b = np.ldexp(a, shift), float(np.ldexp(b, shift))
                    norm_sq = float(np.dot(a, a))
        a.flags.writeable = False
        self.a = a
        self.b = b
        self._norm_sq = norm_sq
        if self._norm_sq == 0.0 and self.b < 0.0:
            raise ValueError("zero normal with negative offset describes the empty set")

    @property
    def dim(self):
        return self.a.shape[0]

    @property
    def is_whole_space(self):
        return self._norm_sq == 0.0

    def _project(self, x):
        if self.is_whole_space:
            return x.copy()
        if self.b == -np.inf:
            raise InfeasibleIntersection("halfspace %r is empty" % (self,))
        slack = float(np.dot(self.a, x)) - self.b
        if slack <= 0.0:
            return x.copy()
        return x - (slack / self._norm_sq) * self.a

    @cached_property
    def polyhedron(self):
        """The normalized row, no row for a zero normal, None if not finite."""
        if not (np.isfinite(self.b) and np.isfinite(self.a).all()):
            return None
        if self.is_whole_space:
            return _rows(np.zeros((0, self.dim)), np.zeros(0))
        scale = np.sqrt(self._norm_sq)
        return _rows((self.a / scale)[None, :], np.array([self.b / scale]))

    def __repr__(self):
        return "Halfspace(a=%s, b=%s)" % (self.a.tolist(), self.b)


class Ball(ConvexBody):
    def __init__(self, center, radius):
        center = _vector(center).copy()
        center.flags.writeable = False
        self.center = center
        self.radius = float(radius)
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")

    @property
    def dim(self):
        return self.center.shape[0]

    def _project(self, x):
        d = x - self.center
        dist = norm(d)
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d

    def __repr__(self):
        return "Ball(center=%s, radius=%s)" % (self.center.tolist(), self.radius)


class Intersection(ConvexBody):
    """Intersection of convex bodies of one dimension.

    Its ``polyhedron`` stacks the rows of its members (nested intersections
    included), and is None when any member has none.
    """

    def __init__(self, bodies):
        bodies = tuple(bodies)
        if not bodies:
            raise ValueError("intersection of an empty family is not represented")
        dims = {b.dim for b in bodies}
        if len(dims) != 1:
            raise DimensionMismatch("intersection members differ in dimension")
        self.bodies = bodies

    @property
    def dim(self):
        return self.bodies[0].dim

    def __repr__(self):
        return "Intersection(%d bodies)" % len(self.bodies)

    @cached_property
    def _parts(self):
        """``((N, b), balls)``: the stacked rows of the members that have
        them and the balls, nested intersections flattened; None when some
        member is neither, or a ball is not finite."""
        rows, balls = [(np.zeros((0, self.dim)), np.zeros(0))], []
        for body in self.bodies:
            if isinstance(body, Intersection):
                parts = body._parts
                if parts is None:
                    return None
                rows.append(parts[0])
                balls.extend(parts[1])
            elif isinstance(body, Ball):
                if not (np.isfinite(body.center).all() and np.isfinite(body.radius)):
                    return None
                balls.append(body)
            elif body.polyhedron is None:
                return None
            else:
                rows.append(body.polyhedron)
        return (_rows(np.concatenate([N for N, _ in rows]),
                      np.concatenate([b for _, b in rows])), tuple(balls))

    @cached_property
    def polyhedron(self):
        if self._parts is None or self._parts[1]:
            return None
        return self._parts[0]

    def _project(self, x):
        interval = _as_interval_1d(self)
        if interval is not None:
            lo, hi = interval
            if lo > hi or lo == np.inf or hi == -np.inf:
                raise InfeasibleIntersection(
                    "1-D intersection is empty: [%g, %g]" % (lo, hi)
                )
            return np.clip(x, lo, hi)
        if self._parts is not None:
            (N, b), balls = self._parts
            if not balls:
                return _project_polyhedron(N, b, x)[0]
            if len(balls) == 1:
                return _project_polyhedron_ball(N, b, balls[0], x)
            if len(balls) == 2 and not b.size:
                return _project_lens(*balls, x)
        return _dykstra(self.bodies, x)


def _rows(N, b):
    N.flags.writeable = False
    b.flags.writeable = False
    return N, b


# Row p counts as violated when z lies beyond it by more than this times
# 1 + max(||x||, ||z||) + |b_p|, the scale of the rounding in its slack; an
# entering row whose part orthogonal to the active rows is shorter than
# _DEPENDENT (rows have unit norm) is taken as their linear combination.
_VIOLATION_TOL = 1e-12
_DEPENDENT = 1e-12


def _project_polyhedron(N, b, x):
    """Exact projection of ``x`` onto {z : N z <= b}, N with unit-norm rows.

    The dual active-set method of Goldfarb & Idnani (1983) for
    min ||z - x||^2 / 2: start from z = x with no active row, repeatedly
    enter the most violated row p and raise its multiplier, moving z along
    the part d of N_p orthogonal to the active rows while their multipliers
    change by -t r (N_A^T r = the rest of N_p).  The full step makes row p
    tight and active; a partial step stops where an active multiplier
    reaches zero and drops that row.  Active rows stay linearly
    independent, so at most ``len(x)`` are active.  When d = 0 and no
    multiplier decreases, N_p lies in the cone of the negated active rows
    (up to _DEPENDENT): y = e_p - r on the active rows is a Farkas
    certificate of emptiness.  Returns z and the list of active rows.
    """
    z = x.copy()
    active = []
    if not b.size:
        return z, active
    x_norm = norm(x)
    row_tol = _VIOLATION_TOL * (1.0 + np.abs(b))

    def excess(z):
        """How far z lies beyond each row, less the row's tolerance."""
        scale = max(x_norm, norm(z))
        return N @ z - b - row_tol - _VIOLATION_TOL * scale

    u = np.zeros(b.size)
    over = excess(z)
    p = int(np.argmax(over))
    max_steps = 10 * (b.size + x.size)
    for _ in range(max_steps):
        if not over[p] > 0.0:   # a NaN point comes back as it went in
            return z, active
        if active:
            columns = N[active].T
            r = np.linalg.lstsq(columns, N[p], rcond=None)[0]
            d = N[p] - columns @ r
        else:
            r = np.zeros(0)
            d = N[p]
        dd = float(d @ d)
        violation = float(N[p] @ z - b[p])
        full = violation / dd if dd > _DEPENDENT ** 2 else np.inf
        partial, block = np.inf, None
        for k, rk in zip(active, r):
            if rk > 0.0 and u[k] / rk < partial:
                partial, block = u[k] / rk, k
        if block is None and full == np.inf:
            y = np.zeros(b.size)
            y[p] = 1.0
            y[active] = -r
            if float(y @ b) < 0.0:
                y.flags.writeable = False
                raise InfeasibleIntersection(
                    "polyhedral intersection is empty: row %d lies in the cone "
                    "of the negated active rows (Farkas y^T b = %.3e, "
                    "||y^T N|| = %.3e)" % (p, float(y @ b),
                                          norm(y @ N)),
                    certificate=y)
            raise ProjectionNoConvergence(
                "row %d depends on the active rows but gives no Farkas "
                "certificate; violation %.3e" % (p, violation), violation)
        t = min(full, partial)
        z = z - t * d
        u[active] -= t * r
        u[p] += t
        if full <= partial:
            active.append(p)
            over = excess(z)
            p = int(np.argmax(over))
        else:
            active.remove(block)
            u[block] = 0.0
    violation = float(np.max(N @ z - b))
    raise ProjectionNoConvergence(
        "active-set projection stopped after %d steps with violation %.3e"
        % (max_steps, violation), violation)


# Steps of the search for the ball multiplier; each costs one projection
# onto the polyhedron, and plain bisection of [0, 1] reaches the spacing of
# doubles near 1 within 53.
_BALL_STEPS = 100


def _project_polyhedron_ball(N, b, ball, x):
    """Exact projection of ``x`` onto K ∩ ball, K = {z : N z <= b}.

    The KKT point with ball multiplier mu is P_K(x + s (c - x)) with
    s = mu / (1 + mu), and ||P_K(x + s (c - x)) - c|| does not increase
    with s, so the projection is the image at the smallest s in [0, 1]
    whose image lies in the ball.  The set is empty exactly when
    ||P_K(c) - c|| > r; the hyperplane through P_K(c) normal to c - P_K(c)
    then separates K from the ball.  On each affine piece of P_K (a fixed
    active row set) the image moves along the part of c - x orthogonal to
    the active rows, so reaching the sphere is a quadratic in s, solved in
    closed form and confirmed by one more projection onto K; a candidate
    outside the bracket of s values seen on either side is replaced by the
    bracket's midpoint.
    """
    c, r = ball.center, ball.radius
    scale = max(norm(x), norm(c))
    tol = _VIOLATION_TOL * (1.0 + scale + r)
    z, active = _project_polyhedron(N, b, x)
    gap = norm(z - c) - r
    if not gap > tol:   # in the ball, or a NaN point
        return z
    nearest, _ = _project_polyhedron(N, b, c)
    reach = norm(c - nearest)
    if reach > r:
        normal = (c - nearest) / reach
        raise InfeasibleIntersection(
            "the ball lies %.3e beyond the polyhedron" % (reach - r),
            certificate=SeparatingHyperplane(normal, float(normal @ nearest), reach - r))
    direction = c - x
    lo, hi, s = 0.0, 1.0, 0.0
    for _ in range(_BALL_STEPS):
        rate = direction
        if active:
            rows = N[active].T
            rate = direction - rows @ np.linalg.lstsq(rows, direction, rcond=None)[0]
        s_next = s + _sphere_crossing(z - c, rate, r)
        s = s_next if lo < s_next < hi else 0.5 * (lo + hi)
        z, active = _project_polyhedron(N, b, x + s * direction)
        gap = norm(z - c) - r
        if abs(gap) <= tol:
            return z
        if gap > 0.0:
            lo = s
        else:
            hi = s
    raise ProjectionNoConvergence(
        "ball multiplier search stopped after %d steps %.3e from the sphere"
        % (_BALL_STEPS, abs(gap)), abs(gap))


def _sphere_crossing(p, v, r):
    """The smaller t with ||p + t v|| = r, or NaN when there is none."""
    a, h, q = float(v @ v), float(p @ v), float(p @ p) - r * r
    disc = h * h - a * q
    if not (a > 0.0 and disc >= 0.0):
        return np.nan
    root = np.sqrt(disc)
    # the two forms avoid cancelling -h against the root
    return q / (root - h) if h < 0.0 else (-h - root) / a


def _project_lens(first, second, x):
    """Exact projection of ``x`` onto the intersection of two balls.

    When neither ball's own projection lies in the other ball, both
    constraints are active and the projection is the nearest point of the
    intersection of the two spheres: the sphere of radius sqrt(r1^2 - t^2)
    about c1 + t u in the hyperplane normal to u = (c2 - c1) / ||c2 - c1||.
    The balls are disjoint exactly when ||c2 - c1|| > r1 + r2.
    """
    c1, r1, c2, r2 = first.center, first.radius, second.center, second.radius
    apart = norm(c2 - c1)
    if apart > r1 + r2:
        normal = (c2 - c1) / apart
        raise InfeasibleIntersection(
            "the balls lie %.3e apart" % (apart - r1 - r2),
            certificate=SeparatingHyperplane(normal, float(normal @ c1) + r1,
                                             apart - r1 - r2))
    scale = max(norm(v) for v in (x, c1, c2))
    tol = _VIOLATION_TOL * (1.0 + scale + r1 + r2)
    for ball, other in ((first, second), (second, first)):
        z = ball._project(x)
        if not norm(z - other.center) > other.radius + tol:
            return z
    u = (c2 - c1) / apart
    t = (apart * apart + r1 * r1 - r2 * r2) / (2.0 * apart)
    centre = c1 + t * u
    v = x - centre
    v = v - float(v @ u) * u
    return centre + (np.sqrt(max(r1 * r1 - t * t, 0.0)) / norm(v)) * v


def _as_interval_1d(body):
    """Collapse a 1-D body made of boxes/halfspaces/balls to [lo, hi], or None.

    Intersections are flattened recursively.  Returns None when the body (or
    a member) is not interval-like or not one-dimensional.
    """
    if body.dim != 1:
        return None
    if isinstance(body, WholeSpace):
        return (-np.inf, np.inf)
    if isinstance(body, Box):
        return (body.lower[0], body.upper[0])
    if isinstance(body, Ball):
        return (body.center[0] - body.radius, body.center[0] + body.radius)
    if isinstance(body, Halfspace):
        if body.is_whole_space:
            return (-np.inf, np.inf)
        a, b = body.a[0], body.b
        return (b / a, np.inf) if a < 0 else (-np.inf, b / a)
    if isinstance(body, Intersection):
        lo, hi = -np.inf, np.inf
        for member in body.bodies:
            sub = _as_interval_1d(member)
            if sub is None:
                return None
            lo, hi = max(lo, sub[0]), min(hi, sub[1])
        return (lo, hi)
    return None


def _dykstra(bodies, x, tol=1e-12, max_sweeps=10000,
             infeasible_gap=1e-8, infeasible_patience=1000):
    """Dykstra's corrected cyclic projection onto an intersection.

    Convergence is judged by the in-sweep cycle gap: the largest move any
    single body projection makes during a sweep.  A small gap means the
    iterate is within tolerance of every member, hence feasible and (by
    Dykstra's correction bookkeeping) the metric projection.  On an empty
    intersection the sweep endpoint can freeze while the cycle keeps
    oscillating between the sets, so a gap that stays above
    ``infeasible_gap`` for ``infeasible_patience`` consecutive sweeps is
    declared infeasible.
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


def _point_of(S, x):
    x = _vector(x)
    if x.shape[0] != S.dim:
        raise DimensionMismatch(
            "point dimension %d does not match set dimension %d" % (x.shape[0], S.dim)
        )
    return x


def project(S, x):
    """Metric projection of ``x`` onto the convex body ``S``."""
    return S._project(_point_of(S, x))


def contains(S, x, tol=1e-10):
    """Membership test via the projection: x in S iff project(S, x) == x.

    The whole space is answered without projecting: its projection moves a
    finite x by exactly 0, and a NaN or infinite entry gives a NaN distance,
    so x is in it iff every entry is finite.
    """
    x = _point_of(S, x)
    if isinstance(S, WholeSpace):
        return bool(np.isfinite(x).all()) and 0.0 <= tol
    return norm(project(S, x) - x) <= tol


def halfspace_from_distance_dominance(near, far):
    """The set of points at least as close to ``near`` as to ``far``.

    {z : ||near - z|| <= ||far - z||} written as the halfspace
    {z : 2<far - near, z> <= ||far||^2 - ||near||^2}; the perpendicular
    bisector is the boundary.  Equal inputs give the whole space.
    """
    near = _vector(near)
    far = _vector(far)
    if near.shape != far.shape:
        raise DimensionMismatch("near/far dimension mismatch")
    if np.array_equal(near, far):
        return WholeSpace(near.shape[0])
    a = 2.0 * (far - near)
    b = float(np.dot(far, far) - np.dot(near, near))
    return Halfspace(a, b)
