"""Projectable convex sets and metric projections.

Closed forms for boxes, halfspaces and balls.  An intersection (nested
ones flattened) projects exactly, by one of two paths:

- in 1-D, an analytic interval;
- otherwise, rows K = {z : N z <= b} (the boxes, halfspaces and whole
  spaces) plus a set S of balls.  With no ball this is the dual active-set
  method of Goldfarb & Idnani, and with one ball B(c, r) that method along
  the path x + s (c - x).  Two or more balls reduce to these: for each ball
  i, the projection onto K and the other balls, if it lies in ball i, is
  the answer; if none does, every sphere is active, and the answer is the
  projection onto (K ∩ the radical hyperplanes of the spheres) ∩ one ball.
  Memoised by subset, m balls cost at most 2^m one-ball projections.
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
]


class InfeasibleIntersection(RuntimeError):
    """The intersection is empty.

    ``certificate`` refers to the set's own members and is one of:

    - a Farkas vector y >= 0 with y^T b < 0 for the rows (N, b) of the
      polyhedral members (the intersection's ``polyhedron`` when it has
      one), and y^T N zero up to the dependence threshold: it proves that no
      point of the set lies within -y^T b / ||y^T N|| of the origin
      (everywhere when y^T N = 0), so nearly parallel rows that cross
      farther out are taken as empty (a member empty by itself has the rows
      z_1 <= -1 and -z_1 <= -1);
    - a ``SeparatingHyperplane`` between the polyhedral members and one
      ball, or between two balls;
    - None on the interval path, for a lone empty member, and when only the
      radical hyperplanes of some balls, taken as active, show the
      emptiness; the message names those balls.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class SeparatingHyperplane:
    """<normal, z> <= offset on one part and >= offset + gap on the other.

    ``normal`` is a read-only unit vector and ``gap`` > 0.  The first part
    is the polyhedron of an intersection (its rows), or one of its balls;
    the second is another of its balls.
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


class ConvexBody:
    """Base class; concrete sets implement ``_project``, ``dim``, ``_parts``
    and ``_interval``.

    ``_parts`` is ``((N, b), balls)``, read-only rows with unit norms and
    balls whose intersection is the body, and ``_interval`` is a 1-D body as
    (lo, hi).  They hold when ``_defined``: numbers with a NaN, or an
    infinite normal or centre, describe no set, and project to NaN.
    """

    _defined = True

    def project(self, x):
        return project(self, x)

    @property
    def polyhedron(self):
        rows, balls = self._parts
        return None if balls else rows


def _no_rows(dim):
    return _rows(np.zeros((0, dim)), np.zeros(0))


def _empty_rows(dim):
    """z_1 <= -1 and -z_1 <= -1: the rows of a body that is empty by itself."""
    e = np.eye(dim)[:1]
    return _rows(np.concatenate([e, -e]), np.array([-1.0, -1.0]))


@dataclass(frozen=True)
class WholeSpace(ConvexBody):
    dim: int

    def _project(self, x):
        return x.copy()

    @cached_property
    def _parts(self):
        return _no_rows(self.dim), ()

    _interval = (-np.inf, np.inf)


class Box(ConvexBody):
    """Axis-aligned box; +-inf entries make a side unbounded.

    Equal infinite bounds on one axis describe the empty set: projecting
    onto it raises :class:`InfeasibleIntersection`.
    """

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
        self._empty = bool(np.any(np.isinf(lo) & (lo == hi)))
        self._defined = not (np.isnan(lo).any() or np.isnan(hi).any())

    @property
    def dim(self):
        return self.lower.shape[0]

    def _project(self, x):
        if self._empty:
            raise InfeasibleIntersection("box %r is empty" % (self,))
        return np.clip(x, self.lower, self.upper)

    @cached_property
    def _parts(self):
        """One +-e_j row per finite bound."""
        if self._empty:
            return _empty_rows(self.dim), ()
        eye = np.eye(self.dim)
        upper, lower = self.upper != np.inf, self.lower != -np.inf
        return _rows(np.concatenate([eye[upper], -eye[lower]]),
                     np.concatenate([self.upper[upper], -self.lower[lower]])), ()

    @cached_property
    def _interval(self):
        return (self.lower[0], self.upper[0])

    def __repr__(self):
        return "Box(%s, %s)" % (self.lower.tolist(), self.upper.tolist())


_SMALLEST_NORMAL = np.finfo(float).tiny


class Halfspace(ConvexBody):
    """{z : <a, z> <= b}.  A zero normal (requires b >= 0) or an offset of
    +inf is the whole space.

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
        self._defined = norm_sq < np.inf and b == b   # a.a is finite iff a is
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
    def _parts(self):
        """The normalized row; none for the whole space, a NaN row for no set."""
        if not self._defined:   # a NaN or an infinite normal: a / |a| is NaN
            return _rows(np.full((1, self.dim), np.nan), np.full(1, np.nan)), ()
        if self.is_whole_space or self.b == np.inf:
            return _no_rows(self.dim), ()
        if self.b == -np.inf:
            return _empty_rows(self.dim), ()
        scale = np.sqrt(self._norm_sq)
        return _rows((self.a / scale)[None, :], np.array([self.b / scale])), ()

    @cached_property
    def _interval(self):
        if self.is_whole_space:
            return (-np.inf, np.inf)
        a, b = self.a[0], self.b
        return (b / a, np.inf) if a < 0 else (-np.inf, b / a)

    def __repr__(self):
        return "Halfspace(a=%s, b=%s)" % (self.a.tolist(), self.b)


class Ball(ConvexBody):
    """Closed ball; a radius of +inf (with a finite centre) is the whole space."""

    def __init__(self, center, radius):
        center = _vector(center).copy()
        center.flags.writeable = False
        self.center = center
        self.radius = float(radius)
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")
        self._defined = bool(np.isfinite(center).all()) and self.radius == self.radius

    @property
    def dim(self):
        return self.center.shape[0]

    def _project(self, x):
        d = x - self.center
        dist = norm(d)
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d

    @cached_property
    def _parts(self):
        return _no_rows(self.dim), (() if self.radius == np.inf else (self,))

    @cached_property
    def _interval(self):
        c, r = self.center[0], self.radius
        return (c - r, c + r)

    def __repr__(self):
        return "Ball(center=%s, radius=%s)" % (self.center.tolist(), self.radius)


class Intersection(ConvexBody):
    """Intersection of convex bodies of one dimension.

    Its ``_parts`` stack the rows and collect the balls of its members,
    nested intersections included.
    """

    def __init__(self, bodies):
        bodies = tuple(bodies)
        if not bodies:
            raise ValueError("intersection of an empty family is not represented")
        dims = {b.dim for b in bodies}
        if len(dims) != 1:
            raise DimensionMismatch("intersection members differ in dimension")
        self.bodies = bodies
        self._defined = all(body._defined for body in bodies)

    @property
    def dim(self):
        return self.bodies[0].dim

    def __repr__(self):
        return "Intersection(%d bodies)" % len(self.bodies)

    @cached_property
    def _parts(self):
        parts = [body._parts for body in self.bodies]
        return (_rows(np.concatenate([N for (N, _), _ in parts]),
                      np.concatenate([b for (_, b), _ in parts])),
                tuple(ball for _, balls in parts for ball in balls))

    @cached_property
    def _interval(self):
        lo, hi = -np.inf, np.inf
        for body in self.bodies:
            sub = body._interval
            lo, hi = max(lo, sub[0]), min(hi, sub[1])
        return (lo, hi)

    def _project(self, x):
        if self.dim == 1:
            lo, hi = self._interval
            if lo > hi or lo == np.inf or hi == -np.inf:
                raise InfeasibleIntersection(
                    "1-D intersection is empty: [%g, %g]" % (lo, hi)
                )
            return np.clip(x, lo, hi)
        (N, b), balls = self._parts
        if not balls:
            return _project_polyhedron(N, b, x)[0]
        if len(balls) == 1:
            return _project_polyhedron_ball(N, b, balls[0], x)
        return _project_balls(N, b, balls, x)


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


def _project_balls(N, b, balls, x):
    """Exact projection of ``x`` onto K ∩ balls, K = {z : N z <= b}, by the
    reduction in the module docstring; each subset of the balls is solved
    once."""
    solved = {}

    def solve(subset):
        if subset in solved:
            return solved[subset]
        if len(subset) == 1:
            z = _project_polyhedron_ball(N, b, balls[subset[0]], x)
        else:
            for i in subset:
                z = solve(tuple(j for j in subset if j != i))
                c, r = balls[i].center, balls[i].radius
                # in ball i, to the tolerance its sphere is reached with
                if norm(z - c) <= r + _VIOLATION_TOL * (1.0 + max(norm(x), norm(c)) + r):
                    break
            else:
                z = _project_on_spheres(N, b, [balls[j] for j in subset], x)
        solved[subset] = z
        return z

    return solve(tuple(range(len(balls))))


def _project_on_spheres(N, b, balls, x):
    """Projection of ``x`` onto K ∩ balls when every sphere is active there:
    onto (K ∩ the radical hyperplanes ||z - c_1||^2 - r_1^2 =
    ||z - c_i||^2 - r_i^2) ∩ B_1, as every ball is B_1 on those hyperplanes.

    Two disjoint balls raise a ``SeparatingHyperplane`` between them.  Any
    other emptiness found here is certified by rows that are not the set's,
    so it raises with no certificate.
    """
    c1, r1 = balls[0].center, balls[0].radius
    rows, offsets = [N], [b]
    for ball in balls[1:]:
        apart = norm(ball.center - c1)
        u = (ball.center - c1) / apart if apart else None
        if apart > r1 + ball.radius:
            raise InfeasibleIntersection(
                "the balls lie %.3e apart" % (apart - r1 - ball.radius),
                certificate=SeparatingHyperplane(u, float(u @ c1) + r1,
                                                 apart - r1 - ball.radius))
        if u is not None:   # equal centres with both spheres active: equal balls, no row
            t = float(u @ c1) + (apart * apart + r1 * r1 - ball.radius ** 2) / (2.0 * apart)
            rows.append(np.array([u, -u]))
            offsets.append(np.array([t, -t]))
    try:
        return _project_polyhedron_ball(np.concatenate(rows), np.concatenate(offsets),
                                        balls[0], x)
    except InfeasibleIntersection as err:
        raise InfeasibleIntersection("intersection is empty: with the spheres of %s all "
                                     "active, %s" % (", ".join(map(repr, balls)), err)) from None


def _point_of(S, x):
    x = _vector(x)
    if x.shape[0] != S.dim:
        raise DimensionMismatch(
            "point dimension %d does not match set dimension %d" % (x.shape[0], S.dim)
        )
    return x


def project(S, x):
    """Metric projection of ``x`` onto the convex body ``S``; all NaN when
    the numbers of ``S`` describe no set."""
    x = _point_of(S, x)
    return S._project(x) if S._defined else np.full(S.dim, np.nan)


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
