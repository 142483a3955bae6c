"""Projectable convex sets and metric projections.

Closed forms for boxes, halfspaces and balls.  An intersection (nested
ones flattened), and a :class:`CutSet` (a set cut by a growing family of
sets, which holds only the fold and takes each new cut in once), project
exactly, by one of two paths:

- in 1-D, an analytic interval;
- otherwise, rows K = {z : N z <= b} (the boxes, halfspaces and whole
  spaces) plus a set S of balls.  With no ball this is the dual active-set
  method of Goldfarb & Idnani, and with one ball B(c, r) that method along
  the path x + s (c - x).  Two or more balls reduce to these: for each ball
  i, the projection onto K and the other balls, if it lies in ball i, is
  the answer; if none does, every sphere is active, and the answer is the
  projection onto (K ∩ the radical hyperplanes of the spheres) ∩ one ball.
  Memoised by subset, m balls cost at most 2^m one-ball projections.

A fold computes what depends on its set alone once, not per point, and
holds it in its ``_K`` for the set's lifetime:

- its rows' tolerances, when it is first projected onto;
- each active-set step: for the active rows A and the entering row p, the
  multipliers r of the least-squares solve N_A^T r = N_p and the rest
  d = N_p - N_A^T r, solved when some point first takes that step (a
  grown :class:`CutSet`, whose rows begin with its parent's, starts with
  the parent's steps);
- each ball's P_K(c) and reach ||c - P_K(c)||, when a projection first
  leaves that ball (each ball also holds its ||c||);
- for each set of balls that the all-active step reaches, K with their
  radical hyperplanes, itself a ``_K`` with these constants.

Every projected bit, error and certificate is that of computing them
afresh; an error is not kept, and is raised again by the next point.

The active-set method makes few numpy calls per step.  Its products over
two or more entries (N z, N_p z, N_A^T w over two or more active rows) are
``ndarray.dot`` on C-contiguous rows or their transpose, with the bits of
``@``; over one entry ``@`` stays, as its sum from +0.0 turns a -0.0
product into +0.0.  The multipliers are Python floats: u_k - t r_k is the
one double operation of numpy's ``u[A] -= t * r``, with its bits.

:func:`project` takes one point or an (S, d) stack of points, and
:func:`contains` one point.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import DimensionMismatch, _vector, norm, row_norms

__all__ = [
    "ConvexBody",
    "WholeSpace",
    "Box",
    "Halfspace",
    "Ball",
    "Intersection",
    "CutSet",
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
    ``_empty`` marks a body that is empty by itself.  A body that
    ``_clips`` projects a 1-D point by clipping it to its interval, and its
    ``_project`` takes a Python float as the point and gives a float.  A
    body that ``_stacks`` projects an (S, d) stack in one ``_project`` call,
    each row with the bits of its own projection.
    """

    _defined = True
    _empty = False
    _clips = False
    _stacks = False

    @property
    def polyhedron(self):
        rows, balls = self._parts
        return None if balls else rows

    @cached_property
    def _K(self):
        """The rows of ``_parts`` with the constants their projections read."""
        return _Polyhedron(*self._parts[0])


def _no_rows(dim):
    return _rows(np.zeros((0, dim)), np.zeros(0))


def _empty_rows(dim):
    """z_1 <= -1 and -z_1 <= -1: the rows of a body that is empty by itself."""
    e = np.eye(dim)[:1]
    return _rows(np.concatenate([e, -e]), np.array([-1.0, -1.0]))


@dataclass(frozen=True)
class WholeSpace(ConvexBody):
    dim: int

    _clips = True   # in 1-D, to (-inf, inf), which leaves every point
    _stacks = True

    def _project(self, x):
        return x if type(x) is float else x.copy()

    @cached_property
    def _parts(self):
        return _no_rows(self.dim), ()

    _interval = (-np.inf, np.inf)


class Box(ConvexBody):
    """Axis-aligned box; +-inf entries make a side unbounded.

    Equal infinite bounds on one axis describe the empty set: projecting
    onto it raises :class:`InfeasibleIntersection`.
    """

    _clips = True
    _stacks = True

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
        if type(x) is float:
            return _clip_as_by_arrays(x, *self._interval)
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
        return (float(self.lower[0]), float(self.upper[0]))

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
        self._empty = b == -np.inf
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
        if self._empty:
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
        if self._empty:
            return _empty_rows(self.dim), ()
        scale = np.sqrt(self._norm_sq)
        return _rows((self.a / scale)[None, :], np.array([self.b / scale])), ()

    @cached_property
    def _interval(self):
        if self.is_whole_space:
            return (-np.inf, np.inf)
        a, b = self.a[0], self.b
        return (float(b / a), np.inf) if a < 0 else (-np.inf, float(b / a))

    def __repr__(self):
        return "Halfspace(a=%s, b=%s)" % (self.a.tolist(), self.b)


# A finite x - c overflows only where |c_i| >= 2^970, half an ulp of the
# largest double, and ||c|| bounds every |c_i|.
_WIDE = 2.0 ** 970


class Ball(ConvexBody):
    """Closed ball; a radius of +inf (with a finite centre) is the whole space."""

    _stacks = True

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

    @cached_property
    def _center_norm(self):
        return norm(self.center)

    def _project(self, x):
        if x.ndim == 2:
            with np.errstate(all="ignore"):   # NaN and inf rows, and the rows inside
                D = x - self.center
                dist = row_norms(D)[:, None]
                out = np.where(dist <= self.radius, x,
                               self.center + (self.radius / dist) * D)
            if self._center_norm >= _WIDE and self.radius < math.inf:
                wide = np.isinf(dist[:, 0]) & np.isfinite(x).all(axis=1)
                out[wide] = self._beyond(x[wide])
            return out
        if self._center_norm < _WIDE:
            d = x - self.center
        else:
            with np.errstate(over="ignore"):
                d = x - self.center
        dist = norm(d)
        if dist <= self.radius:
            return x.copy()
        if dist == math.inf:
            if np.isfinite(x).all():   # x - c overflowed
                return self._beyond(x)
            with np.errstate(invalid="ignore"):   # an infinite entry: 0 * inf is NaN,
                return self.center + (self.radius / dist) * d   # silently as in a stack
        return self.center + (self.radius / dist) * d

    def _beyond(self, x):
        """The projection of finite points whose difference from the centre
        overflows, from the halves 0.5 x - 0.5 c, which do not."""
        h = 0.5 * x - 0.5 * self.center
        return self.center + (self.radius / row_norms(h)[..., None]) * h

    @cached_property
    def _parts(self):
        return _no_rows(self.dim), (() if self.radius == np.inf else (self,))

    @cached_property
    def _interval(self):
        c, r = float(self.center[0]), self.radius
        return (c - r, c + r)

    def __repr__(self):
        return "Ball(center=%s, radius=%s)" % (self.center.tolist(), self.radius)


def _from_centre(ball, z):
    """z - c for the centre c of ``ball``, and the f with ||z - c|| = f ||that||:
    z - c and 1, or where ||c|| >= _WIDE, so that a finite z - c may
    overflow, the halves 0.5 z - 0.5 c and 2, as :meth:`Ball._beyond`
    takes them."""
    if ball._center_norm < _WIDE:
        return z - ball.center, 1.0
    return 0.5 * z - 0.5 * ball.center, 2.0


class Intersection(ConvexBody):
    """Intersection of convex bodies of one dimension.

    Its ``_parts`` stack the rows and collect the balls of its members,
    nested intersections included.
    """

    _clips = True   # in 1-D

    def __init__(self, bodies):
        bodies = tuple(bodies)
        if not bodies:
            raise ValueError("intersection of an empty family is not represented")
        dims = {b.dim for b in bodies}
        if len(dims) != 1:
            raise DimensionMismatch("intersection members differ in dimension")
        self.bodies = bodies
        self.dim = bodies[0].dim
        self._defined = all(body._defined for body in bodies)

    def __repr__(self):
        return "Intersection(%d bodies)" % len(self.bodies)

    @cached_property
    def _parts(self):
        return _stack_parts(self.bodies)

    @cached_property
    def _interval(self):
        return _fold_intervals(self.bodies)

    def _project(self, x):
        return _project_folded(self, x)


class CutSet(ConvexBody):
    """A set C cut by a growing family of sets, folded as the cuts come.

    ``CutSet(C)`` is C; ``add(*cuts)`` returns C ∩ every cut so far and
    leaves this set as it is.  Each set holds only the fold: in 1-D the
    ``_interval``, otherwise the ``_parts``, C's balls and the rows of C,
    then of each cut, in order.  These are the fold of
    ``Intersection([C, *cuts])``, bit for bit, so both project alike.  It
    also carries the number of cuts (``count``, its ``len``) and the newest
    ones (``latest``), but no earlier set or cut.  A grown set starts with
    the active-set steps its parent has solved, as its rows begin with the
    parent's, at the same indices.
    """

    _clips = True   # in 1-D

    def __init__(self, C):
        self.dim, self.count, self.latest = C.dim, 0, ()
        self._defined = C._defined
        self._fold((C,))

    def add(self, *cuts):
        grown = object.__new__(CutSet)
        grown.dim, grown.count, grown.latest = self.dim, self.count + len(cuts), cuts
        grown._defined = self._defined and all(cut._defined for cut in cuts)
        grown._fold((self, *cuts))
        if "_K" in self.__dict__:   # its rows lead the grown rows: its steps hold there
            grown._K._steps.update(self._K._steps)
        return grown

    def _fold(self, bodies):
        if self.dim == 1:
            self._interval = _fold_intervals(bodies)
        else:
            self._parts = _stack_parts(bodies)

    def __len__(self):
        return self.count

    def __repr__(self):
        return "CutSet(%d cuts)" % self.count

    def _project(self, x):
        return _project_folded(self, x)


def _stack_parts(bodies):
    """The rows of ``bodies`` stacked in order, and their balls."""
    parts = [body._parts for body in bodies]
    return (_rows(np.concatenate([N for (N, _), _ in parts]),
                  np.concatenate([b for (_, b), _ in parts])),
            tuple(ball for _, balls in parts for ball in balls))


def _fold_intervals(bodies):
    """The 1-D bodies' intervals, as Python floats, intersected in order (a
    NaN end is passed over)."""
    lo, hi = -np.inf, np.inf
    for body in bodies:
        sub = body._interval
        lo, hi = max(lo, sub[0]), min(hi, sub[1])
    return (lo, hi)


# np.clip of a 1-element array on Python floats, bit for bit: numpy takes
# max(v, lo) then min(., hi), but its bounds decide ties and NaNs one way when
# they are arrays and another when they are scalars


def _clip_as_by_arrays(v, lo, hi):
    """``np.clip(np.array([v]), [lo], [hi])``: a NaN v is kept, else a NaN
    bound or a tie (-0.0 against 0.0) gives the bound."""
    v = v if v != v or v > lo else lo
    return v if v != v or v < hi else hi


def _clip_as_by_scalars(v, lo, hi):
    """``np.clip(np.array([v]), lo, hi)`` on bounds that are not NaN: a tie
    keeps v.  Only ``_defined`` bodies reach it, and no end of their
    intervals is NaN."""
    v = lo if v < lo else v
    return hi if v > hi else v


def _project_folded(body, x):
    """Projection onto an intersection through its fold: the interval in
    1-D, else its rows and balls."""
    if body.dim == 1:
        lo, hi = body._interval
        if lo > hi or lo == np.inf or hi == -np.inf:
            raise InfeasibleIntersection(
                "1-D intersection is empty: [%g, %g]" % (lo, hi)
            )
        return _clip_as_by_scalars(x, lo, hi) if type(x) is float else np.clip(x, lo, hi)
    K, balls = body._K, body._parts[1]
    if not balls:
        return _project_polyhedron(K, x)[0]
    if len(balls) == 1:
        return _project_polyhedron_ball(K, balls[0], x)
    return _project_balls(K, balls, x)


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


class _Polyhedron:
    """Rows K = {z : N z <= b}, N with unit-norm rows, and the constants that
    every projection onto K reads, as the module docstring lists them."""

    def __init__(self, N, b):
        self.N, self.b, self.b_list = N, b, b.tolist()
        magnitude = np.abs(b)
        self.row_tol = _VIOLATION_TOL * (1.0 + magnitude)
        self.wide = bool(magnitude.max(initial=0.0) >= _WIDE)   # N z - b may overflow
        self._steps = {}
        self._nearest = {}
        self._radical = {}

    @cached_property
    def halved(self):
        """K / 2 = {z : N z <= b / 2}, with K's steps: P_K(x) = 2 P_{K/2}(x / 2)."""
        half = _Polyhedron(*_rows(self.N, 0.5 * self.b))
        half._steps = self._steps
        return half

    def step(self, active, p):
        """Row p entering the active rows A: read-only r with N_A^T r the
        least-squares part of N_p in their span, d = N_p - N_A^T r, and d.d.
        With no active row, r is empty and d is N_p."""
        key = (tuple(active), p)
        found = self._steps.get(key)
        if found is None:
            d, r = self.N[p], np.zeros(0)
            if active:
                columns = self.N[active].T
                r = np.linalg.lstsq(columns, d, rcond=None)[0]
                d = d - columns @ r
            r.flags.writeable = d.flags.writeable = False
            found = self._steps[key] = (r, d, float(d @ d))
        return found

    def nearest(self, ball):
        """P_K(c) for the centre c of ``ball``, and ||c - P_K(c)||."""
        found = self._nearest.get(ball)
        if found is None:
            z = _project_polyhedron(self, ball.center)[0]
            offset, f = _from_centre(ball, z)
            found = self._nearest[ball] = (z, f * norm(offset))
        return found

    def radical(self, balls):
        """K with the radical hyperplanes ||z - c_1||^2 - r_1^2 =
        ||z - c_i||^2 - r_i^2 of ``balls``, as one more :class:`_Polyhedron`.

        Two balls that lie apart raise a ``SeparatingHyperplane`` between
        them."""
        found = self._radical.get(balls)
        if found is None:
            c1, r1 = balls[0].center, balls[0].radius
            rows, offsets = [self.N], [self.b]
            for ball in balls[1:]:
                half = 0.5 * ball.center - 0.5 * c1   # (c_i - c_1) / 2 does not overflow
                apart = 2.0 * norm(half)
                u = half / norm(half) if apart else None
                if apart > r1 + ball.radius:
                    raise InfeasibleIntersection(
                        "the balls lie %.3e apart" % (apart - r1 - ball.radius),
                        certificate=SeparatingHyperplane(u, float(u @ c1) + r1,
                                                         apart - r1 - ball.radius))
                if u is not None:   # equal centres with both spheres active: equal balls, no row
                    t = float(u @ c1) + _radical_offset(apart, r1, ball.radius)
                    rows.append(np.array([u, -u]))
                    offsets.append(np.array([t, -t]))
            found = self._radical[balls] = _Polyhedron(
                *_rows(np.concatenate(rows), np.concatenate(offsets)))
        return found


def _radical_offset(a, r1, r2):
    """(a^2 + r1^2 - r2^2) / 2a, where the radical hyperplane of two spheres
    of radii r1 and r2 with centres a apart crosses the line of the centres,
    measured from the first.  Wherever that formula is finite the value
    keeps the bits it always had.  Where a square overflows (``r2 ** 2``
    raises, ``a * a + r1 * r1`` is inf) it is a/2 + (r1 - r2)(r1 + r2)/2a,
    which squares nothing: where both spheres are active they meet, so
    |r1 - r2| <= a.  All three are Python floats."""
    try:
        t = (a * a + r1 * r1 - r2 ** 2) / (2.0 * a)
    except OverflowError:
        t = math.inf
    return t if math.isfinite(t) else 0.5 * a + (r1 - r2) / a * (0.5 * r1 + 0.5 * r2)


def _project_polyhedron(K, x, x_norm=None):
    """Exact projection of ``x`` onto K = {z : N z <= b}, a :class:`_Polyhedron`.

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
    ``x_norm``, when given, is norm(x).

    Where ||x|| or some |b_p| is at least _WIDE, a finite N z - b may
    overflow, and the method runs without overflow warnings.  A finite x
    whose norm, or whose entering row's violation, overflows is solved on
    the halves: P_K(x) = 2 P_{K/2}(x / 2).
    """
    if x_norm is None:
        x_norm = norm(x)
    if x_norm < _WIDE and not K.wide:
        found = _active_set(K, x, x_norm)
    elif x_norm == math.inf and np.isfinite(x).all():
        found = None
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            found = _active_set(K, x, x_norm)
    if found is None:
        z, active = _project_polyhedron(K.halved, 0.5 * x)
        return 2.0 * z, active
    return found


def _active_set(K, x, x_norm):
    """The method of :func:`_project_polyhedron`; None where the entering
    row's violation overflows at a finite x."""
    N, b, b_list, row_tol = K.N, K.b, K.b_list, K.row_tol
    z = x.copy()
    active = []
    if not b_list:
        return z, active

    def excess(z, scale):
        """How far z lies beyond each row, less the row's tolerance."""
        over = N.dot(z)
        over -= b
        over -= row_tol
        over -= _VIOLATION_TOL * scale
        return over

    over = excess(z, x_norm)
    p = int(over.argmax())
    if not over[p] > 0.0:   # in K, or a NaN point, which comes back as it went in
        return z, active
    u = [0.0] * len(b_list)
    max_steps = 10 * (len(b_list) + x.size)
    for _ in range(max_steps):
        if not over[p] > 0.0:
            return z, active
        violation = float(N[p].dot(z)) - b_list[p]
        if not violation < math.inf and math.isfinite(b_list[p]) and np.isfinite(x).all():
            return None
        r, d, dd = K.step(active, p)
        r_list = r.tolist()
        full = violation / dd if dd > _DEPENDENT ** 2 else np.inf
        partial, block = np.inf, None
        for k, rk in zip(active, r_list):
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
        z -= t * d
        for k, rk in zip(active, r_list):
            u[k] -= t * rk
        u[p] += t
        if full <= partial:
            active.append(p)
            over = excess(z, max(x_norm, norm(z)))
            p = int(over.argmax())
        else:
            active.remove(block)
            u[block] = 0.0
    violation = float(np.max(N @ z - b))
    raise ProjectionNoConvergence(
        "active-set projection stopped after %d steps with violation %.3e"
        % (max_steps, violation), violation)


# Steps of the search for the ball multiplier; each costs one projection
# onto the polyhedron, and plain bisection of [0, 1] reaches the spacing of
# doubles near 1 within 53.  Its rate solves give lstsq numpy's default
# rcond, eps * max(shape), which spares each call a finfo lookup.
_BALL_STEPS = 100
_EPS = float(np.finfo(float).eps)


def _project_polyhedron_ball(K, ball, x):
    """Exact projection of ``x`` onto K ∩ ball, K a :class:`_Polyhedron`.

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
    bracket's midpoint.  Where ||c|| >= _WIDE, so that z - c and c - x may
    overflow, the search takes their halves (:func:`_from_centre`) and
    moves x by s (c - x) in two half steps.

    K holds each row's tolerance, its active-set steps, and P_K(c) with its
    reach once the first point that leaves the ball has solved them; the
    ball holds ||c||.  The rate along c - x on a face depends on the point,
    so its solve is made afresh.
    """
    c, r = ball.center, ball.radius
    x_norm = norm(x)
    scale = max(x_norm, ball._center_norm)
    tol = _VIOLATION_TOL * (1.0 + scale + r)
    z, active = _project_polyhedron(K, x, x_norm)
    offset, f = _from_centre(ball, z)
    gap = f * norm(offset) - r
    if not gap > tol:   # in the ball, or a NaN point
        return z
    halves = f == 2.0   # then c - P_K(c) and c - x are taken as halves too
    nearest, reach = K.nearest(ball)
    if reach > r:
        normal = 0.5 * c - 0.5 * nearest if halves else c - nearest
        normal = normal / norm(normal)
        raise InfeasibleIntersection(
            "the ball lies %.3e beyond the polyhedron" % (reach - r),
            certificate=SeparatingHyperplane(normal, float(normal @ nearest), reach - r))
    direction = 0.5 * c - 0.5 * x if halves else c - x
    lo, hi, s = 0.0, 1.0, 0.0
    for _ in range(_BALL_STEPS):
        rate = direction
        if active:
            rows = K.N[active].T
            w = np.linalg.lstsq(rows, direction, rcond=_EPS * max(rows.shape))[0]
            rate = direction - (rows.dot(w) if len(active) > 1 else rows @ w)
        s_next = s + _sphere_crossing(offset, rate, r / f)
        s = s_next if lo < s_next < hi else 0.5 * (lo + hi)
        y = x + s * direction
        z, active = _project_polyhedron(K, y + s * direction if halves else y)
        offset, f = _from_centre(ball, z)
        gap = f * norm(offset) - r
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
    """The smaller t with ||p + t v|| = r, or NaN when there is none, or
    when a product overflows.  ``np.vdot`` gives ``p @ v``'s bits, and does
    not warn where it overflows."""
    a, h, q = float(np.vdot(v, v)), float(np.vdot(p, v)), float(np.vdot(p, p)) - r * r
    disc = h * h - a * q
    if not (a > 0.0 and disc >= 0.0):
        return np.nan
    root = math.sqrt(disc)
    # the two forms avoid cancelling -h against the root
    return q / (root - h) if h < 0.0 else (-h - root) / a


def _project_balls(K, balls, x):
    """Exact projection of ``x`` onto K ∩ balls, K a :class:`_Polyhedron`, by
    the reduction in the module docstring; each subset of the balls is solved
    once."""
    solved = {}
    x_norm = norm(x)

    def solve(subset):
        if subset in solved:
            return solved[subset]
        if len(subset) == 1:
            z = _project_polyhedron_ball(K, balls[subset[0]], x)
        else:
            for i in subset:
                z = solve(tuple(j for j in subset if j != i))
                ball = balls[i]
                r = ball.radius
                offset, f = _from_centre(ball, z)
                # in ball i, to the tolerance its sphere is reached with
                if f * norm(offset) <= r + _VIOLATION_TOL * (
                        1.0 + max(x_norm, ball._center_norm) + r):
                    break
            else:
                z = _project_on_spheres(K, tuple(balls[j] for j in subset), x)
        solved[subset] = z
        return z

    return solve(tuple(range(len(balls))))


def _project_on_spheres(K, balls, x):
    """Projection of ``x`` onto K ∩ balls when every sphere is active there:
    onto (K ∩ the radical hyperplanes ||z - c_1||^2 - r_1^2 =
    ||z - c_i||^2 - r_i^2) ∩ B_1, as every ball is B_1 on those hyperplanes.

    Two disjoint balls raise a ``SeparatingHyperplane`` between them.  Any
    other emptiness found here is certified by rows that are not the set's,
    so it raises with no certificate.  K holds the radical rows of each
    tuple of ``balls``.
    """
    radical = K.radical(balls)   # outside the try: balls apart keep their own certificate
    try:
        return _project_polyhedron_ball(radical, balls[0], x)
    except InfeasibleIntersection as err:
        raise InfeasibleIntersection("intersection is empty: with the spheres of %s all "
                                     "active, %s" % (", ".join(map(repr, balls)), err)) from None


def _point_of(S, x, stack=False):
    """``x`` as a float64 array: one point of ``S``, or with ``stack`` also
    an (S, d) stack of them."""
    x = _vector(x)
    if x.ndim > 1 + stack:
        raise DimensionMismatch("expected %s, got shape %s" % (
            "a point or an (S, d) stack" if stack else "one point", x.shape))
    if x.shape[-1] != S.dim:
        raise DimensionMismatch(
            "point dimension %d does not match set dimension %d" % (x.shape[-1], S.dim)
        )
    return x


def project(S, x):
    """Metric projection onto the convex body ``S`` of one point x, or of
    each row of an (S, d) stack x; all NaN when the numbers of ``S``
    describe no set.

    A body that ``_stacks`` (the whole space, a box, a ball) projects a
    stack at once; any other is projected row by row.  Either way each row
    has the bits of its own projection.  A Python float x (exactly that
    type) is a 1-D point and gives a float, the entry of the array
    projection; a body that ``_clips`` (the whole space, a box, an
    intersection, a cut set) clips it without an array.
    """
    as_float = type(x) is float
    if as_float and S._clips and S.dim == 1 and S._defined:
        return S._project(x)
    x = _point_of(S, x, True)
    if not S._defined:
        out = np.full(x.shape, np.nan)
    elif S._stacks or x.ndim == 1:
        out = S._project(x)
    else:
        out = np.array([S._project(row) for row in x]).reshape(x.shape)
    return out.item() if as_float else out


def contains(S, x, tol=1e-10):
    """Membership test of one point via the projection: x in S iff
    project(S, x) == x.  Any other shape than one point of ``S``'s
    dimension raises :class:`DimensionMismatch`.

    The whole space is answered without projecting: its projection moves a
    finite x by exactly 0, and a NaN or infinite entry gives a NaN distance,
    so x is in it iff every entry is finite.  A Python float x (exactly
    that type) is a 1-D point; a body that ``_clips`` tests it on floats,
    with the answer of the array test.
    """
    if type(x) is float and S._clips and S.dim == 1 and S._defined:
        return norm(S._project(x) - x) <= tol
    x = _point_of(S, x)
    if isinstance(S, WholeSpace):
        return bool(np.isfinite(x).all()) and 0.0 <= tol
    return norm(project(S, x) - x) <= tol


def halfspace_from_distance_dominance(near, far):
    """The set of points at least as close to ``near`` as to ``far``.

    {z : ||near - z|| <= ||far - z||} written as the halfspace
    {z : 2<far - near, z> <= ||far||^2 - ||near||^2}; the perpendicular
    bisector is the boundary.  Equal inputs give the whole space.  Two
    Python floats are 1-D points, taken without the array round trip.
    """
    if type(near) is float and type(far) is float:
        if near == far:
            return WholeSpace(1)
        return Halfspace([2.0 * (far - near)], far * far - near * near)
    near = _vector(near)
    far = _vector(far)
    if near.shape != far.shape:
        raise DimensionMismatch("near/far dimension mismatch")
    if np.array_equal(near, far):
        return WholeSpace(near.shape[0])
    a = 2.0 * (far - near)
    b = float(np.dot(far, far) - np.dot(near, near))
    return Halfspace(a, b)
