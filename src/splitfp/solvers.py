"""The iteration step functions and the shared run driver.

Each family's update is a pure function: current state in, next state plus
the step's intermediates and residuals out.  :data:`_FAMILY_STEPS` maps each
family to its initial residual and its step; everything else the driver
needs to know about a family comes from its record in
:data:`splitfp.problems.FAMILIES`.  The driver applies a step repeatedly,
records a self-describing trace, and stops on the first enabled
criterion.  The recorded residuals are exactly the quantities the
convergence analyses drive to zero, so residual decay is a meaningful
diagnostic for every family.

Each step is written once and reads its leaves (linear maps and adjoints,
``norm``, operator calls, iterate powers, projections) from a *lane*.  The
default array lane is today's functions on vectors.  A run whose blocks are
all 1-D steps on Python floats through the float lane, whose leaves have
the array forms' bits: an operator's ``kernel`` (every 1-D map has one),
``0.0 + m*v`` for a 1x1 ``matrix @ x`` (the matmul sums from +0.0, turning
a -0.0 product into +0.0), ``sqrt(v*v)`` for ``norm`` (``abs(v)`` where
``v*v`` overflows, as ``spaces.norm`` scales), and else the array form on
``np.array([v])``; an iterate power is ``power_apply``, which takes and
gives a float.  Trace records hold arrays in either lane.
"""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .operators import DomainEscape, power_apply
from .problems import (
    EXTRAGRADIENT_SFFPP,
    FAMILIES,
    SCFPP,
    SCFPP_ADAPTIVE,
    SCFPEP,
    SFFPEP,
    SYNCHRONAL_VIP,
    IterationTrace,
    TraceRecord,
    ValidationError,
)
from .projections import (
    InfeasibleIntersection,
    Intersection,
    ProjectionNoConvergence,
    WholeSpace,
    halfspace_from_distance_dominance,
    project,
)
from .spaces import _vector, norm

__all__ = [
    "StepResult",
    "step_scfpp",
    "step_scfpp_adaptive",
    "step_synchronal",
    "step_sffpep",
    "step_scfpep",
    "step_extragradient",
    "run",
    "SolverError",
    "AdjointInconsistency",
    "CutCapExceeded",
    "NonFiniteState",
]


class SolverError(RuntimeError):
    """Numerical breakdown inside a step; carries the iteration index."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class AdjointInconsistency(SolverError):
    """The adjoint annihilated a nonzero residual (possible only for A = 0)."""


class CutCapExceeded(SolverError):
    """The extra-gradient cut list outgrew the configured cap."""


class NonFiniteState(SolverError):
    """An iterate or a residual became NaN or infinite.

    ``last_finite`` is the last trace record whose state was finite, or
    None when the starting record itself is not.
    """

    def __init__(self, message, iteration, last_finite):
        super().__init__(message, iteration)
        self.last_finite = last_finite


# failures a step can legitimately surface; the driver annotates them with
# the iteration index.  Python floats raise ZeroDivisionError where numpy
# returns inf, so a rule evaluated at its pole lands here, as does a map
# whose float arithmetic overflows (OverflowError).
_STEP_FAILURES = (SolverError, InfeasibleIntersection, ProjectionNoConvergence,
                  DomainEscape, ZeroDivisionError, OverflowError)


def _breakdown(err, n):
    if isinstance(err, ZeroDivisionError):
        err = "division by zero, an operator rule evaluated at its pole (%s)" % err
    elif isinstance(err, OverflowError):
        err = "float overflow: %s" % err
    return SolverError("iteration %d: %s" % (n, err), n)


def _state(rec):
    text = "x=%s" % rec.x.tolist()
    if rec.y is not None:
        text += ", y=%s" % rec.y.tolist()
    return text + ", residual=%r" % rec.residual_primary


def _check_finite(rec, last, n):
    """Raise :class:`NonFiniteState` unless rec's iterates and residuals are finite."""
    values = rec.x.tolist() + ([] if rec.y is None else rec.y.tolist())
    values += [v for v in (rec.residual_primary, rec.residual_coupling)
               if v is not None]
    if all(map(math.isfinite, values)):
        return
    before = ("the start" if last is None
              else "last finite state n=%d: %s" % (last.n, _state(last)))
    raise NonFiniteState("iteration %d: non-finite state %s; %s"
                         % (n, _state(rec), before), n, last)


@dataclass
class StepResult:
    x: np.ndarray | float   # a lane's state: an array, or a float in the float lane
    y: np.ndarray | float | None = None
    intermediates: dict = field(default_factory=dict)
    step: float | None = None
    residual_primary: float | None = None
    residual_coupling: float | None = None
    cuts: list | None = None   # full cut list after an extra-gradient step


# ---------------------------------------------------------------------------
# lanes: the leaves a step computes with

# the array form of each leaf; each calls a global name of this module at
# call time, so a wrapper installed on that name sees the call
_ARRAYS = SimpleNamespace(
    state=lambda x: x, array=lambda x: x, norm=lambda x: norm(x),
    apply=lambda A, x: A.apply(x), adjoint=lambda A, x: A.apply_adjoint(x),
    call=lambda T, x: T(x), project=lambda S, x: project(S, x),
    power=lambda T, n, x, check_domain=True: power_apply(T, n, x, check_domain))


def _float_lane(spec):
    """Each leaf on Python floats; ``item()`` takes an array form's entry."""
    entries = {A: float(A.matrix[0, 0]) for A in (spec.A, spec.B) if A is not None}

    def apply(A, v):
        return 0.0 + entries[A] * v

    def norm1(v):   # spaces.norm of [v]: its scaled form where v*v overflows
        r = math.sqrt(v * v)
        return abs(v) if r == math.inf and math.isfinite(v) else r

    return SimpleNamespace(
        state=lambda x: None if x is None else x.item(),
        array=lambda v: None if v is None else np.array([v]),
        apply=apply, adjoint=apply, norm=norm1, call=lambda T, v: T.kernel(v),
        power=_ARRAYS.power,   # power_apply takes and gives a float
        project=lambda S, v: (v if type(S) is WholeSpace
                              else project(S, np.array([v])).item()))


def _lane_for(spec, x, y):
    """The float lane when the starts, the reference, A and B, and every set
    and operator are 1-D."""
    parts = (spec.C, spec.Q, spec.T, spec.G, spec.U, spec.f,
             *(spec.block_operators or ()))
    if (any(v is not None and v.shape != (1,)
            for v in (x, y, *(spec.reference_solution or ())))
            or any(m and m.matrix.shape != (1, 1) for m in (spec.A, spec.B))
            or any(p and p.dim != 1 for p in parts)):
        return _ARRAYS
    return _float_lane(spec)


# ---------------------------------------------------------------------------
# one-variable families


def step_scfpp(spec, x, n, _lane=_ARRAYS):
    """Adjoint-corrected iterate-power step.

    u_n = x_n + gamma A*(T^{n+1} - I) A x_n, then the averaged update
    x_{n+1} = alpha_n u_n + (1 - alpha_n) G^{n+1} u_n.  The exponent is
    n + 1 at iteration counter n, so the first step applies the operators
    once rather than degenerating to the identity power.
    """
    A = spec.A
    ax = _lane.apply(A, x)
    t_ax = _lane.power(spec.T, n + 1, ax)
    image_residual = _lane.norm(t_ax - ax)
    u = x + spec.gamma * _lane.adjoint(A, t_ax - ax)
    g_u = _lane.power(spec.G, n + 1, u)
    alpha = spec.alpha(n)
    x_next = alpha * u + (1.0 - alpha) * g_u
    primal_residual = _lane.norm(g_u - u)
    return StepResult(
        x=x_next,
        intermediates={"u": u},
        step=spec.gamma,
        residual_primary=max(primal_residual, image_residual),
        residual_coupling=image_residual,
    )


def step_scfpp_adaptive(spec, x, n, _lane=_ARRAYS):
    """Norm-free variant: the correction step is chosen from the residual.

    rho_n = (1-k) ||(I-T)Ax||^2 / (2 ||A*(I-T)Ax||^2) when TAx differs from
    Ax (scale-aware zero test), else 0 with u_n = x_n exactly.
    """
    A = spec.A
    ax = _lane.apply(A, x)
    t_ax = _lane.call(spec.T, ax)
    diff = t_ax - ax
    image_residual = _lane.norm(diff)
    threshold = 1e-14 * (1.0 + _lane.norm(ax))
    if image_residual <= threshold:
        rho = 0.0
        u = x
    else:
        adj = _lane.adjoint(A, diff)
        denom = _lane.norm(adj) ** 2
        if denom == 0.0:
            raise AdjointInconsistency(
                "A* annihilates a residual of norm %.3e" % image_residual, n
            )
        k = spec.demicontractive_k()
        rho = (1.0 - k) * image_residual ** 2 / (2.0 * denom)
        u = x + rho * adj
    u_u = _lane.call(spec.U, u)
    alpha = spec.alpha(n)
    x_next = (1.0 - alpha) * u + alpha * u_u
    return StepResult(
        x=x_next,
        intermediates={"u": u},
        step=rho,
        residual_primary=max(_lane.norm(u_u - u), image_residual),
        residual_coupling=image_residual,
    )


def step_synchronal(spec, x, n, _lane=_ARRAYS):
    """Viscosity / hybrid steepest-descent step around the averaged power.

    x_{n+1} = alpha_n gamma f(x_n) + (I - alpha_n mu G)(beta_n x_n +
    (1 - beta_n) T^{n+1} x_n).
    """
    alpha = spec.alpha(n)
    beta = spec.beta(n)
    t_pow = _lane.power(spec.T, n + 1, x, check_domain=False)
    averaged = beta * x + (1.0 - beta) * t_pow
    x_next = (
        alpha * spec.gamma_visc * _lane.call(spec.f, x)
        + averaged
        - alpha * spec.mu * _lane.call(spec.G, averaged)
    )
    return StepResult(
        x=x_next,
        intermediates={"u": averaged},
        step=alpha,
        residual_primary=_lane.norm(x - t_pow),
    )


# ---------------------------------------------------------------------------
# two-variable (equality) families


def _equality_step(spec, x, y, n, project_blocks, lane):
    u_op, t_op = spec.block_operators
    A, B = spec.A, spec.B
    lam = spec.lam(n)
    alpha = spec.alpha(n)
    beta = spec.beta(n)
    gap = lane.apply(A, x) - lane.apply(B, y)
    coupling = lane.norm(gap)

    z = x - lam * lane.adjoint(A, gap)
    if project_blocks:
        z = lane.project(spec.C, z)
    uz = lane.call(u_op, z)
    w = (1.0 - beta) * z + beta * uz
    x_next = (1.0 - alpha) * z + alpha * lane.call(u_op, w)

    u = y + lam * lane.adjoint(B, gap)
    if project_blocks:
        u = lane.project(spec.Q, u)
    tu = lane.call(t_op, u)
    r = (1.0 - beta) * u + beta * tu
    y_next = (1.0 - alpha) * u + alpha * lane.call(t_op, r)

    residual = max(coupling, lane.norm(uz - z), lane.norm(tu - u))
    return StepResult(
        x=x_next,
        y=y_next,
        intermediates={"z": z, "w": w, "u": u, "r": r},
        step=lam,
        residual_primary=residual,
        residual_coupling=coupling,
    )


def step_sffpep(spec, x, y, n, _lane=_ARRAYS):
    """Simultaneous projected update of both blocks of the equality problem.

    The x block moves against A*(Ax - By), projects onto C, and applies U in
    an inner/outer averaged pattern; the y block mirrors it with B, Q, T.
    """
    return _equality_step(spec, x, y, n, True, _lane)


def step_scfpep(spec, x, y, n, _lane=_ARRAYS):
    """Equality step over convex combinations of relaxed operator families.

    The spec builds U = sum_j delta_j U_{gamma_j} and T = sum_i lambda_i
    T_{tau_i} once; this runs the unprojected equality update with them.
    ``branch_assignment`` chooses which block receives which combined
    operator; the published reference table for this family matches the
    swapped assignment, not the printed one, so both are available.
    """
    return _equality_step(spec, x, y, n, False, _lane)


# ---------------------------------------------------------------------------
# extra-gradient family


def _extragradient_correction(spec, v, lane):
    av = lane.apply(spec.A, v)
    mapped = lane.call(spec.G, lane.project(spec.Q, av))
    return lane.adjoint(spec.A, av - mapped)


def step_extragradient(spec, x, cuts, x0, n, _lane=_ARRAYS):
    """Double-extrapolation step with distance-dominance cuts.

    Computes two projected extrapolations y_n, z_n, an Ishikawa-style inner
    point, and the anchor w_n; appends the three halfspaces

        ||w_n - z|| <= ||z_n - z||,  ||z_n - z|| <= ||y_n - z||,
        ||y_n - z|| <= ||x_n - z||

    to the cut list and projects the *initial* point onto C intersected
    with every cut so far.  Cuts are never dropped: the nesting of the cut
    sets is what the strong-convergence argument rests on.
    """
    gamma = spec.gamma_seq(n)
    alpha = spec.alpha(n)
    beta = spec.beta(n)
    y_pt = _lane.project(spec.C, x - gamma * _extragradient_correction(spec, x, _lane))
    z_pt = _lane.project(
        spec.C, y_pt - gamma * _extragradient_correction(spec, y_pt, _lane))
    inner_pt = (1.0 - beta) * z_pt + beta * _lane.call(spec.T, z_pt)
    w_pt = (1.0 - alpha) * z_pt + alpha * _lane.call(spec.T, inner_pt)

    new_cuts = list(cuts)
    new_cuts.append(halfspace_from_distance_dominance(w_pt, z_pt))
    new_cuts.append(halfspace_from_distance_dominance(z_pt, y_pt))
    new_cuts.append(halfspace_from_distance_dominance(y_pt, x))
    if len(new_cuts) > spec.cut_cap:
        raise CutCapExceeded(
            "cut list grew to %d, beyond the cap %d" % (len(new_cuts), spec.cut_cap),
            n,
        )
    x_next = _lane.project(Intersection([spec.C, *new_cuts]), x0)
    return StepResult(
        x=x_next,
        intermediates={"u": y_pt, "z": z_pt, "w": w_pt, "r": inner_pt},
        step=gamma,
        residual_primary=_lane.norm(x_next - x),
        cuts=new_cuts,
    )


# ---------------------------------------------------------------------------
# driver

def _pair_norm(a, b):
    """sqrt(a**2 + b**2) of two block norms; hypot where the squares overflow."""
    try:
        r = math.sqrt(a ** 2 + b ** 2)
    except OverflowError:   # a Python float's ** raises where numpy gives inf
        r = math.inf
    return math.hypot(a, b) if r == math.inf else r


def _distance_to_reference(lane, ref, x, y):
    if ref is None:
        return None
    if y is not None:
        return _pair_norm(lane.norm(x - ref[0]), lane.norm(y - ref[1]))
    return lane.norm(x - ref[0])


def _image_residual(lane, spec, x):
    ax = lane.apply(spec.A, x)
    return lane.norm(lane.call(spec.T, ax) - ax)


def _fixed_point_residual(lane, spec, x, y):
    return lane.norm(lane.call(spec.T, x) - x)


def _equality_residual(lane, spec, x, y):
    u_op, t_op = spec.block_operators
    gap = lane.norm(lane.apply(spec.A, x) - lane.apply(spec.B, y))
    return max(gap, lane.norm(lane.call(u_op, x) - x), lane.norm(lane.call(t_op, y) - y))


# family -> (residual of the starting point, one step), each given the lane
# first.  The steps are called through this module's global names, so a
# wrapper installed on ``step_*`` sees every call.  The extra-gradient
# per-step residual ||x_{n+1} - x_n|| has no n = 0 analogue, so its initial
# record carries the fixed-point residual.
_FAMILY_STEPS = {
    SCFPP: (lambda lane, spec, x, y: max(lane.norm(lane.call(spec.G, x) - x),
                                         _image_residual(lane, spec, x)),
            lambda lane, spec, x, y, cuts, x0, n: step_scfpp(spec, x, n, lane)),
    SCFPP_ADAPTIVE: (
        lambda lane, spec, x, y: max(lane.norm(lane.call(spec.U, x) - x),
                                     _image_residual(lane, spec, x)),
        lambda lane, spec, x, y, cuts, x0, n: step_scfpp_adaptive(spec, x, n, lane)),
    SYNCHRONAL_VIP: (
        _fixed_point_residual,
        lambda lane, spec, x, y, cuts, x0, n: step_synchronal(spec, x, n, lane)),
    SFFPEP: (_equality_residual,
             lambda lane, spec, x, y, cuts, x0, n: step_sffpep(spec, x, y, n, lane)),
    SCFPEP: (_equality_residual,
             lambda lane, spec, x, y, cuts, x0, n: step_scfpep(spec, x, y, n, lane)),
    EXTRAGRADIENT_SFFPP: (
        _fixed_point_residual,
        lambda lane, spec, x, y, cuts, x0, n: step_extragradient(
            spec, x, cuts, x0, n, lane)),
}


# overflow and invalid operations are reported by _check_finite as a typed
# NonFiniteState, so numpy's warnings about them are silenced
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run(spec, x0, y0=None, rule=None):
    """Drive a family's step function under a stopping rule.

    Returns an :class:`IterationTrace` whose record 0 is the initial point;
    ``max_iters = m`` therefore yields at most ``m + 1`` records.  Stopping
    criteria are checked after each step in the order residual, stagnation,
    target; the trace records which one fired.  Domain membership of the
    starting point is the caller's concern: the recurrences evaluate the
    operators wherever they lead, as the published trajectories do.  A
    start must be finite, and ``x0`` (``y0``) must have as many entries as
    ``A`` (``B``) has columns where the family has that slot, and each block
    of the reference as many as its start; a NaN or infinite iterate or
    residual later raises :class:`NonFiniteState`, and a rule's pole a
    :class:`SolverError`.  A run whose blocks are all 1-D steps on Python
    floats (see the module notes), with the same trace.
    """
    if rule is None:
        raise ValidationError("a stopping rule is required")
    family = FAMILIES[spec.family]
    initial_residual, step = _FAMILY_STEPS[spec.family]
    x = _vector(x0)
    if family.two_variable:
        if y0 is None:
            raise ValidationError("family %r iterates two blocks; y0 missing"
                                  % spec.family)
        y = _vector(y0)
    else:
        y = None
    if not (np.isfinite(x).all() and (y is None or np.isfinite(y).all())):
        raise ValidationError("the start point must be finite")
    for name, start, slot in (("x0", x, "A"), ("y0", y, "B")):
        if slot in family.required and start.shape[0] != getattr(spec, slot).cols:
            raise ValidationError("%s has %d entries; %s expects %d" % (
                name, start.shape[0], slot, getattr(spec, slot).cols))
    ref = spec.reference_solution
    for name, start, target in zip(("x", "y"), (x, y), ref or ()):
        if target.shape[0] != start.shape[0]:
            raise ValidationError("the reference %s* has %d entries; %s0 has %d" % (
                name, target.shape[0], name, start.shape[0]))
    cuts = [] if family.accumulates_cuts else None
    lane = _lane_for(spec, x, y)
    array = lane.array
    x, y = lane.state(x), lane.state(y)
    start = x
    ref = None if ref is None else tuple(map(lane.state, ref))

    try:
        residual = initial_residual(lane, spec, x, y)
    except (ZeroDivisionError, OverflowError) as err:
        raise _breakdown(err, 0) from err
    records = [
        TraceRecord(
            n=0,
            x=array(x),
            y=array(y),
            residual_primary=residual,
            dist_to_target=_distance_to_reference(lane, ref, x, y),
            cut_count=None if cuts is None else 0,
        )
    ]
    _check_finite(records[0], None, 0)
    stop_reason = "max_iters"
    for n in range(rule.max_iters):
        try:
            result = step(lane, spec, x, y, cuts, start, n)
        except _STEP_FAILURES as err:
            raise _breakdown(err, n) from err
        moved = lane.norm(result.x - x) if y is None else _pair_norm(
            lane.norm(result.x - x), lane.norm(result.y - y))
        x = result.x
        y = result.y
        if cuts is not None:
            cuts = result.cuts
        dist = _distance_to_reference(lane, ref, x, y)
        slot = result.intermediates.get
        records.append(
            TraceRecord(
                n=n + 1,
                x=array(x),
                y=array(y),
                u=array(slot("u")),
                z=array(slot("z")),
                w=array(slot("w")),
                r=array(slot("r")),
                step=result.step,
                residual_primary=result.residual_primary,
                residual_coupling=result.residual_coupling,
                dist_to_target=dist,
                cut_count=None if cuts is None else len(cuts),
            )
        )
        _check_finite(records[-1], records[-2], n)
        if rule.residual_tol is not None and result.residual_primary <= rule.residual_tol:
            stop_reason = "residual_tol"
            break
        if rule.stagnation_tol is not None and moved <= rule.stagnation_tol:
            stop_reason = "stagnation_tol"
            break
        if rule.target_tol is not None and dist is not None and dist <= rule.target_tol:
            stop_reason = "target_tol"
            break
    return IterationTrace(
        family=spec.family,
        records=records,
        stop_reason=stop_reason,
        intermediates=tuple(family.intermediates),
    )
