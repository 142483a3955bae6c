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
"""

import math
from dataclasses import dataclass, field

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
# returns inf, so a rule evaluated at its pole lands here.
_STEP_FAILURES = (SolverError, InfeasibleIntersection, ProjectionNoConvergence,
                  DomainEscape, ZeroDivisionError)


def _breakdown(err, n):
    if isinstance(err, ZeroDivisionError):
        err = "division by zero, an operator rule evaluated at its pole (%s)" % err
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
    x: np.ndarray
    y: np.ndarray | None = None
    intermediates: dict = field(default_factory=dict)
    step: float | None = None
    residual_primary: float | None = None
    residual_coupling: float | None = None
    cuts: list | None = None   # full cut list after an extra-gradient step


# ---------------------------------------------------------------------------
# one-variable families


def step_scfpp(spec, x, n):
    """Adjoint-corrected iterate-power step.

    u_n = x_n + gamma A*(T^{n+1} - I) A x_n, then the averaged update
    x_{n+1} = alpha_n u_n + (1 - alpha_n) G^{n+1} u_n.  The exponent is
    n + 1 at iteration counter n, so the first step applies the operators
    once rather than degenerating to the identity power.
    """
    A = spec.A
    ax = A.apply(x)
    t_ax = power_apply(spec.T, n + 1, ax)
    image_residual = norm(t_ax - ax)
    u = x + spec.gamma * A.apply_adjoint(t_ax - ax)
    g_u = power_apply(spec.G, n + 1, u)
    alpha = spec.alpha(n)
    x_next = alpha * u + (1.0 - alpha) * g_u
    primal_residual = norm(g_u - u)
    return StepResult(
        x=x_next,
        intermediates={"u": u},
        step=spec.gamma,
        residual_primary=max(primal_residual, image_residual),
        residual_coupling=image_residual,
    )


def step_scfpp_adaptive(spec, x, n):
    """Norm-free variant: the correction step is chosen from the residual.

    rho_n = (1-k) ||(I-T)Ax||^2 / (2 ||A*(I-T)Ax||^2) when TAx differs from
    Ax (scale-aware zero test), else 0 with u_n = x_n exactly.
    """
    A = spec.A
    ax = A.apply(x)
    t_ax = spec.T(ax)
    diff = t_ax - ax
    image_residual = norm(diff)
    threshold = 1e-14 * (1.0 + norm(ax))
    if image_residual <= threshold:
        rho = 0.0
        u = x
    else:
        adj = A.apply_adjoint(diff)
        denom = norm(adj) ** 2
        if denom == 0.0:
            raise AdjointInconsistency(
                "A* annihilates a residual of norm %.3e" % image_residual, n
            )
        k = spec.demicontractive_k()
        rho = (1.0 - k) * image_residual ** 2 / (2.0 * denom)
        u = x + rho * adj
    u_u = spec.U(u)
    alpha = spec.alpha(n)
    x_next = (1.0 - alpha) * u + alpha * u_u
    return StepResult(
        x=x_next,
        intermediates={"u": u},
        step=rho,
        residual_primary=max(norm(u_u - u), image_residual),
        residual_coupling=image_residual,
    )


def step_synchronal(spec, x, n):
    """Viscosity / hybrid steepest-descent step around the averaged power.

    x_{n+1} = alpha_n gamma f(x_n) + (I - alpha_n mu G)(beta_n x_n +
    (1 - beta_n) T^{n+1} x_n).
    """
    alpha = spec.alpha(n)
    beta = spec.beta(n)
    t_pow = power_apply(spec.T, n + 1, x, check_domain=False)
    averaged = beta * x + (1.0 - beta) * t_pow
    x_next = (
        alpha * spec.gamma_visc * spec.f(x)
        + averaged
        - alpha * spec.mu * spec.G(averaged)
    )
    return StepResult(
        x=x_next,
        intermediates={"u": averaged},
        step=alpha,
        residual_primary=norm(x - t_pow),
    )


# ---------------------------------------------------------------------------
# two-variable (equality) families


def _equality_step(spec, x, y, n, project_blocks):
    u_op, t_op = spec.block_operators
    A, B = spec.A, spec.B
    lam = spec.lam(n)
    alpha = spec.alpha(n)
    beta = spec.beta(n)
    gap = A.apply(x) - B.apply(y)
    coupling = norm(gap)

    z = x - lam * A.apply_adjoint(gap)
    if project_blocks:
        z = project(spec.C, z)
    uz = u_op(z)
    w = (1.0 - beta) * z + beta * uz
    x_next = (1.0 - alpha) * z + alpha * u_op(w)

    u = y + lam * B.apply_adjoint(gap)
    if project_blocks:
        u = project(spec.Q, u)
    tu = t_op(u)
    r = (1.0 - beta) * u + beta * tu
    y_next = (1.0 - alpha) * u + alpha * t_op(r)

    residual = max(coupling, norm(uz - z), norm(tu - u))
    return StepResult(
        x=x_next,
        y=y_next,
        intermediates={"z": z, "w": w, "u": u, "r": r},
        step=lam,
        residual_primary=residual,
        residual_coupling=coupling,
    )


def step_sffpep(spec, x, y, n):
    """Simultaneous projected update of both blocks of the equality problem.

    The x block moves against A*(Ax - By), projects onto C, and applies U in
    an inner/outer averaged pattern; the y block mirrors it with B, Q, T.
    """
    return _equality_step(spec, x, y, n, project_blocks=True)


def step_scfpep(spec, x, y, n):
    """Equality step over convex combinations of relaxed operator families.

    The spec builds U = sum_j delta_j U_{gamma_j} and T = sum_i lambda_i
    T_{tau_i} once; this runs the unprojected equality update with them.
    ``branch_assignment`` chooses which block receives which combined
    operator; the published reference table for this family matches the
    swapped assignment, not the printed one, so both are available.
    """
    return _equality_step(spec, x, y, n, project_blocks=False)


# ---------------------------------------------------------------------------
# extra-gradient family


def _extragradient_correction(spec, v):
    av = spec.A.apply(v)
    mapped = spec.G(project(spec.Q, av))
    return spec.A.apply_adjoint(av - mapped)


def step_extragradient(spec, x, cuts, x0, n):
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
    y_pt = project(spec.C, x - gamma * _extragradient_correction(spec, x))
    z_pt = project(spec.C, y_pt - gamma * _extragradient_correction(spec, y_pt))
    inner_pt = (1.0 - beta) * z_pt + beta * spec.T(z_pt)
    w_pt = (1.0 - alpha) * z_pt + alpha * spec.T(inner_pt)

    new_cuts = list(cuts)
    new_cuts.append(halfspace_from_distance_dominance(w_pt, z_pt))
    new_cuts.append(halfspace_from_distance_dominance(z_pt, y_pt))
    new_cuts.append(halfspace_from_distance_dominance(y_pt, x))
    if len(new_cuts) > spec.cut_cap:
        raise CutCapExceeded(
            "cut list grew to %d, beyond the cap %d" % (len(new_cuts), spec.cut_cap),
            n,
        )
    x_next = project(Intersection([spec.C, *new_cuts]), x0)
    return StepResult(
        x=x_next,
        intermediates={"u": y_pt, "z": z_pt, "w": w_pt, "r": inner_pt},
        step=gamma,
        residual_primary=norm(x_next - x),
        cuts=new_cuts,
    )


# ---------------------------------------------------------------------------
# driver

def _distance_to_reference(spec, x, y):
    if spec.reference_solution is None:
        return None
    if y is not None:
        x_ref, y_ref = spec.reference_solution
        return float(np.sqrt(norm(x - x_ref) ** 2 + norm(y - y_ref) ** 2))
    (x_ref,) = spec.reference_solution
    return norm(x - x_ref)


def _image_residual(spec, x):
    ax = spec.A.apply(x)
    return norm(spec.T(ax) - ax)


def _fixed_point_residual(spec, x, y):
    return norm(spec.T(x) - x)


def _equality_residual(spec, x, y):
    u_op, t_op = spec.block_operators
    gap = norm(spec.A.apply(x) - spec.B.apply(y))
    return max(gap, norm(u_op(x) - x), norm(t_op(y) - y))


# family -> (residual of the starting point, one step).  The steps are
# called through this module's global names, so a wrapper installed on
# ``step_*`` sees every call.  The extra-gradient per-step residual
# ||x_{n+1} - x_n|| has no n = 0 analogue, so its initial record carries the
# fixed-point residual.
_FAMILY_STEPS = {
    SCFPP: (lambda spec, x, y: max(norm(spec.G(x) - x), _image_residual(spec, x)),
            lambda spec, x, y, cuts, x0, n: step_scfpp(spec, x, n)),
    SCFPP_ADAPTIVE: (
        lambda spec, x, y: max(norm(spec.U(x) - x), _image_residual(spec, x)),
        lambda spec, x, y, cuts, x0, n: step_scfpp_adaptive(spec, x, n)),
    SYNCHRONAL_VIP: (_fixed_point_residual,
                     lambda spec, x, y, cuts, x0, n: step_synchronal(spec, x, n)),
    SFFPEP: (_equality_residual,
             lambda spec, x, y, cuts, x0, n: step_sffpep(spec, x, y, n)),
    SCFPEP: (_equality_residual,
             lambda spec, x, y, cuts, x0, n: step_scfpep(spec, x, y, n)),
    EXTRAGRADIENT_SFFPP: (
        _fixed_point_residual,
        lambda spec, x, y, cuts, x0, n: step_extragradient(spec, x, cuts, x0, n)),
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
    ``A`` (``B``) has columns where the family has that slot; a NaN or
    infinite iterate or residual later raises :class:`NonFiniteState`, and a
    rule's pole a :class:`SolverError`.
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
    cuts = [] if family.accumulates_cuts else None

    try:
        residual = initial_residual(spec, x, y)
    except ZeroDivisionError as err:
        raise _breakdown(err, 0) from err
    records = [
        TraceRecord(
            n=0,
            x=x,
            y=y,
            residual_primary=residual,
            dist_to_target=_distance_to_reference(spec, x, y),
            cut_count=None if cuts is None else 0,
        )
    ]
    _check_finite(records[0], None, 0)
    stop_reason = "max_iters"
    for n in range(rule.max_iters):
        try:
            result = step(spec, x, y, cuts, records[0].x, n)
        except _STEP_FAILURES as err:
            raise _breakdown(err, n) from err
        moved = norm(result.x - x) if y is None else float(
            np.sqrt(norm(result.x - x) ** 2 + norm(result.y - y) ** 2)
        )
        x = result.x
        y = result.y
        if cuts is not None:
            cuts = result.cuts
        dist = _distance_to_reference(spec, x, y)
        records.append(
            TraceRecord(
                n=n + 1,
                x=x,
                y=y,
                u=result.intermediates.get("u"),
                z=result.intermediates.get("z"),
                w=result.intermediates.get("w"),
                r=result.intermediates.get("r"),
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
