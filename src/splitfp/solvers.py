"""The iteration step functions and the shared run driver.

Every family steps as ``step_*(spec, state, n)``, a pure function from the
state after n steps (a :class:`StepResult`) to the next, with the step's
intermediates and residuals.  :func:`_family_steps` gives each family's
start (its state at n = 0) and step; everything else the driver needs to
know about a family comes from its record in
:data:`splitfp.problems.FAMILIES`.  The driver applies a step repeatedly,
records a self-describing trace, and stops on the first enabled
criterion.  The recorded residuals are exactly the quantities the
convergence analyses drive to zero, so residual decay is a meaningful
diagnostic for every family.

Each step is written once, on its leaves: ``A.apply`` and
``A.apply_adjoint``, operator calls ``T(x)``, ``norm``, ``project`` and
``power_apply``.  Each leaf takes a Python float as a 1-D point and gives a
float with the bits of its array form's entry, so a run whose blocks are all
1-D carries its state as floats, and any other run as arrays, through the
same steps.  The driver keeps one tuple of each state's values, turns
each full block of them into float64 columns as soon as it fills, keeping
only the last state's tuple, and joins the blocks' columns when the run
stops (see :class:`splitfp.problems.IterationTrace`).
"""

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import problems
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
    ValidationError,
    _columns,
)
from .projections import (
    CutSet,
    InfeasibleIntersection,
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
    """``err`` as a SolverError naming iteration n, of err's type if it is one."""
    kind = type(err) if isinstance(err, SolverError) else SolverError
    if isinstance(err, ZeroDivisionError):
        err = "division by zero, an operator rule evaluated at its pole (%s)" % err
    elif isinstance(err, OverflowError):
        err = "float overflow: %s" % err
    return kind("iteration %d: %s" % (n, err), n)


def _state(rec):
    text = "x=%s" % rec.x.tolist()
    if rec.y is not None:
        text += ", y=%s" % rec.y.tolist()
    return text + ", residual=%r" % rec.residual_primary


def _finite(state):
    """Whether a state's iterates and residuals are all finite."""
    x, y, coupling = state.x, state.y, state.residual_coupling
    if type(x) is float:   # a run on floats
        blocks = math.isfinite(x) and (y is None or math.isfinite(y))
    else:
        blocks = np.isfinite(x).all() and (y is None or np.isfinite(y).all())
    return (blocks and math.isfinite(state.residual_primary)
            and (coupling is None or math.isfinite(coupling)))


def _nonfinite(tail, n):
    """The :class:`NonFiniteState` of iteration n, whose state is the last
    record of ``tail``, a trace of it and the record before it (none when
    the start is not finite)."""
    *earlier, rec = tail
    last = earlier[-1] if earlier else None
    before = ("the start" if last is None
              else "last finite state n=%d: %s" % (last.n, _state(last)))
    return NonFiniteState("iteration %d: non-finite state %s; %s"
                          % (n, _state(rec), before), n, last)


@dataclass
class StepResult:
    """A run's state after n steps (at n = 0, its start) and what its step reports."""

    x: np.ndarray | float   # an array, or a float in a run that steps on floats
    y: np.ndarray | float | None = None
    intermediates: dict = field(default_factory=dict)
    step: float | None = None
    residual_primary: float | None = None
    residual_coupling: float | None = None
    cut_count: int | None = None
    carry: object = None   # the family's own (extra-gradient: cuts, x0); run passes it on


def _steps_on_floats(spec, x, y):
    """Whether a run carries its state as Python floats: when the starts,
    the reference, A and B, and every set and operator are 1-D."""
    parts = (spec.C, spec.Q, spec.T, spec.G, spec.U, spec.f,
             *(spec.block_operators or ()))
    return not (any(v is not None and v.shape != (1,)
                    for v in (x, y, *(spec.reference_solution or ())))
                or any(m and m.matrix.shape != (1, 1) for m in (spec.A, spec.B))
                or any(p and p.dim != 1 for p in parts))


# ---------------------------------------------------------------------------
# one-variable families


def step_scfpp(spec, state, n):
    """Adjoint-corrected iterate-power step.

    u_n = x_n + gamma A*(T^{n+1} - I) A x_n, then the averaged update
    x_{n+1} = alpha_n u_n + (1 - alpha_n) G^{n+1} u_n.  The exponent is
    n + 1 at iteration counter n, so the first step applies the operators
    once rather than degenerating to the identity power.
    """
    A, x = spec.A, state.x
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


def step_scfpp_adaptive(spec, state, n):
    """Norm-free variant: the correction step is chosen from the residual.

    rho_n = (1-k) ||(I-T)Ax||^2 / (2 ||A*(I-T)Ax||^2) when TAx differs from
    Ax (scale-aware zero test), else 0 with u_n = x_n exactly.
    """
    A, x = spec.A, state.x
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


def step_synchronal(spec, state, n):
    """Viscosity / hybrid steepest-descent step around the averaged power.

    x_{n+1} = alpha_n gamma f(x_n) + (I - alpha_n mu G)(beta_n x_n +
    (1 - beta_n) T^{n+1} x_n).
    """
    x = state.x
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


def step_sffpep(spec, state, n):
    """Simultaneous update of both blocks of the equality problem.

    The x block moves against A*(Ax - By), projects onto C, and applies U in
    an inner/outer averaged pattern; the y block mirrors it with B, Q, T.
    An ``scfpep`` spec steps here with U = sum_j delta_j U_{gamma_j} and
    T = sum_i lambda_i T_{tau_i}, built once, and no C or Q, so unprojected;
    its published table matches ``branch_assignment="swapped"``, not the
    printed assignment, so both are available.
    """
    u_op, t_op = spec.block_operators
    A, B = spec.A, spec.B
    x, y = state.x, state.y
    lam = spec.lam(n)
    alpha = spec.alpha(n)
    beta = spec.beta(n)
    gap = A.apply(x) - B.apply(y)
    coupling = norm(gap)

    z = x - lam * A.apply_adjoint(gap)
    if spec.C is not None:
        z = project(spec.C, z)
    uz = u_op(z)
    w = (1.0 - beta) * z + beta * uz
    x_next = (1.0 - alpha) * z + alpha * u_op(w)

    u = y + lam * B.apply_adjoint(gap)
    if spec.Q is not None:
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


# ---------------------------------------------------------------------------
# extra-gradient family


def _extragradient_correction(spec, v):
    av = spec.A.apply(v)
    mapped = spec.G(project(spec.Q, av))
    return spec.A.apply_adjoint(av - mapped)


def step_extragradient(spec, state, n):
    """Double-extrapolation step with distance-dominance cuts.

    Computes two projected extrapolations y_n, z_n, an Ishikawa-style inner
    point, and the anchor w_n; adds the three halfspaces

        ||w_n - z|| <= ||z_n - z||,  ||z_n - z|| <= ||y_n - z||,
        ||y_n - z|| <= ||x_n - z||

    to ``cuts``, the :class:`CutSet` of C and every cut so far, and
    projects the *initial* point x0 onto the grown set; the state carries
    ``(cuts, x0)``.  Cuts fold into the running set and are never dropped:
    the nesting of the cut sets is what the strong-convergence argument
    rests on.
    """
    x, (cuts, x0) = state.x, state.carry
    gamma = spec.gamma_seq(n)
    alpha = spec.alpha(n)
    beta = spec.beta(n)
    y_pt = project(spec.C, x - gamma * _extragradient_correction(spec, x))
    z_pt = project(
        spec.C, y_pt - gamma * _extragradient_correction(spec, y_pt))
    inner_pt = (1.0 - beta) * z_pt + beta * spec.T(z_pt)
    w_pt = (1.0 - alpha) * z_pt + alpha * spec.T(inner_pt)

    cuts = cuts.add(halfspace_from_distance_dominance(w_pt, z_pt),
                    halfspace_from_distance_dominance(z_pt, y_pt),
                    halfspace_from_distance_dominance(y_pt, x))
    if cuts.count > spec.cut_cap:
        raise CutCapExceeded(
            "cut list grew to %d, beyond the cap %d" % (cuts.count, spec.cut_cap),
            n,
        )
    x_next = project(cuts, x0)
    return StepResult(
        x=x_next,
        intermediates={"u": y_pt, "z": z_pt, "w": w_pt, "r": inner_pt},
        step=gamma,
        residual_primary=norm(x_next - x),
        cut_count=cuts.count,
        carry=(cuts, x0),
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


def _moved(last, state):
    """How far a step moved the state: the pair norm of both blocks' moves."""
    if state.y is None:
        return norm(state.x - last.x)
    return _pair_norm(norm(state.x - last.x), norm(state.y - last.y))


def _distance_to_reference(ref, x, y):
    if ref is None:
        return None
    if y is not None:
        return _pair_norm(norm(x - ref[0]), norm(y - ref[1]))
    return norm(x - ref[0])


def _image_residual(spec, x):
    ax = spec.A.apply(x)
    return norm(spec.T(ax) - ax)


def _fixed_point_residual(spec, x, y):
    return norm(spec.T(x) - x)


def _equality_residual(spec, x, y):
    u_op, t_op = spec.block_operators
    gap = norm(spec.A.apply(x) - spec.B.apply(y))
    return max(gap, norm(u_op(x) - x), norm(t_op(y) - y))


def _starts_at(residual):
    """The start whose state at n = 0 is x, y with ``residual(spec, x, y)``."""
    def start(spec, x, y):
        return StepResult(x, y, residual_primary=residual(spec, x, y))
    return start


def _start_extragradient(spec, x, y):
    # the per-step residual ||x_{n+1} - x_n|| has no n = 0 analogue, so the
    # start carries the fixed-point residual; x is the anchor every step
    # projects onto the grown cut set
    return StepResult(x, residual_primary=_fixed_point_residual(spec, x, y), cut_count=0,
                      carry=(CutSet(spec.C), x))


def _family_steps():
    """family -> (its start: (spec, x, y) -> the state at n = 0; its step).

    Built at each run from this module's global names, so a wrapper
    installed on a ``step_*`` sees every call.
    """
    return {
        SCFPP: (_starts_at(lambda spec, x, y: max(norm(spec.G(x) - x),
                                                  _image_residual(spec, x))), step_scfpp),
        SCFPP_ADAPTIVE: (_starts_at(lambda spec, x, y: max(norm(spec.U(x) - x),
                                                           _image_residual(spec, x))),
                         step_scfpp_adaptive),
        SYNCHRONAL_VIP: (_starts_at(_fixed_point_residual), step_synchronal),
        SFFPEP: (_starts_at(_equality_residual), step_sffpep),
        SCFPEP: (_starts_at(_equality_residual), step_sffpep),
        EXTRAGRADIENT_SFFPP: (_start_extragradient, step_extragradient),
    }


# what the trace keeps of a state, as one tuple: these fields, then its
# intermediates
_ROW = ("x", "y", "step", "residual_primary", "residual_coupling", "cut_count")
_row = attrgetter(*_ROW, "intermediates")


def _block(family, rows, dists, first):
    """The columns and absent masks (:func:`splitfp.problems._columns`) of
    the states after ``first``, ``first`` + 1, ... steps, given as ``rows``
    (:data:`_row` of each) and their distances to the reference (``dists``)."""
    *columns, slots = zip(*rows)
    values = {"n": np.arange(first, first + len(rows)), **dict(zip(_ROW, columns)),
              "dist_to_target": dists}
    for name in family.intermediates:
        values[name] = [s.get(name) for s in slots]
    return _columns(values)


def _trace(family, blocks, stop_reason=None):
    """The trace of ``blocks``, the :func:`_block` of consecutive states."""
    return IterationTrace(family.name, stop_reason=stop_reason,
                          intermediates=tuple(family.intermediates), blocks=blocks)


# overflow and invalid operations are reported by _finite and _nonfinite as a typed
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
    start must be finite, ``y0`` is given exactly for a two-block family,
    ``x0`` (``y0``) must have the dimension of the space the family iterates
    that block in (``Family.spaces``), and each block of the reference as
    many entries as its start; a NaN or infinite iterate or
    residual later raises :class:`NonFiniteState`, and a rule's pole a
    :class:`SolverError`.  A run whose blocks are all 1-D steps on Python
    floats (see the module notes), with the same trace.  The run keeps each
    state's values (:data:`_row`); before each step, a full block of
    :data:`splitfp.problems._BLOCK` states before the last, every one of them
    finite, goes into float64 columns and its values are dropped, so only
    the last state is kept as values between blocks.  When the run stops,
    the states left go into one more block and the trace joins the blocks'
    columns, with the bits of one build over every state.  It builds no
    :class:`~splitfp.problems.TraceRecord`, except the records of a state
    that is not finite and of the one before it, which
    :class:`NonFiniteState` names and keeps.
    """
    if rule is None:
        raise ValidationError("a stopping rule is required")
    family = FAMILIES[spec.family]
    start, step = _family_steps()[spec.family]
    if family.two_variable and y0 is None:
        raise ValidationError("family %r iterates two blocks; y0 missing"
                              % spec.family)
    if not family.two_variable and y0 is not None:
        raise ValidationError("family %r iterates one block; y0 given" % spec.family)
    x, y = _vector(x0), None if y0 is None else _vector(y0)
    if not (np.isfinite(x).all() and (y is None or np.isfinite(y).all())):
        raise ValidationError("the start point must be finite")
    # family.spaces lists the x block's space first and the y block's second,
    # as printed: the starts do not swap with the blocks' operators
    for name, point, (_, (where, dim)) in zip(("x0", "y0"), (x, y), family.spaces):
        if point is not None and point.shape[0] != dim(spec):
            raise ValidationError("%s has %d entries; %s expects %d, %s" % (
                name, point.shape[0], spec.family, dim(spec), where))
    ref = spec.reference_solution
    for name, point, target in zip(("x", "y"), (x, y), ref or ()):
        if target.shape[0] != point.shape[0]:
            raise ValidationError("the reference %s* has %d entries; %s0 has %d" % (
                name, target.shape[0], name, point.shape[0]))
    on_floats = _steps_on_floats(spec, x, y)
    if on_floats:
        x, y = x.item(), None if y is None else y.item()
        ref = None if ref is None else tuple(r.item() for r in ref)

    try:
        state = start(spec, x, y)
    except (ZeroDivisionError, OverflowError) as err:
        raise _breakdown(err, 0) from err
    rows, dists = [_row(state)], [_distance_to_reference(ref, state.x, state.y)]
    if not _finite(state):
        raise _nonfinite(_trace(family, [_block(family, rows, dists, 0)]), 0)
    stop_reason, blocks, first = "max_iters", [], 0
    for n in range(rule.max_iters):
        if len(rows) > problems._BLOCK:   # every row has passed _finite
            blocks.append(_block(family, rows[:-1], dists[:-1], first))
            first += len(rows) - 1
            del rows[:-1], dists[:-1]
        try:
            result = step(spec, state, n)
        except _STEP_FAILURES as err:
            raise _breakdown(err, n) from err
        last, state = state, result
        dist = _distance_to_reference(ref, state.x, state.y)
        rows.append(_row(state))
        dists.append(dist)
        if not _finite(state):
            raise _nonfinite(_trace(family, [_block(family, rows[-2:], dists[-2:], n)]), n)
        if rule.residual_tol is not None and state.residual_primary <= rule.residual_tol:
            stop_reason = "residual_tol"
            break
        if rule.stagnation_tol is not None and _moved(last, state) <= rule.stagnation_tol:
            stop_reason = "stagnation_tol"
            break
        if rule.target_tol is not None and dist is not None and dist <= rule.target_tol:
            stop_reason = "target_tol"
            break
    return _trace(family, [*blocks, _block(family, rows, dists, first)], stop_reason)
