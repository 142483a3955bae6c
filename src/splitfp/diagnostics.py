"""Trace analysis: monotone-distance monitors, 1-D fixed-point discovery,
and a high-precision re-execution oracle.

The oracle is a second, deliberately separate implementation of the step
recurrences over ``decimal.Decimal`` with an explicit digit budget.  It
exists to certify the float64 traces and the tabulated reference values:
a bug shared between the two code paths would have to be made twice.  Like
the float driver, it is one loop over one step per family (``_ORACLE_STEPS``),
and it imports nothing from ``solvers``.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .problems import SCFPP, SCFPP_ADAPTIVE, SCFPEP, SFFPEP, SYNCHRONAL_VIP
from .projections import Box, Halfspace, Intersection, WholeSpace
from .spaces import _vector, row_norms

__all__ = [
    "FejerReport",
    "fejer_check",
    "FejerOverflow",
    "FixedPointScan",
    "find_fixed_points_1d",
    "PrecisionOracleConfig",
    "HighPrecisionTrace",
    "reexecute_high_precision",
    "OracleUnsupported",
]


# ---------------------------------------------------------------------------
# monotone-distance monitor


@dataclass
class FejerReport:
    monotone: bool
    first_violation: tuple | None   # (n, before, after)
    max_uptick: float

    def __post_init__(self):
        assert self.monotone == (self.first_violation is None)


class FejerOverflow(OverflowError):
    """A distance of the trace to the target has no float value."""

    def __init__(self, n):
        super().__init__("the distance to the target overflows at n=%d" % n)
        self.n = n


def _trace_distances(trace, target):
    cols = trace.columns
    if "y" not in cols:
        return row_norms(cols["x"] - _vector(target)).tolist()
    dx = row_norms(cols["x"] - _vector(target[0])).tolist()
    dy = row_norms(cols["y"] - _vector(target[1])).tolist()

    def squared(a, b):   # float ** raises OverflowError beyond the largest double
        try:
            return a ** 2 + b ** 2
        except OverflowError:
            return np.inf
    return list(map(squared, dx, dy))


def fejer_check(trace, target, slack=1e-10):
    """Scan a trace for monotone distance decay toward ``target``.

    One-variable traces monitor ||x_n - x*||; two-variable traces monitor
    the squared-sum distance ||x_n - x*||^2 + ||y_n - y*||^2.  The scan is
    monotone iff every step satisfies d_{n+1} <= d_n + slack.  A distance
    beyond the largest double raises :class:`FejerOverflow`.
    """
    if len(trace) < 2:
        raise ValueError("need at least two records")
    with np.errstate(over="ignore"):   # x - x* of two finite states can overflow
        d = _trace_distances(trace, target)
    if np.inf in d:
        raise FejerOverflow(int(trace.columns["n"][d.index(np.inf)]))
    first = None
    max_uptick = 0.0
    for n in range(len(d) - 1):
        uptick = d[n + 1] - d[n]
        max_uptick = max(max_uptick, uptick)
        if uptick > slack and first is None:
            first = (n, d[n], d[n + 1])
    return FejerReport(first is None, first, max_uptick)


# ---------------------------------------------------------------------------
# 1-D fixed-point discovery


@dataclass
class FixedPointScan:
    roots: list                  # isolated fixed points, sorted
    flat_regions: list           # [lo, hi] stretches where T(x) - x ~ 0 throughout

    def covers(self, value, tol=1e-10):
        if any(abs(value - r) <= tol for r in self.roots):
            return True
        return any(lo - tol <= value <= hi + tol for lo, hi in self.flat_regions)


def find_fixed_points_1d(T, interval, grid=10000, tol=1e-12, flat_tol=1e-10):
    """Sign-change scan of g(x) = T(x) - x followed by bisection.

    Returns the isolated roots (refined to within ``tol``) plus the grid
    stretches where g vanishes identically within ``flat_tol`` (set-valued
    fixed regions, as for the identity map).
    """
    if grid < 2:
        raise ValueError("grid must have at least two points")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    xs = np.linspace(lo, hi, grid)

    def g(v):
        return float(T(np.array([v]))[0]) - v

    gs = np.array([g(v) for v in xs])
    near_zero = np.abs(gs) <= flat_tol

    flat_regions = []
    i = 0
    while i < grid:
        if near_zero[i] and i + 1 < grid and near_zero[i + 1]:
            j = i
            while j + 1 < grid and near_zero[j + 1]:
                j += 1
            flat_regions.append((xs[i], xs[j]))
            i = j + 1
        else:
            i += 1

    def in_flat(v):
        return any(a - flat_tol <= v <= b + flat_tol for a, b in flat_regions)

    roots = []

    def add_root(v):
        if in_flat(v):
            return
        if not any(abs(v - r) <= max(tol, 1e-9) for r in roots):
            roots.append(v)

    for i in range(grid):
        if near_zero[i]:
            add_root(xs[i])
    for i in range(grid - 1):
        if gs[i] == 0.0 or gs[i + 1] == 0.0 or near_zero[i] or near_zero[i + 1]:
            continue
        if gs[i] * gs[i + 1] < 0.0:
            a, b, ga = xs[i], xs[i + 1], gs[i]
            while b - a > tol:
                mid = 0.5 * (a + b)
                gm = g(mid)
                if gm == 0.0:
                    a = b = mid
                    break
                if ga * gm < 0.0:
                    b = mid
                else:
                    a, ga = mid, gm
            add_root(0.5 * (a + b))
    return FixedPointScan(sorted(roots), flat_regions)


# ---------------------------------------------------------------------------
# high-precision re-execution oracle


class OracleUnsupported(ValueError):
    """The problem is outside the oracle's re-executable fragment."""


@dataclass
class PrecisionOracleConfig:
    digits: int = 30
    max_n: int = 100

    def __post_init__(self):
        if self.digits < 25:
            raise ValueError("the oracle needs at least 25 significant digits")
        if self.max_n < 1:
            raise ValueError("max_n must be >= 1")


@dataclass
class HPRecord:
    n: int
    x: tuple     # Decimal components
    y: tuple | None = None


@dataclass
class HighPrecisionTrace:
    family: str
    digits: int
    records: list


def _scalar_of(linear_map, name):
    m = linear_map.matrix
    if m.shape != (1, 1):
        raise OracleUnsupported("%s must be a 1x1 map for re-execution" % name)
    return Decimal(float(m[0, 0]))


def _dec_scalar(v):
    arr = _vector(v)
    if arr.shape[0] != 1:
        raise OracleUnsupported("the oracle re-executes one-dimensional runs only")
    return Decimal(float(arr[0]))


def _rule_eval(fixed_point_map, name):
    if fixed_point_map is None or fixed_point_map.rule is None:
        raise OracleUnsupported("%s carries no portable scalar rule; cannot "
                                "re-execute" % name)
    return fixed_point_map.rule.eval_decimal


def _interval_of(body):
    """1-D body as (lo, hi) Decimals with None for an unbounded side; no
    body (a block its family does not project) is the whole line."""
    if body is None or isinstance(body, WholeSpace):
        return None, None
    if isinstance(body, Box):
        lo = None if np.isneginf(body.lower[0]) else Decimal(float(body.lower[0]))
        hi = None if np.isposinf(body.upper[0]) else Decimal(float(body.upper[0]))
        return lo, hi
    if isinstance(body, Halfspace):
        if body.is_whole_space:
            return None, None
        a, b = float(body.a[0]), body.b
        bound = Decimal(b) / Decimal(a)
        return (bound, None) if a < 0 else (None, bound)
    if isinstance(body, Intersection):
        lo, hi = None, None
        for member in body.bodies:
            mlo, mhi = _interval_of(member)
            if mlo is not None:
                lo = mlo if lo is None else max(lo, mlo)
            if mhi is not None:
                hi = mhi if hi is None else min(hi, mhi)
        return lo, hi
    raise OracleUnsupported("set %r is not an interval" % (body,))


def _clip(v, bounds):
    lo, hi = bounds
    if lo is not None and v < lo:
        return lo
    if hi is not None and v > hi:
        return hi
    return v


def _pow_eval(rule_eval, n, v):
    for _ in range(n):
        nxt = rule_eval(v)
        if nxt == v:
            return nxt
        v = nxt
    return v


def _combined_eval(members, relax_weights, weights):
    """Decimal closure for sum_i w_i ((1 - g_i) v + g_i T_i(v))."""
    evals = [_rule_eval(m, m.name or "member") for m in members]
    gammas = [Decimal(float(g)) for g in relax_weights]
    deltas = [Decimal(float(w)) for w in weights]

    def apply(v):
        acc = Decimal(0)
        for ev, g, d in zip(evals, gammas, deltas):
            acc += d * ((1 - g) * v + g * ev(v))
        return acc

    return apply


def _equality_step(spec, u_eval, t_eval, C=None, Q=None):
    """The x block moves against A*(Ax - By), is clipped to C and averaged
    through U; the y block mirrors it with B, Q and T.  A family that does
    not project passes no C and Q."""
    if spec.branch_assignment == "swapped":
        u_eval, t_eval = t_eval, u_eval
    a, b = _scalar_of(spec.A, "A"), _scalar_of(spec.B, "B")
    c_bounds, q_bounds = _interval_of(C), _interval_of(Q)

    def step(n, x, y):
        lam, alpha, beta = (s.eval_decimal(n) for s in (spec.lam, spec.alpha, spec.beta))
        gap = a * x - b * y
        z = _clip(x - lam * a * gap, c_bounds)
        w = (1 - beta) * z + beta * u_eval(z)
        u = _clip(y + lam * b * gap, q_bounds)
        r = (1 - beta) * u + beta * t_eval(u)
        return ((1 - alpha) * z + alpha * u_eval(w),
                (1 - alpha) * u + alpha * t_eval(r))

    return step


def _scfpp_step(spec):
    a = _scalar_of(spec.A, "A")
    t_eval = _rule_eval(spec.T, "T")
    g_eval = _rule_eval(spec.G, "G")
    gamma = Decimal(float(spec.gamma))

    def step(n, x, y):
        alpha = spec.alpha.eval_decimal(n)
        ax = a * x
        t_ax = _pow_eval(t_eval, n + 1, ax)
        u = x + gamma * a * (t_ax - ax)
        g_u = _pow_eval(g_eval, n + 1, u)
        return alpha * u + (1 - alpha) * g_u, None

    return step


def _adaptive_step(spec):
    a = _scalar_of(spec.A, "A")
    t_eval = _rule_eval(spec.T, "T")
    u_eval = _rule_eval(spec.U, "U")
    k = Decimal(float(spec.demicontractive_k()))
    zero_gate = Decimal("1e-14")

    def step(n, x, y):
        alpha = spec.alpha.eval_decimal(n)
        ax = a * x
        diff = t_eval(ax) - ax
        if abs(diff) <= zero_gate * (1 + abs(ax)):
            u = x
        else:
            adj = a * diff
            rho = (1 - k) * diff * diff / (2 * adj * adj)
            u = x + rho * adj
        return (1 - alpha) * u + alpha * u_eval(u), None

    return step


def _synchronal_step(spec):
    t_eval = _rule_eval(spec.T, "T")
    f_eval = _rule_eval(spec.f, "f")
    g_eval = _rule_eval(spec.G, "G")
    mu = Decimal(float(spec.mu))
    gamma_v = Decimal(float(spec.gamma_visc))

    def step(n, x, y):
        alpha, beta = spec.alpha.eval_decimal(n), spec.beta.eval_decimal(n)
        averaged = beta * x + (1 - beta) * _pow_eval(t_eval, n + 1, x)
        return (alpha * gamma_v * f_eval(x) + averaged
                - alpha * mu * g_eval(averaged)), None

    return step


# family -> builder of its Decimal step, parallel to solvers._family_steps().
# A builder binds the family's Decimal constants, rule evaluators and
# intervals once and returns its step (n, x, y) -> (x, y) on Decimal
# scalars, with y None for a one-block family.  The extra-gradient family
# (cut accumulation) is outside the re-executable fragment.
_ORACLE_STEPS = {
    SCFPP: _scfpp_step,
    SCFPP_ADAPTIVE: _adaptive_step,
    SYNCHRONAL_VIP: _synchronal_step,
    SFFPEP: lambda spec: _equality_step(
        spec, _rule_eval(spec.U, "U"), _rule_eval(spec.T, "T"), spec.C, spec.Q),
    SCFPEP: lambda spec: _equality_step(
        spec, _combined_eval(spec.U_family, spec.u_relax, spec.u_weights),
        _combined_eval(spec.T_family, spec.t_relax, spec.t_weights)),
}


def reexecute_high_precision(spec, x0, y0=None, config=None):
    """Re-run a recurrence in decimal arithmetic at a fixed digit budget.

    Supports one-dimensional problems whose operators carry portable scalar
    rules and whose linear maps are scalars; the extra-gradient family (cut
    accumulation) is outside the re-executable fragment.  A two-block
    family needs ``y0``, and a one-block family takes none.  Returns a trace
    of Decimal iterates in the same (n, x, y) shape as the float64 driver.
    """
    if config is None:
        config = PrecisionOracleConfig()
    builder = _ORACLE_STEPS.get(spec.family)
    if builder is None:
        raise OracleUnsupported("%s runs are not re-executable" % spec.family)
    with localcontext() as ctx:
        ctx.prec = config.digits
        step = builder(spec)
        if (y0 is not None) != spec.two_variable:
            raise OracleUnsupported("%s family %s y0" % (
                ("two-block", "needs") if y0 is None else ("one-block", "takes no")))
        x, y = _dec_scalar(x0), None if y0 is None else _dec_scalar(y0)
        records = [HPRecord(0, (x,), None if y is None else (y,))]
        for n in range(config.max_n):
            x, y = step(n, x, y)
            records.append(HPRecord(n + 1, (x,), None if y is None else (y,)))
    return HighPrecisionTrace(spec.family, config.digits, records)
