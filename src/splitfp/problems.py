"""Problem descriptions, solver families, stopping rules, and iteration traces.

Each solver family is one :class:`Family` record in :data:`FAMILIES`: the
slots a spec must fill, the range checks against the convergence theory,
the trace layout, and whether cuts accumulate.  A frozen
:class:`ProblemSpec` names one family and carries the operators, linear
maps, sets, and parameter sequences it needs; construction validates it,
and a changed spec is a new one (``dataclasses.replace``), validated again.
Range checks are collected as warnings and raised only when
``enforce_ranges`` is set (the bundled reference configurations knowingly
sit outside the theoretical ranges and disable enforcement).
"""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    Contraction,
    FixedPointMap,
    SequenceSpec,
    convex_combine,
    relax,
)
from .projections import ConvexBody
from .spaces import LinearMap, estimate_norm_squared

__all__ = [
    "SCFPP",
    "SCFPP_ADAPTIVE",
    "SYNCHRONAL_VIP",
    "SFFPEP",
    "SCFPEP",
    "EXTRAGRADIENT_SFFPP",
    "Family",
    "FAMILIES",
    "ProblemSpec",
    "StoppingRule",
    "TraceRecord",
    "IterationTrace",
    "ValidationError",
]

SCFPP = "scfpp"
SCFPP_ADAPTIVE = "scfpp_adaptive"
SYNCHRONAL_VIP = "synchronal_vip"
SFFPEP = "sffpep"
SCFPEP = "scfpep"
EXTRAGRADIENT_SFFPP = "extragradient_sffpp"


class ValidationError(ValueError):
    """Problem description incomplete or out of range."""


def _declared(m, constant):
    """The first value of ``constant`` met on m's walk (``m.implied()``) of its
    declared class, then its extra classes; None if none is met."""
    values = (getattr(cls, constant) for cls in m.implied())
    return next((v for v in values if v is not None), None)


def _seq_range_ok(seq, lo, hi, upto=100):
    """Sampled range check over n = 0..upto-1 (limits are not decidable)."""
    for n in range(upto):
        v = seq(n)
        if not (lo < v < hi):
            return n, v
    return None


# ---------------------------------------------------------------------------
# per-family range checks: check(spec, warn) raises ValidationError for a
# malformed spec and calls warn(message) for a parameter outside the theory


def _check_seq_in(spec, warn, name, lo, hi):
    bad = _seq_range_ok(getattr(spec, name), lo, hi)
    if bad is not None:
        warn("%s(n=%d) = %g outside (%g, %g)" % (name, bad[0], bad[1], lo, hi))


def _check_scfpp(spec, warn):
    if spec.gamma is None:
        raise ValidationError("scfpp needs the scalar step gamma")
    _check_seq_in(spec, warn, "alpha", 0.0, 1.0)
    bound = spec.gamma_cap()
    if not 0.0 < spec.gamma < bound:
        warn("gamma = %g outside (0, %g)" % (spec.gamma, bound))


def _check_scfpp_adaptive(spec, warn):
    k = spec.demicontractive_k()
    _check_seq_in(spec, warn, "alpha", 0.0, min(1.0, 1.0 - k))


def _check_synchronal(spec, warn):
    if spec.mu is None or spec.gamma_visc is None:
        raise ValidationError("synchronal needs mu and gamma_visc")
    if not isinstance(spec.f.declared_class, Contraction):
        raise ValidationError("f must declare Contraction(k)")
    eta = _declared(spec.G, "strong_monotonicity")
    lip = _declared(spec.G, "lipschitz")
    if eta is None or lip is None:
        raise ValidationError(
            "G must declare a strong-monotonicity modulus and a "
            "Lipschitz constant"
        )
    if not 0.0 < spec.mu < 2.0 * eta / lip ** 2:
        warn("mu = %g outside (0, %g)" % (spec.mu, 2.0 * eta / lip ** 2))
    tau = spec.synchronal_tau()
    kf = spec.f.declared_class.k
    if not 0.0 < spec.gamma_visc < tau / kf:
        warn("gamma_visc = %g outside (0, %g)" % (spec.gamma_visc, tau / kf))
    _check_seq_in(spec, warn, "alpha", 0.0, 1.0)
    k_t = max(0.0, _declared(spec.T, "demicontractive") or 0.0)
    bad = _seq_range_ok(spec.beta, k_t - 1e-15, 1.0)
    if bad is not None:
        warn("beta(n=%d) = %g outside [%g, 1)" % (bad[0], bad[1], k_t))


def _check_sffpep(spec, warn):
    if spec.B.rows != spec.A.rows:
        raise ValidationError("B has %d rows and A has %d; Ax - By needs one space"
                              % (spec.B.rows, spec.A.rows))
    _check_seq_in(spec, warn, "alpha", 0.0, 1.0)
    _check_seq_in(spec, warn, "beta", 0.0, 1.0)
    cap = 2.0 / (estimate_norm_squared(spec.A) + estimate_norm_squared(spec.B))
    _check_seq_in(spec, warn, "lam", 0.0, cap)


def _check_scfpep(spec, warn):
    for nm, weights in (("u_weights", spec.u_weights),
                        ("t_weights", spec.t_weights)):
        if not weights:
            raise ValidationError("scfpep needs %s" % nm)
        if any(w <= 0 for w in weights):
            raise ValidationError("%s must be positive" % nm)
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValidationError("%s must sum to 1" % nm)
    for nm, rel, fam_ops in (("u_relax", spec.u_relax, spec.U_family),
                             ("t_relax", spec.t_relax, spec.T_family)):
        if len(rel) != len(fam_ops):
            raise ValidationError("%s must match its operator family" % nm)
        if any(not 0.0 < r < 1.0 for r in rel):
            warn("%s entries must lie in (0, 1)" % nm)
    _check_sffpep(spec, warn)


def _check_extragradient(spec, warn):
    _check_seq_in(spec, warn, "alpha", 0.0, 1.0)
    _check_seq_in(spec, warn, "beta", 0.0, 1.0)
    _check_seq_in(spec, warn, "gamma_seq", 0.0, 1.0 / estimate_norm_squared(spec.A))
    if spec.cut_cap < 3:
        raise ValidationError("cut_cap must allow at least one iteration")


def _scfpep_blocks(spec):
    """U = sum_j delta_j U_{gamma_j} and T = sum_i lambda_i T_{tau_i}."""
    return tuple(
        convex_combine([relax(m, g) for m, g in zip(members, rel)], weights)
        for members, rel, weights in (
            (spec.U_family, spec.u_relax, spec.u_weights),
            (spec.T_family, spec.t_relax, spec.t_weights),
        )
    )


# the spaces a family applies its slots in: a name, and its dimension in a spec
_A_COLUMNS = ("the columns of A", lambda spec: spec.A.cols)
_A_ROWS = ("the rows of A", lambda spec: spec.A.rows)
_B_COLUMNS = ("the columns of B", lambda spec: spec.B.cols)
_T_SPACE = ("the dimension of T", lambda spec: spec.T.dim)


def _check_spaces(spec, record):
    """Each operator and set (each member of a family) has the dimension of
    the space its family applies it in."""
    spaces = [space for _, space in record.spaces]
    if record.two_variable and spec.branch_assignment == "swapped":
        spaces[:2] = spaces[1::-1]   # the blocks exchange operators
    for (slot, _), (where, dim) in zip(record.spaces, spaces):
        value = getattr(spec, slot)
        parts = value if isinstance(value, tuple) else (value,)
        for i, part in enumerate(parts):
            if part.dim != dim(spec):
                name = slot if part is value else "%s[%d]" % (slot, i)
                raise ValidationError("%s acts in dimension %d; %s applies it in %s, "
                                      "dimension %d" % (name, part.dim, spec.family,
                                                        where, dim(spec)))


# ---------------------------------------------------------------------------
# the family records


@dataclass(frozen=True)
class Family:
    """One solver family: the slots a spec of it must fill, its range checks
    ``check(spec, warn)``, the space each operator and set slot acts in
    (``spaces``, (slot, space) pairs; the first slot acts in the x block's
    space, and a two-variable family's second, its y-block operator as
    printed, in the y block's), the trace slots a step fills
    (``intermediates``, of which those in ``y_block`` have the y block's
    dimension), whether it carries a growing cut list, and, for the
    two-variable families, ``blocks(spec)``: the x-block and y-block
    operators as printed.
    """

    name: str
    required: tuple
    check: Callable
    spaces: tuple
    intermediates: str = "u"
    y_block: str = ""
    accumulates_cuts: bool = False
    blocks: Callable | None = None

    @property
    def two_variable(self):
        return self.blocks is not None


FAMILIES = {
    f.name: f
    for f in (
        Family(SCFPP, ("T", "G", "A", "alpha"), _check_scfpp,
               (("G", _A_COLUMNS), ("T", _A_ROWS))),
        Family(SCFPP_ADAPTIVE, ("U", "T", "A", "alpha"), _check_scfpp_adaptive,
               (("U", _A_COLUMNS), ("T", _A_ROWS))),
        Family(SYNCHRONAL_VIP, ("T", "f", "G", "alpha", "beta"), _check_synchronal,
               (("f", _T_SPACE), ("G", _T_SPACE))),
        Family(SFFPEP, ("U", "T", "A", "B", "C", "Q", "alpha", "beta", "lam"),
               _check_sffpep, (("U", _A_COLUMNS), ("T", _B_COLUMNS),
                               ("C", _A_COLUMNS), ("Q", _B_COLUMNS)),
               "uzwr", "ur", blocks=lambda spec: (spec.U, spec.T)),
        Family(SCFPEP, ("U_family", "T_family", "A", "B", "alpha", "beta", "lam"),
               _check_scfpep, (("U_family", _A_COLUMNS), ("T_family", _B_COLUMNS)),
               "uzwr", "ur", blocks=_scfpep_blocks),
        Family(EXTRAGRADIENT_SFFPP,
               ("T", "G", "A", "C", "Q", "alpha", "beta", "gamma_seq"),
               _check_extragradient, (("T", _A_COLUMNS), ("C", _A_COLUMNS),
                                      ("G", _A_ROWS), ("Q", _A_ROWS)),
               "uzwr", accumulates_cuts=True),
    )
}


@dataclass(frozen=True)
class ProblemSpec:
    """One of the six split fixed-point problem families.

    Operator slots by family:

    - ``scfpp``: ``G`` acts on the primal space, ``T`` on the image space,
      coupled through ``A``; fixed scalar step ``gamma``.
    - ``scfpp_adaptive``: ``U`` primal, ``T`` image, step chosen per
      iteration from the residual (no norm information needed).
    - ``synchronal_vip``: fixed-point map ``T``, contraction ``f``,
      strongly monotone Lipschitz operator ``G``; scalars ``mu`` and
      ``gamma_visc``.
    - ``sffpep``: ``U`` on the x block, ``T`` on the y block, coupled by
      ``A``, ``B`` with projections onto ``C``, ``Q`` and step sequence
      ``lam``.
    - ``scfpep``: finite families ``U_family``/``T_family`` with relaxation
      weights and convex-combination weights; no projections.
    - ``extragradient_sffpp``: ``T`` primal, ``G`` image, sets ``C``, ``Q``,
      step sequence ``gamma_seq``; accumulates distance-dominance cuts.

    Construction records the range ``warnings`` and, for the two-variable
    families, builds ``block_operators``: the (x-block, y-block) operators
    after ``branch_assignment`` (for ``scfpep``, the combined families).
    """

    family: str
    T: FixedPointMap | None = None
    G: FixedPointMap | None = None
    U: FixedPointMap | None = None
    f: FixedPointMap | None = None
    U_family: tuple[FixedPointMap, ...] = ()
    u_relax: tuple[float, ...] = ()    # relaxation weight per member of U_family
    u_weights: tuple[float, ...] = ()  # convex-combination weights
    T_family: tuple[FixedPointMap, ...] = ()
    t_relax: tuple[float, ...] = ()
    t_weights: tuple[float, ...] = ()
    A: LinearMap | None = None
    B: LinearMap | None = None
    C: ConvexBody | None = None
    Q: ConvexBody | None = None
    alpha: SequenceSpec | None = None
    beta: SequenceSpec | None = None
    lam: SequenceSpec | None = None        # coupling step for the equality families
    gamma: float | None = None             # fixed adjoint-correction step (scfpp)
    gamma_seq: SequenceSpec | None = None  # extra-gradient step sequence
    mu: float | None = None                # synchronal scalars
    gamma_visc: float | None = None
    reference_solution: tuple | None = None
    branch_assignment: str = "as_printed"  # or "swapped": exchange block operators
    gamma_bound_choice: str = "l_star"     # or "lipschitz": cap for gamma
    cut_cap: int = 10000
    enforce_ranges: bool = True
    warnings: tuple = field(default=(), init=False)

    def __post_init__(self):
        record = FAMILIES.get(self.family)
        if record is None:
            raise ValidationError("unknown family %r" % (self.family,))
        if self.branch_assignment not in ("as_printed", "swapped"):
            raise ValidationError("branch_assignment must be as_printed|swapped")
        if self.gamma_bound_choice not in ("l_star", "lipschitz"):
            raise ValidationError("gamma_bound_choice must be l_star|lipschitz")
        ref = self.reference_solution
        if ref is not None:
            if record.two_variable and len(ref) != 2:
                raise ValidationError("family %r takes a reference [x*, y*]"
                                      % (self.family,))
            # reshape, not atleast_1d: replace() passes the normalized tuple in
            parts = (ref[0], ref[1]) if record.two_variable else (ref,)
            object.__setattr__(self, "reference_solution", tuple(
                np.asarray(r, dtype=float).reshape(-1) for r in parts))

        missing = [n for n in record.required if not getattr(self, n)]
        if missing:
            raise ValidationError(
                "family %r requires %s" % (self.family, ", ".join(missing))
            )
        _check_spaces(self, record)
        warnings = []

        def warn(message):
            warnings.append(message)
            if self.enforce_ranges:
                raise ValidationError(message)

        record.check(self, warn)
        object.__setattr__(self, "warnings", tuple(warnings))
        blocks = None
        if record.two_variable:
            blocks = record.blocks(self)
            if self.branch_assignment == "swapped":
                blocks = blocks[::-1]
        object.__setattr__(self, "block_operators", blocks)

    @property
    def two_variable(self):
        return FAMILIES[self.family].two_variable

    # -- derived constants ---------------------------------------------------

    def gamma_cap(self):
        """Admissible upper bound for the scfpp step gamma.

        Defaults to 1/||A A*||; the alternative caps by the operators'
        uniform Lipschitz constant instead (both appear in the underlying
        estimates, and which one binds is ambiguous).
        """
        if self.gamma_bound_choice == "l_star":
            return 1.0 / estimate_norm_squared(self.A)
        ls = [c for c in (_declared(self.T, "lipschitz"), _declared(self.G, "lipschitz"))
              if c is not None]
        if not ls:
            raise ValidationError(
                "gamma_bound_choice='lipschitz' needs declared Lipschitz "
                "constants on T and G"
            )
        return 1.0 / max(ls)

    def demicontractive_k(self):
        ks = []
        for m in (self.U, self.T):
            k = _declared(m, "demicontractive")
            if k is None:
                raise ValidationError("%s must declare a demicontractive-type class"
                                      % (m.name or "map",))
            ks.append(k)
        return max(ks)

    def synchronal_tau(self):
        """tau = mu (eta - mu L^2 / 2), from G's declared moduli."""
        eta = _declared(self.G, "strong_monotonicity")
        lip = _declared(self.G, "lipschitz")
        return self.mu * (eta - self.mu * lip ** 2 / 2.0)


@dataclass(frozen=True)
class StoppingRule:
    """Loop control: any enabled criterion stops the run.

    ``None`` disables a criterion.  ``residual_tol`` applies to the
    family-specific residual, ``stagnation_tol`` to the iterate change,
    ``target_tol`` to the distance from the reference solution.
    """

    max_iters: int
    residual_tol: float | None = None
    stagnation_tol: float | None = None
    target_tol: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        for name in ("residual_tol", "stagnation_tol", "target_tol"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValidationError("%s must be >= 0" % name)


@dataclass
class TraceRecord:
    """One iteration snapshot.  Intermediate slots are family-specific:

    - sffpep/scfpep: z, w from the x block; u, r from the y block
    - scfpp/scfpp_adaptive: u is the adjoint-corrected point
    - synchronal_vip: u is the averaged iterate the update contracts around
    - extragradient: u, z are the two projected extrapolations, r the inner
      averaged point, w the cut anchor
    """

    n: int
    x: np.ndarray
    y: np.ndarray | None = None
    u: np.ndarray | None = None
    z: np.ndarray | None = None
    w: np.ndarray | None = None
    r: np.ndarray | None = None
    step: float | None = None
    residual_primary: float | None = None
    residual_coupling: float | None = None
    dist_to_target: float | None = None
    cut_count: int | None = None


@dataclass
class IterationTrace:
    family: str
    records: list
    stop_reason: str = "max_iters"
    intermediates: tuple = ()   # which of u/z/w/r this family fills

    @property
    def final(self):
        return self.records[-1]

    def __len__(self):
        return len(self.records)
