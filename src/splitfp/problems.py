"""Problem descriptions, solver families, stopping rules, and iteration traces.

Each solver family is one :class:`Family` record in :data:`FAMILIES`: the
slots a spec fills and may set, its theorem's hypotheses as rows, the trace
layout, and whether cuts accumulate.  A frozen :class:`ProblemSpec` names
one family and carries the operators, linear maps, sets, and parameter
sequences it needs; construction checks the rows, and a changed spec is a
new one (``dataclasses.replace``), checked again.  Range and class rows
give warnings, raised only when ``enforce_ranges`` is set (the bundled
reference configurations knowingly sit outside the theoretical ranges and
disable enforcement).
"""

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .operators import (
    Contraction,
    FixedPointMap,
    QuasiNonexpansive,
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
    """Problem description incomplete or out of range.  A message about one
    slot opens with its name (``C: ...``, ``U_family[0]: ...``)."""


def _unset(value, default):   # compared by value for a tuple, string or number only
    return value is default or isinstance(value, (tuple, str, int, float)) and value == default


def _declared(m, constant):
    """The first value of ``constant`` met on m's walk (``m.implied()``) of its
    declared class, then its extra classes; None if none is met."""
    values = (getattr(cls, constant) for cls in m.implied())
    return next((v for v in values if v is not None), None)


# ---------------------------------------------------------------------------
# hypothesis rows, each a function of the spec: a structural row raises a
# ValidationError, and a range or class row returns a warning's message or None


def _entries(slot, value):
    """(name, value) of a slot, or of each member of a tuple slot."""
    if isinstance(value, tuple):
        return [("%s[%d]" % (slot, i), v) for i, v in enumerate(value)]
    return [(slot, value)]


def _range(field, hi, lo=0.0, closed=False):
    """``field`` lies in (lo, hi), or in [lo, hi) with a 1e-15 slack if
    ``closed``: a scalar, each entry of a tuple, or a sequence at every n.
    ``lo`` and ``hi`` are numbers or functions of the spec."""
    def row(spec):
        low, high = (b(spec) if callable(b) else b for b in (lo, hi))
        floor = low - 1e-15 if closed else low
        value = getattr(spec, field)
        if isinstance(value, SequenceSpec):
            bad = value.first_outside(floor, high)
            bad = bad and ("%s(n=%d)" % (field, bad[0]), bad[1])
        else:
            bad = next(((name, v) for name, v in _entries(field, value)
                        if not floor < v < high), None)
        if bad:
            return "%s = %g outside %s%g, %g)" % (*bad, "[" if closed else "(", low, high)
    return row


def _structural(holds, message):   # message: a string, or a function of the spec
    def row(spec):
        if not holds(spec):
            raise ValidationError(message(spec) if callable(message) else message)
    return row


def _quasi_nonexpansive(slot):
    """The walk (``m.implied()``) of ``slot``, or of each member, reaches
    quasi-nonexpansive.  Source: the abstract states the sffpep, scfpep and
    extra-gradient results "for the class of quasi-nonexpansive mappings"."""
    def row(spec):
        for name, m in _entries(slot, getattr(spec, slot)):
            if QuasiNonexpansive() not in m.implied():
                declared = [repr(c) for c in (m.declared_class, *m.extra_classes) if c]
                return "%s: %s does not imply quasi_nonexpansive" % (
                    name, ", ".join(declared) or "no declared class")
    return row


def _demicontractive(spec):   # the adaptive step reads the constant k of U and T
    for m in (spec.U, spec.T):
        if _declared(m, "demicontractive") is None:
            raise ValidationError("%s must declare a demicontractive-type class"
                                  % (m.name or "map",))


def _operator_family(members, relax, weights):
    """An scfpep family's rows: weights positive and summing to 1, one
    relaxation weight per member, each in (0, 1), and each member's class."""
    return (_structural(lambda spec: not any(w <= 0 for w in getattr(spec, weights)),
                        "%s must be positive" % weights),
            _structural(lambda spec: not abs(sum(getattr(spec, weights)) - 1.0) > 1e-12,
                        "%s must sum to 1" % weights),
            _structural(lambda spec: len(getattr(spec, relax)) == len(getattr(spec, members)),
                        "%s must match its operator family" % relax),
            _quasi_nonexpansive(members), _range(relax, 1.0))


_BRANCH = _structural(lambda spec: spec.branch_assignment in ("as_printed", "swapped"),
                      "branch_assignment must be as_printed|swapped")
_B_ROWS = _structural(lambda spec: spec.B.rows == spec.A.rows, lambda spec: (
    "B has %d rows and A has %d; Ax - By needs one space" % (spec.B.rows, spec.A.rows)))
_ALPHA, _BETA = _range("alpha", 1.0), _range("beta", 1.0)
_LAM = _range("lam", lambda spec: 2.0 / (estimate_norm_squared(spec.A)
                                         + estimate_norm_squared(spec.B)))


def _scfpep_blocks(spec):
    """U = sum_j delta_j U_{gamma_j} and T = sum_i lambda_i T_{tau_i}; a
    relaxation weight ``relax`` refuses is an error naming its entry."""
    def relaxed(members, slot):
        for m, (name, g) in zip(members, _entries(slot, getattr(spec, slot))):
            try:
                yield relax(m, g)
            except ValueError as err:
                raise ValidationError("%s: %s" % (name, err)) from None

    return (convex_combine(list(relaxed(spec.U_family, "u_relax")), spec.u_weights),
            convex_combine(list(relaxed(spec.T_family, "t_relax")), spec.t_weights))


# the spaces a family applies its slots in: a name, and its dimension in a spec
_A_COLUMNS = ("the columns of A", lambda spec: spec.A.cols)
_A_ROWS = ("the rows of A", lambda spec: spec.A.rows)
_B_COLUMNS = ("the columns of B", lambda spec: spec.B.cols)
_T_SPACE = ("the dimension of T", lambda spec: spec.T.dim)


def _check_spaces(spec, record):
    """Each operator and set (each member of a family) has the dimension of
    the space its family applies it in."""
    spaces = [space for _, space in record.spaces]
    if spec.branch_assignment == "swapped":   # the blocks exchange operators
        spaces[:2] = spaces[1::-1]
    for (slot, _), (where, dim) in zip(record.spaces, spaces):
        for name, part in _entries(slot, getattr(spec, slot)):
            if part.dim != dim(spec):
                raise ValidationError("%s acts in dimension %d; %s applies it in %s, "
                                      "dimension %d" % (name, part.dim, spec.family,
                                                        where, dim(spec)))


# ---------------------------------------------------------------------------
# the family records


@dataclass(frozen=True)
class Family:
    """One solver family: the slots a spec of it fills (``required``) and
    may set (``optional``), its theorem's hypotheses as rows read in order
    (``hypotheses``), the space each operator and set slot acts in
    (``spaces``, (slot, space) pairs; the first slot acts in the x block's
    space, and a two-variable family's second, its y-block operator as
    printed, in the y block's), the trace slots a step fills
    (``intermediates``, of which those in ``y_block`` have the y block's
    dimension), and, for the two-variable families, ``blocks(spec)``: the
    x-block and y-block operators as printed.
    """

    name: str
    required: tuple
    hypotheses: tuple
    spaces: tuple
    optional: tuple = ()
    intermediates: str = "u"
    y_block: str = ""
    blocks: Callable | None = None

    @property
    def two_variable(self):
        return self.blocks is not None


FAMILIES = {
    f.name: f
    for f in (
        # class: not stated in PAPER.md
        Family(SCFPP, ("T", "G", "A", "alpha", "gamma"),
               (_structural(lambda spec: spec.gamma_bound_choice in ("l_star", "lipschitz"),
                            "gamma_bound_choice must be l_star|lipschitz"),
                _structural(lambda spec: spec.gamma_bound_choice == "l_star" or any(
                    _declared(m, "lipschitz") is not None for m in (spec.T, spec.G)),
                    "gamma_bound_choice='lipschitz' needs declared Lipschitz "
                    "constants on T and G"),
                _ALPHA, _range("gamma", lambda spec: spec.gamma_cap())),
               (("G", _A_COLUMNS), ("T", _A_ROWS)), optional=("gamma_bound_choice",)),
        Family(SCFPP_ADAPTIVE, ("U", "T", "A", "alpha"),
               (_demicontractive,
                _range("alpha", lambda spec: min(1.0, 1.0 - spec.demicontractive_k()))),
               (("U", _A_COLUMNS), ("T", _A_ROWS))),
        Family(SYNCHRONAL_VIP, ("T", "f", "G", "alpha", "beta", "mu", "gamma_visc"),
               (_structural(lambda spec: isinstance(spec.f.declared_class, Contraction),
                            "f must declare Contraction(k)"),
                _structural(lambda spec: None not in (
                    _declared(spec.G, "strong_monotonicity"), _declared(spec.G, "lipschitz")),
                    "G must declare a strong-monotonicity modulus and a Lipschitz constant"),
                _range("mu", lambda spec: 2.0 * _declared(spec.G, "strong_monotonicity")
                       / _declared(spec.G, "lipschitz") ** 2),
                _range("gamma_visc",
                       lambda spec: spec.synchronal_tau() / spec.f.declared_class.k),
                _ALPHA, _range("beta", 1.0, lambda spec: max(
                    0.0, _declared(spec.T, "demicontractive") or 0.0), closed=True)),
               (("f", _T_SPACE), ("G", _T_SPACE))),
        Family(SFFPEP, ("U", "T", "A", "B", "C", "Q", "alpha", "beta", "lam"),
               (_BRANCH, _B_ROWS, _quasi_nonexpansive("U"), _quasi_nonexpansive("T"),
                _ALPHA, _BETA, _LAM),
               (("U", _A_COLUMNS), ("T", _B_COLUMNS), ("C", _A_COLUMNS), ("Q", _B_COLUMNS)),
               ("branch_assignment",), "uzwr", "ur", blocks=lambda spec: (spec.U, spec.T)),
        Family(SCFPEP, ("U_family", "u_relax", "u_weights", "T_family", "t_relax",
                        "t_weights", "A", "B", "alpha", "beta", "lam"),
               (_BRANCH, *_operator_family("U_family", "u_relax", "u_weights"),
                *_operator_family("T_family", "t_relax", "t_weights"),
                _B_ROWS, _ALPHA, _BETA, _LAM),
               (("U_family", _A_COLUMNS), ("T_family", _B_COLUMNS)),
               ("branch_assignment",), "uzwr", "ur", blocks=_scfpep_blocks),
        Family(EXTRAGRADIENT_SFFPP,
               ("T", "G", "A", "C", "Q", "alpha", "beta", "gamma_seq"),
               (_structural(lambda spec: spec.cut_cap >= 3,
                            "cut_cap must allow at least one iteration"),
                _quasi_nonexpansive("T"), _ALPHA, _BETA,
                _range("gamma_seq", lambda spec: 1.0 / estimate_norm_squared(spec.A))),
               (("T", _A_COLUMNS), ("C", _A_COLUMNS), ("G", _A_ROWS), ("Q", _A_ROWS)),
               ("cut_cap",), "uzwr"),
    )
}


@dataclass(frozen=True)
class ProblemSpec:
    """One of the six split fixed-point problem families.

    The family's record in :data:`FAMILIES` names the slots the spec fills
    and may set; any other slot away from its default is an error naming
    it.  Construction reads the record's rows: a structural row's violation
    is an error, and range and class rows' are the ``warnings`` (the first
    raised under ``enforce_ranges``).  A two-variable family also gets
    ``block_operators``: the (x-block, y-block) operators after
    ``branch_assignment`` (for ``scfpep``, the combined families).
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
        ref = self.reference_solution
        if ref is not None:
            if record.two_variable and len(ref) != 2:
                raise ValidationError("family %r takes a reference [x*, y*]"
                                      % (self.family,))
            # reshape, not atleast_1d: replace() passes the normalized tuple in
            parts = (ref[0], ref[1]) if record.two_variable else (ref,)
            object.__setattr__(self, "reference_solution", tuple(
                np.asarray(r, dtype=float).reshape(-1) for r in parts))

        default = {f.name: f.default for f in fields(self) if f.init}
        missing = [n for n in record.required if _unset(getattr(self, n), default[n])]
        if missing:
            raise ValidationError("family %r requires %s" % (self.family, ", ".join(missing)))
        slots = {*record.required, *record.optional, "family", "reference_solution",
                 "enforce_ranges"}
        for name in default:
            if name not in slots and not _unset(getattr(self, name), default[name]):
                raise ValidationError("%s: family %r does not use this slot"
                                      % (name, self.family))
        _check_spaces(self, record)
        warnings = tuple(filter(None, (row(self) for row in record.hypotheses)))
        if warnings and self.enforce_ranges:
            raise ValidationError(warnings[0])
        object.__setattr__(self, "warnings", warnings)
        # only a two-variable family may set branch_assignment
        blocks = record.blocks(self) if record.two_variable else None
        swapped = self.branch_assignment == "swapped"
        object.__setattr__(self, "block_operators", blocks[::-1] if swapped else blocks)

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
        declared = (_declared(self.T, "lipschitz"), _declared(self.G, "lipschitz"))
        return 1.0 / max(c for c in declared if c is not None)

    def demicontractive_k(self):
        return self._demicontractive_k

    @cached_property
    def _demicontractive_k(self):   # the class walks run once per spec, not per step
        return max(_declared(m, "demicontractive") for m in (self.U, self.T))

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
    """One iteration snapshot, as :class:`IterationTrace` reads it out of
    its columns or takes it in.  Intermediate slots are family-specific:

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


_FIELDS = tuple(f.name for f in fields(TraceRecord))
_VECTORS = ("x", "y", "u", "z", "w", "r")
_COUNTS = ("n", "cut_count")   # read back as ints
# the rows a trace converts at a time: run turns each full block of states
# into columns, and a read of many records builds one block's fields at a time
_BLOCK = 1024


def _columns(values):
    """The columns and absent masks of :class:`IterationTrace` from
    ``values``: each field's values over the records (a list or tuple), None
    where a record has none, and a float as a 1-D point.  A field no record
    holds gets no column; ``n`` always gets one."""
    columns, absent = {}, {}
    for name, column in values.items():
        last = column[-1] if len(column) else None   # tested first: counting is slow
        if name != "n" and last is None and column.count(None) == len(column):
            continue   # no record holds the field
        shape = ()
        if name in _VECTORS:
            shape = np.shape(next(v for v in column if v is not None)) or (1,)
        try:
            col = np.array(column, dtype=float)   # a None becomes NaN
        except ValueError:   # arrays with a None among them
            fill = np.full(shape, np.nan)
            col = np.array([fill if v is None else v for v in column], dtype=float)
        columns[name] = col = col.reshape(len(column), *shape)
        # a None is among the NaNs, and only a None there is absent
        nan = np.isnan(col).any(axis=tuple(range(1, col.ndim)))
        holes = [i for i in np.flatnonzero(nan) if column[i] is None]
        if holes:
            absent[name] = np.zeros(len(column), dtype=bool)
            absent[name][holes] = True
    for a in (*columns.values(), *absent.values()):
        a.flags.writeable = False
    return columns, absent


def _join(blocks):
    """The columns and absent masks of the rows of ``blocks`` in order, each
    the :func:`_columns` of consecutive rows with the same fields: one block
    as it is, and more with the bits :func:`_columns` gives all their rows."""
    if len(blocks) == 1:
        return blocks[0]
    columns = {name: np.concatenate([c[name] for c, _ in blocks]) for name in blocks[0][0]}
    absent = {name: np.concatenate([a[name] if name in a else np.zeros(len(c["n"]), dtype=bool)
                                    for c, a in blocks])
              for name in columns if any(name in a for _, a in blocks)}
    for a in (*columns.values(), *absent.values()):
        a.flags.writeable = False
    return columns, absent


class IterationTrace(Sequence):
    """A run's records, held as columns.

    ``columns`` maps each field the records hold to one read-only float64
    array: (N,) for ``n``, ``step``, both residuals, ``dist_to_target`` and
    ``cut_count``, (N, d) for x, y and the intermediates (``intermediates``
    names the family's).  A field no record holds has no column, and
    ``absent`` maps one that some records lack (record 0's step) to a mask,
    True at those records, whose column entries are NaN.  The trace is a
    sequence of records, ``records`` a view of it: reading record i builds
    its :class:`TraceRecord`, its vectors read-only rows of the columns, its
    scalars ints (``n``, ``cut_count``) and floats, None where absent; a
    slice or an iteration reads its part of each column in blocks of
    :data:`_BLOCK` records, building one block's fields at a time, and
    :meth:`field_values` reads one field, None where absent.  Built from
    records (an iterable, read once), from ``values`` (see :func:`_columns`),
    or from ``blocks``, the :func:`_columns` of consecutive rows, joined.
    """

    def __init__(self, family, records=(), stop_reason="max_iters", intermediates=(),
                 values=None, blocks=None):
        self.family = family
        self.stop_reason = stop_reason
        self.intermediates = tuple(intermediates)   # which of u/z/w/r this family fills
        if blocks is None:
            if values is None:
                records = list(records)
                values = {name: [getattr(rec, name) for rec in records] for name in _FIELDS}
            blocks = [_columns(values)]
        self.columns, self.absent = _join(blocks)

    def __len__(self):
        return len(self.columns["n"])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self._read(i))
        k = range(len(self))[i]   # an IndexError out of range
        return next(self._read(slice(k, k + 1)))

    def __iter__(self):
        return self._read(slice(None))

    def field_values(self, name, entry=None, rows=slice(None)):
        """Field ``name``'s values over the records of the slice ``rows``,
        None where a record lacks it (every record, when none holds it): a
        vector field's read-only rows of its column, or with ``entry`` that
        entry's floats, and a scalar field's floats."""
        col = self.columns.get(name)
        if col is None:
            return [None] * len(range(len(self))[rows])
        part = col[rows] if entry is None else col[rows, entry]
        values = list(part) if part.ndim > 1 else part.tolist()   # rows are views
        if name in self.absent:
            for k in np.flatnonzero(self.absent[name][rows]):
                values[k] = None
        return values

    def _read(self, rows):
        """The records of the slice ``rows``, each built when it is drawn, from
        the fields of its block of :data:`_BLOCK` records."""
        indices = range(len(self))[rows]
        for start in range(0, len(indices), _BLOCK):
            part = indices[start:start + _BLOCK]
            # a part read down to record 0 may stop below 0, which a slice
            # would count from the end: its stop is None
            block = slice(part.start, part.stop if part.stop >= 0 else None, part.step)
            fields = {}
            for name in self.columns:
                values = self.field_values(name, rows=block)
                if name in _COUNTS:
                    values = [None if v is None else int(v) for v in values]
                fields[name] = values
            for row in zip(*fields.values()):
                yield TraceRecord(**dict(zip(fields, row)))

    @property
    def records(self):
        return self

    @property
    def final(self):
        return self[-1]
