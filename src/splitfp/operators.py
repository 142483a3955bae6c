"""Nonlinear-operator taxonomy, combinators, named example operators, and
sampling-based class verifiers.

An operator is a :class:`FixedPointMap`: an evaluation rule together with a
domain, a declared regularity class, and (when known) fixed points.  The
class taxonomy covers contractions through total quasi-asymptotically
nonexpansive maps.  Each class is one record, a subclass of
:class:`OperatorClass` that carries its own defining inequality
(``sides``), whether it is pairwise or quantified over the fixed points,
whether it is asymptotic, its command-line token (:data:`CLASS_TOKENS`), and
the classes it implies (``implies``, walked by ``implied()``).
:func:`verify_class` falsification-tests a declared class by deterministic
sampling.  The sampler is a fixed 64-bit linear congruential generator so
reports are bit-reproducible across platforms.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, partial
from itertools import chain
from typing import ClassVar

import numpy as np

from .projections import Ball, Box, WholeSpace, contains, project
from .rules import Piecewise1D, Rational1D, Relaxed1D
from .spaces import _FLOAT64, DimensionMismatch, _vector, norm, row_norms

__all__ = [
    "SequenceSpec",
    "Gauge",
    "OperatorClass",
    "CLASS_TOKENS",
    "class_from_token",
    "Contraction",
    "Nonexpansive",
    "QuasiNonexpansive",
    "FirmlyQuasiNonexpansive",
    "Demicontractive",
    "StrictlyPseudocontractive",
    "Directed",
    "AsymptoticallyNonexpansive",
    "AsymptoticallyQuasiNonexpansive",
    "TotalAsymptoticallyNonexpansive",
    "TotalQuasiAsymptoticallyNonexpansive",
    "TotalAsymStrictPseudocontraction",
    "Lipschitzian",
    "UniformlyLipschitzian",
    "StronglyMonotone",
    "FixedPointMap",
    "map_from_rule",
    "power_apply",
    "relax",
    "convex_combine",
    "verify_class",
    "operator_catalog",
    "scaled_negation",
    "shift_square_ball_map",
    "DomainEscape",
    "ClassMismatch",
]

_FIXED_POINT_TOL = 1e-9


class DomainEscape(RuntimeError):
    """An iterate left the operator's domain; names the offending step."""


class ClassMismatch(ValueError):
    """Operation requires a different declared operator class."""


# ---------------------------------------------------------------------------
# parameter sequences and gauge functions


@dataclass(frozen=True, repr=False)
class SequenceSpec:
    """Evaluable scalar sequence: constant, table with tail, or registry formula.

    Formulas are drawn from a fixed registry of monotone closed forms with
    their limits, evaluable at every n >= 0 (shifted where the textbook form
    would divide by zero), each written once over a unit ``one``: ``1.0``
    evaluates it in float64, ``Decimal(1)`` in decimal arithmetic.
    """

    _FORMULAS: ClassVar[dict] = {   # name -> its limit; :meth:`_eval` writes each
        "1/(n+1)": 0.0,
        "1/(n+2)": 0.0,
        "1/(n+1)^2": 0.0,
        "1+1/(n+1)^2": 1.0,
    }

    kind: str
    constant: float | None = None
    values: tuple | None = None
    tail: float | None = None
    formula: str | None = None

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.tail is not None:
            object.__setattr__(self, "tail", float(self.tail))
        if self.kind == "constant":
            if self.constant is None:
                raise ValueError("constant sequence needs a value")
        elif self.kind == "table":
            if not self.values or self.tail is None:
                raise ValueError("table sequence needs values and a tail")
        elif self.kind == "formula":
            if self.formula not in self._FORMULAS:
                raise ValueError(
                    "unknown formula %r; registry: %s"
                    % (self.formula, sorted(self._FORMULAS))
                )
        else:
            raise ValueError("unknown sequence kind %r" % self.kind)

    @classmethod
    def const(cls, c):
        return cls("constant", constant=float(c))

    @classmethod
    def table(cls, values, tail):
        return cls("table", values=values, tail=tail)

    @classmethod
    def from_formula(cls, name):
        return cls("formula", formula=name)

    def _eval(self, n, one=1.0):
        """The term at n over the unit ``one``.  Every formula is written
        inline, so that a float term is one Python call."""
        if n < 0:
            raise ValueError("sequence index must be >= 0")
        kind = self.kind
        if kind == "constant":
            return self.constant
        if kind == "table":
            values = self.values
            return values[n] if n < len(values) else self.tail
        formula = self.formula
        if formula == "1/(n+1)":
            return one / (n + 1)
        if formula == "1/(n+2)":
            return one / (n + 2)
        if formula == "1/(n+1)^2":
            return one / (n + 1) ** 2
        return one + one / (n + 1) ** 2   # "1+1/(n+1)^2"

    __call__ = _eval

    def first_outside(self, lo, hi, start=0):
        """The first (n, value) with n >= ``start`` outside (lo, hi) over every
        n, or None: a constant's value, a table's values then its tail, a
        formula's value at ``start`` and its limit, bisecting for the crossing
        when the limit is past a bound."""
        def outside(n):
            return not lo < self(n) < hi

        n = next(filter(outside, range(start, max(start, len(self.values or ())) + 1)), None)
        if n is None and self.kind == "formula" and not (
                lo <= self._FORMULAS[self.formula] <= hi):
            n = 1
            while not outside(n):
                n *= 2
            n = bisect_left(range(n + 1), True, lo=start, key=outside)
        return None if n is None else (n, self(n))

    def eval_decimal(self, n):
        """Evaluate in decimal arithmetic under the active context."""
        return Decimal(self._eval(n, Decimal(1)))

    def to_config(self):
        if self.kind == "constant":
            return {"constant": self.constant}
        if self.kind == "table":
            return {"table": list(self.values), "tail": self.tail}
        return {"formula": self.formula}

    @classmethod
    def from_config(cls, doc):
        if isinstance(doc, (int, float)):
            return cls.const(doc)
        if "constant" in doc:
            return cls.const(doc["constant"])
        if "table" in doc:
            return cls.table(doc["table"], doc["tail"])
        return cls.from_formula(doc["formula"])

    def __repr__(self):
        return "SequenceSpec(%r)" % (self.to_config(),)


@dataclass(frozen=True)
class Gauge:
    """The quadratic gauge t -> t^2, strictly increasing and continuous with
    gauge(0) = 0: the only gauge the verified inequalities ever need.

    It multiplies (``t * t``, not the libm ``pow`` of :func:`_sq`), so the
    sides that add it keep their bits.
    """

    def __call__(self, t):
        return t * t


_ZERO = SequenceSpec.const(0.0)
_ONE = SequenceSpec.const(1.0)
_QUADRATIC = Gauge()


# ---------------------------------------------------------------------------
# the class taxonomy

# The defining inequalities are written over stacks: arrays whose last axis
# is the vector, a single vector being a stack with no leading axis.  Each
# row gets the bits of ``spaces.norm`` (through ``spaces.row_norms``),
# ``spaces.inner`` and Python's float ``t ** 2``: ``np.vecdot`` of a row is
# the BLAS ``a.dot(b)`` those use (einsum and ``(a * a).sum(-1)`` may sum in
# another order), and Python's ``t ** 2`` calls libm ``pow``, which
# ``np.float_power(t, 2.0)`` matches and an array's ``t ** 2`` (``t * t``)
# does not.


def _sq(t):
    return np.float_power(t, 2.0)


def _check_unit_interval(k, lo_open, name):
    if not (k > 0.0 if lo_open else k >= 0.0) or not k < 1.0:
        bracket = "(0,1)" if lo_open else "[0,1)"
        raise ValueError("%s requires k in %s, got %r" % (name, bracket, k))


# command-line token -> class record, filled as the records are defined
CLASS_TOKENS = {}


class OperatorClass:
    """Base of the class records; its ``ClassVar``s are set from the keywords
    of each class statement, so a record's fields, ``repr`` and equality
    stay its parameters only.

    ``pairwise`` classes implement ``sides(x, z, tx, tz, n)`` over point
    pairs, the others ``sides(x, p, tx, n)`` over the fixed points: the
    ``(lhs, rhs)`` of the defining inequality ``lhs <= rhs`` at power ``n``.
    ``sides`` is written once, over stacks whose last axis is the vector:
    given (S, d) stacks (a fixed point p stays one (d,) vector) each side
    broadcasts to one value per row, given single vectors it is one value,
    and a row gets the same bits either way.
    ``asymptotic`` classes are checked at every power up to a bound, the
    rest at n = 1.  ``token`` names the class on the command line, and
    ``default`` is the scalar parameter a token without one stands for, or
    the tuple of arguments of a class that takes no scalar parameter.

    ``implies`` holds the taxonomy's edges: the classes a map of the class
    is in when it has a fixed point.  Every class question walks them
    through :meth:`implied`.  A class stores only the constants it defines,
    None elsewhere: ``lipschitz``, ``demicontractive`` (0 on
    quasi-nonexpansive maps, -1 on firmly quasi-nonexpansive and directed
    ones) and ``strong_monotonicity``.
    """

    token: ClassVar[str | None] = None
    pairwise: ClassVar[bool] = True
    asymptotic: ClassVar[bool] = False
    default: ClassVar[float | tuple] = ()
    implies: ClassVar[tuple] = ()
    lipschitz: ClassVar[float | None] = None
    demicontractive: ClassVar[float | None] = None
    strong_monotonicity: ClassVar[float | None] = None

    def __init_subclass__(cls, token=None, pairwise=True, asymptotic=False,
                          default=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls.token, cls.pairwise, cls.asymptotic, cls.default = (
            token, pairwise, asymptotic, default)
        if token:
            CLASS_TOKENS[token] = cls

    @classmethod
    def from_token(cls, param):
        if not isinstance(cls.default, tuple):
            return cls(float(param) if param else cls.default)
        if param:   # a class without a scalar parameter
            raise ValueError("the class takes no parameter, got %r" % param)
        return cls(*cls.default)

    def implied(self):
        """This class, then each class it implies, nearest first, each once."""
        walk = [self]
        for cls in walk:   # the walk grows as it goes
            yield cls
            walk.extend(c for c in cls.implies if c not in walk)

    # the first total quasi-asymptotically nonexpansive class implied, or None
    total_quasi = property(lambda self: next((c for c in self.implied() if isinstance(
        c, TotalQuasiAsymptoticallyNonexpansive)), None))


@dataclass(frozen=True)
class Contraction(OperatorClass, token="contraction", default=0.9):
    k: float

    def __post_init__(self):
        _check_unit_interval(self.k, True, "Contraction")

    lipschitz = property(lambda self: self.k)
    implies = property(lambda self: (Nonexpansive(),))

    def sides(self, x, z, tx, tz, n):
        return row_norms(tx - tz), self.k * row_norms(x - z)


@dataclass(frozen=True)
class Nonexpansive(OperatorClass, token="nonexpansive"):
    lipschitz: ClassVar[float] = 1.0
    implies = property(lambda self: (QuasiNonexpansive(),))

    def sides(self, x, z, tx, tz, n):
        return row_norms(tx - tz), row_norms(x - z)


@dataclass(frozen=True)
class QuasiNonexpansive(OperatorClass, token="quasi_nonexpansive", pairwise=False):
    demicontractive: ClassVar[float] = 0.0
    implies = property(lambda self: (
        TotalQuasiAsymptoticallyNonexpansive(_ZERO, _ZERO, _QUADRATIC),))

    def sides(self, x, p, tx, n):
        return row_norms(tx - p), row_norms(x - p)


@dataclass(frozen=True)
class FirmlyQuasiNonexpansive(OperatorClass, token="firmly_quasi_nonexpansive",
                              pairwise=False):
    demicontractive: ClassVar[float] = -1.0
    # Censor & Segal (2009): firmly quasi-nonexpansive <=> directed
    implies = property(lambda self: (Directed(), QuasiNonexpansive()))

    def sides(self, x, p, tx, n):
        return _sq(row_norms(tx - p)), _sq(row_norms(x - p)) - _sq(row_norms(tx - x))


@dataclass(frozen=True)
class Demicontractive(OperatorClass, token="demicontractive", default=0.0,
                      pairwise=False):
    k: float

    def __post_init__(self):
        _check_unit_interval(self.k, False, "Demicontractive")

    demicontractive = property(lambda self: self.k)

    def sides(self, x, p, tx, n):
        return _sq(row_norms(tx - p)), _sq(row_norms(x - p)) + self.k * _sq(row_norms(tx - x))


@dataclass(frozen=True)
class StrictlyPseudocontractive(OperatorClass, token="strictly_pseudocontractive",
                                default=0.0):
    k: float

    def __post_init__(self):
        _check_unit_interval(self.k, False, "StrictlyPseudocontractive")

    # Moudafi (2010): with a fixed point, it is k-demicontractive
    implies = property(lambda self: (Demicontractive(self.k),))

    def sides(self, x, z, tx, tz, n):
        return (
            _sq(row_norms(tx - tz)),
            _sq(row_norms(x - z)) + self.k * _sq(row_norms((x - tx) - (z - tz))),
        )


@dataclass(frozen=True)
class Directed(OperatorClass, token="directed", pairwise=False):
    demicontractive: ClassVar[float] = -1.0
    implies = property(lambda self: (FirmlyQuasiNonexpansive(), QuasiNonexpansive()))

    def sides(self, x, p, tx, n):
        return np.vecdot(p - tx, x - tx), 0.0


@dataclass(frozen=True)
class AsymptoticallyNonexpansive(
        OperatorClass, token="asymptotically_nonexpansive", asymptotic=True,
        default=(_ONE,)):
    k_seq: SequenceSpec

    def __post_init__(self):
        _check_at_least_one(self.k_seq, "AsymptoticallyNonexpansive k_n")

    # with z a fixed point: t_n = k_n^2
    implies = property(lambda self: (AsymptoticallyQuasiNonexpansive(
        lambda n: self.k_seq(n) ** 2),))

    def sides(self, x, z, tx, tz, n):
        return row_norms(tx - tz), self.k_seq(n) * row_norms(x - z)


@dataclass(frozen=True)
class AsymptoticallyQuasiNonexpansive(
        OperatorClass, token="asymptotically_quasi_nonexpansive",
        pairwise=False, asymptotic=True, default=(_ONE,)):
    t_seq: SequenceSpec

    def __post_init__(self):
        _check_at_least_one(self.t_seq, "AsymptoticallyQuasiNonexpansive t_n")

    # v_n = t_n - 1
    implies = property(lambda self: (TotalQuasiAsymptoticallyNonexpansive(
        lambda n: self.t_seq(n) - 1.0, _ZERO, _QUADRATIC),))

    def sides(self, x, p, tx, n):
        return _sq(row_norms(tx - p)), self.t_seq(n) * _sq(row_norms(x - p))


@dataclass(frozen=True)
class TotalAsymptoticallyNonexpansive(
        OperatorClass, token="total_asymptotically_nonexpansive", asymptotic=True,
        default=(_ZERO, _ZERO, _QUADRATIC)):
    v_seq: SequenceSpec
    mu_seq: SequenceSpec
    gauge: Gauge

    def __post_init__(self):
        _check_nonnegative(self.v_seq, "v_n")
        _check_nonnegative(self.mu_seq, "mu_n")

    implies = property(lambda self: (TotalQuasiAsymptoticallyNonexpansive(
        self.v_seq, self.mu_seq, self.gauge),))

    def sides(self, x, z, tx, tz, n):
        return (
            _sq(row_norms(tx - tz)),
            _sq(row_norms(x - z)) + self.v_seq(n) * self.gauge(row_norms(x - z))
            + self.mu_seq(n),
        )


@dataclass(frozen=True)
class TotalQuasiAsymptoticallyNonexpansive(
        OperatorClass, token="total_quasi_asymptotically_nonexpansive",
        pairwise=False, asymptotic=True, default=(_ZERO, _ZERO, _QUADRATIC)):
    v_seq: SequenceSpec
    mu_seq: SequenceSpec
    gauge: Gauge

    def __post_init__(self):
        _check_nonnegative(self.v_seq, "v_n")
        _check_nonnegative(self.mu_seq, "mu_n")

    def sides(self, x, p, tx, n):
        return (
            _sq(row_norms(tx - p)),
            _sq(row_norms(x - p)) + self.v_seq(n) * self.gauge(row_norms(x - p))
            + self.mu_seq(n),
        )


@dataclass(frozen=True)
class TotalAsymStrictPseudocontraction(OperatorClass, asymptotic=True):
    k: float
    mu_seq: SequenceSpec
    xi_seq: SequenceSpec
    gauge: Gauge

    def __post_init__(self):
        _check_unit_interval(self.k, False, "TotalAsymStrictPseudocontraction")
        _check_nonnegative(self.mu_seq, "mu_n")
        _check_nonnegative(self.xi_seq, "xi_n")

    def sides(self, x, z, tx, tz, n):
        return (
            _sq(row_norms(tx - tz)),
            _sq(row_norms(x - z))
            + self.k * _sq(row_norms((x - tx) - (z - tz)))
            + self.mu_seq(n) * self.gauge(row_norms(x - z))
            + self.xi_seq(n),
        )


@dataclass(frozen=True)
class Lipschitzian(OperatorClass, token="lipschitzian", default=1.0):
    K: float

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError("Lipschitz constant must be positive")

    lipschitz = property(lambda self: self.K)

    def sides(self, x, z, tx, tz, n):
        return row_norms(tx - tz), self.K * row_norms(x - z)


@dataclass(frozen=True)
class UniformlyLipschitzian(Lipschitzian, token="uniformly_lipschitzian",
                            default=1.0, asymptotic=True):
    """Every iterate power T^n is K-Lipschitzian (checked at each power)."""


@dataclass(frozen=True)
class StronglyMonotone(OperatorClass, token="strongly_monotone", default=1.0):
    eta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("strong-monotonicity modulus must be positive")

    strong_monotonicity = property(lambda self: self.eta)

    def sides(self, x, z, tx, tz, n):
        # sign flipped so the check is uniformly lhs <= rhs
        return self.eta * _sq(row_norms(x - z)), np.vecdot(tx - tz, x - z)


def class_from_token(token):
    """Parse a class token like ``demicontractive:0.5``.

    A missing parameter takes the class's default.  Asymptotic classes need
    sequence data and default to unit sequences and the quadratic gauge;
    they are primarily addressed through an operator's own declaration.
    """
    name, _, param = token.partition(":")
    if name not in CLASS_TOKENS:
        raise ValueError("unknown operator class %r" % (token,))
    try:
        return CLASS_TOKENS[name].from_token(param)
    except ValueError as err:
        raise ValueError("invalid parameter for class %s: %s" % (name, err)) from None


# class constraints quantify over iterate powers, which start at n = 1.  A
# derived sequence (k_n^2, t_n - 1) is a plain function, in range whenever
# its source is, and is not checked again.

def _first_below(seq, bound):
    """The first (n, term) with n >= 1 whose term is not a finite number at
    least ``bound``, decided over every n, or None."""
    if isinstance(seq, SequenceSpec):
        return seq.first_outside(math.nextafter(bound, -math.inf), math.inf, start=1)
    return None


def _check_nonnegative(seq, name):
    bad = _first_below(seq, 0.0)
    if bad:
        raise ValueError("%s must be nonnegative (n=%d)" % (name, bad[0]))


def _check_at_least_one(seq, name):
    bad = _first_below(seq, 1.0)
    if bad:
        raise ValueError("%s must be >= 1 (n=%d gives %r)" % (name, *bad))


# ---------------------------------------------------------------------------
# fixed-point maps and combinators


class FixedPointMap:
    """A nonlinear map with domain, declared class, and known fixed points:
    the one place that decides how the map evaluates.

    ``eval_fn`` takes and returns 1-D float arrays.  ``rule``, when present,
    is the portable scalar rule the map evaluates, which the oracle
    re-evaluates in Decimal; ``eval_fn`` may then be None, and a given one
    must compute exactly the rule's float kernel; the default one takes a
    one-entry array only.  Every 1-D map has a ``kernel`` of one Python
    float, built once here: its rule's ``float_kernel()``, or else
    ``eval_fn`` on ``np.array([v])``, which has the bits of
    ``T(np.array([v]))``; calling the map with a Python float (exactly that
    type) runs it.  Every map builds its power loops once, at its first
    power: a rule map's on a float, and the array loops, which call
    ``eval_fn`` directly (see :func:`power_apply`).
    ``extra_classes`` lists additional regularity declarations beyond the
    primary one, e.g. a Lipschitz constant alongside a strong-monotonicity
    modulus.  ``rowwise`` says that ``eval_fn`` also takes an (S, d) stack
    and maps each row with the bits it gives that row alone, so that
    :meth:`_stack` makes one call.
    """

    def __init__(self, eval_fn, domain, declared_class=None,
                 known_fixed_points=(), name=None, rule=None, extra_classes=(),
                 rowwise=False):
        kernel = None   # a map of more dimensions has none
        if rule is not None:
            kernel = rule.float_kernel()
            eval_fn = eval_fn or partial(_eval_rule, kernel)
        elif eval_fn is None:
            raise ValueError("a map needs an eval_fn or a rule")
        elif domain.dim == 1:
            kernel = lambda v: _vector(eval_fn(np.array([v]))).item()
        self.rule, self.kernel, self.eval_fn = rule, kernel, eval_fn
        self.rowwise = rowwise
        self._array_kernel = None if rule is None else rule.array_kernel()
        self.domain = domain
        self.declared_class = declared_class
        self.name = name
        self.extra_classes = tuple(extra_classes)
        pts = []
        for p in known_fixed_points:
            p = _vector(p)
            drift = norm(self(p) - p)
            if drift > _FIXED_POINT_TOL:
                raise ValueError(
                    "claimed fixed point %s moves by %.3e under the map"
                    % (p.tolist(), drift)
                )
            pts.append(p)
        self.known_fixed_points = tuple(pts)

    @property
    def dim(self):
        return self.domain.dim

    def __call__(self, x):
        if type(x) is float and self.kernel is not None:
            return self.kernel(x)
        return _vector(self.eval_fn(_vector(x)))

    def implied(self):
        """The walk of the declared class, then of each extra class."""
        for declared in filter(None, (self.declared_class, *self.extra_classes)):
            yield from declared.implied()

    @cached_property
    def _power_loops(self):
        """A rule map's power loops on a Python float, unchecked and checked
        against the domain before every application, with the rule's
        arithmetic inline: a whole line holds the finite points, and any
        other domain is asked through :func:`contains` of the float.  Every
        other map powers by its :attr:`_array_loops` only."""
        domain = self.domain
        if isinstance(domain, WholeSpace) and domain.dim == 1:
            inside = math.isfinite
        else:
            # ``contains`` is looked up at each call, where a wrapper sees it
            inside = lambda v: contains(domain, v, tol=1e-9)
        escape = lambda i, n, v: _domain_escape(i, n, [v])
        return self.rule.power_kernel(), self.rule.power_kernel(inside, escape)

    @cached_property
    def _array_loops(self):
        """The map's power loops on float64 arrays, unchecked and checked."""
        return (_array_power(self.eval_fn, self.domain, False),
                _array_power(self.eval_fn, self.domain, True))

    def _stack(self, V):
        """T of each row of the (S, d) stack V: one call of a ``rowwise``
        ``eval_fn``; a rule's array kernel, compiled once, evaluating a
        non-finite row again by the float kernel (so a pole raises); else
        ``T(row)`` row by row."""
        if self.rowwise:
            return self.eval_fn(V)
        if self._array_kernel is None:
            return np.array([self(row) for row in V])
        with np.errstate(all="ignore"):
            out = np.array(np.broadcast_to(self._array_kernel(V[:, 0]), len(V)))[:, None]
        for i in np.flatnonzero(~np.isfinite(out[:, 0])):
            out[i, 0] = self.kernel(float(V[i, 0]))
        return out

    def __repr__(self):
        return "FixedPointMap(%s)" % (self.name or "unnamed")


def map_from_rule(rule, domain, declared_class=None, known_fixed_points=(),
                  name=None, extra_classes=()):
    """Wrap a scalar rule as a one-dimensional :class:`FixedPointMap`."""
    if domain.dim != 1:
        raise ValueError("a rule map is 1-D, but its domain has dimension %d"
                         % domain.dim)
    return FixedPointMap(None, domain, declared_class, known_fixed_points,
                         name=name, rule=rule, extra_classes=extra_classes)


def _eval_rule(kernel, x):
    """The default ``eval_fn`` of a rule map: its float kernel at the one
    entry of x."""
    if x.shape != (1,):
        raise DimensionMismatch("point of shape %s does not match map dimension 1"
                                % (x.shape,))
    return np.array([kernel(float(x[0]))])


def _domain_escape(i, n, point):
    return DomainEscape("iterate left the domain before application %d of %d: %s"
                        % (i + 1, n, point))


def _array_power(eval_fn, domain, check):
    """A power loop on float64 arrays that calls ``eval_fn`` directly and
    passes only an image that is not yet a float64 array through
    :func:`_vector`.  With ``check``, the iterate is tested against
    ``domain`` before every application: a whole space holds exactly the
    finite points of its shape, and any other domain or shape asks
    :func:`contains`, so an iterate that grew raises its DimensionMismatch.
    Which of the two tests applies is decided again only when an image
    changes the iterate's shape."""
    whole = (domain.dim,) if isinstance(domain, WholeSpace) else None
    isfinite = math.isfinite
    ndarray = np.ndarray

    def power(cur, n):
        before = cur.tobytes()   # each image's bytes are the next test's before
        shape = cur.shape
        finite = shape == whole
        for i in range(n):
            if check and not (all(map(isfinite, cur.tolist())) if finite
                              else contains(domain, cur, tol=1e-9)):
                raise _domain_escape(i, n, cur.tolist())
            nxt = eval_fn(cur)
            if not (type(nxt) is ndarray and nxt.dtype is _FLOAT64 and nxt.ndim):
                nxt = _vector(nxt)
            after = nxt.tobytes()
            if nxt.shape != shape:
                shape = nxt.shape
                finite = shape == whole
            elif after == before:
                return nxt
            cur, before = nxt, after
        return cur

    return power


def power_apply(T, n, x, check_domain=True):
    """n-fold composition T(T(...T(x))).

    Cost is at most n evaluations; composition stops early once an iterate
    is bitwise fixed, T(v) having the shape and the bytes of v: every later
    power of a deterministic map then has those bits too.  The test keeps
    -0.0 and +0.0 apart.  With ``check_domain`` the current point is
    required to lie in T's domain before every application, and the
    offending step is named on escape.

    A Python ``float`` x (exactly that type) gives a ``float``, the entry of
    the power of ``np.array([x])``.  Each map builds its power loops once,
    at its first power, and a power is one call of one of them.  A rule map
    given a float or a one-element array runs its compiled loop on a Python
    float (:attr:`FixedPointMap._power_loops`), without wrapping any
    iterate in an array: the loop holds the rule's arithmetic inline, so on
    a whole line, or unchecked, it makes no call per application, and any
    other domain is checked through :func:`contains` of the float.  Every
    other map and input runs the map's array loop
    (:attr:`FixedPointMap._array_loops`), which calls ``eval_fn`` directly,
    not ``T.__call__``; a float is wrapped in a one-element array and its
    power unwrapped.  Both answer a whole-space domain as :func:`contains`
    does, by finiteness.
    """
    if n < 1:
        raise ValueError("power requires n >= 1")
    check = 1 if check_domain else 0
    if T.rule is not None:
        if type(x) is float:
            return T._power_loops[check](x, n)
        x = _vector(x)
        if x.shape == (1,):
            return np.array([T._power_loops[check](float(x[0]), n)])
    out = T._array_loops[check](_vector(x), n)
    return out.item() if type(x) is float else out


def relax(T, alpha):
    """Averaged map x -> (1-alpha) x + alpha T(x) for alpha in (0, 1].

    Preserves the fixed-point set; declared quasi-nonexpansive when T's walk
    (:meth:`FixedPointMap.implied`) reaches it.  A rule-backed T gives a
    rule-backed map, its rule a :class:`Relaxed1D`.
    """
    alpha = float(alpha)  # a numpy float32 weight would make the kernel float32
    if not 0.0 < alpha <= 1.0:
        raise ValueError("relaxation weight %g must lie in (0, 1]" % alpha)
    if alpha == 1.0:
        return T
    rule = None if T.rule is None else Relaxed1D(T.rule, alpha)
    quasi = QuasiNonexpansive() in T.implied()
    return FixedPointMap(
        None if rule else lambda x: (1.0 - alpha) * x + alpha * T(x),
        T.domain,
        declared_class=QuasiNonexpansive() if quasi else None,
        known_fixed_points=T.known_fixed_points,
        name="relax(%s, %g)" % (T.name or "T", alpha),
        rule=rule,
    )


def convex_combine(maps, weights):
    """Weighted average x -> sum_i w_i T_i(x) of maps sharing a domain dim.

    Declared quasi-nonexpansive when every input's walk reaches it and a
    common fixed point survives; the surviving common fixed points are
    re-registered.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one map")
    weights = [float(w) for w in weights]
    if len(weights) != len(maps):
        raise ValueError("weights and maps differ in length")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1 within 1e-12")
    dims = {m.dim for m in maps}
    if len(dims) != 1:
        raise ValueError("maps live in different dimensions")
    if len(maps) == 1:
        return maps[0]

    def eval_fn(x):
        acc = weights[0] * maps[0](x)
        for w, m in zip(weights[1:], maps[1:]):
            acc = acc + w * m(x)
        return acc

    common = []
    seen = set()
    for m in maps:
        for p in m.known_fixed_points:
            key = tuple(p.tolist())
            if key in seen:
                continue
            seen.add(key)
            if all(norm(other(p) - p) <= _FIXED_POINT_TOL for other in maps):
                common.append(p)
    quasi = common and all(QuasiNonexpansive() in m.implied() for m in maps)
    return FixedPointMap(
        eval_fn,
        maps[0].domain,
        declared_class=QuasiNonexpansive() if quasi else None,
        known_fixed_points=common,
        name="combine(%s)" % ", ".join(m.name or "T" for m in maps),
    )


# ---------------------------------------------------------------------------
# deterministic sampling


class _Lcg:
    """64-bit linear congruential generator (Knuth MMIX constants).

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64;
    doubles take the top 53 bits.  Fixed here so verification reports are
    bit-reproducible across languages and platforms.
    """

    A = 6364136223846793005
    C = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.A * self.state + self.C) & self.MASK
        return self.state

    def next_double(self):
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_doubles(self, k):
        """The next k doubles as one array, the bits of k :meth:`next_double`
        calls, and the state they leave.  The j-th state is
        A^j s + C (1 + A + ... + A^(j-1)) mod 2^64, and ``uint64`` products
        and sums wrap mod 2^64."""
        powers = np.cumprod(np.full(k, self.A, dtype=np.uint64))   # A^1 .. A^k
        sums = np.cumsum(np.concatenate([np.ones(min(k, 1), dtype=np.uint64),
                                         powers[:-1]]))   # 1 + A + ... + A^(j-1)
        states = powers * np.uint64(self.state) + np.uint64(self.C) * sums
        if k:
            self.state = int(states[-1])
        return (states >> np.uint64(11)).astype(float) * (2.0 ** -53)


def _sample_interval(lo, hi, u, scale):
    """The doubles u (one, or an array of them) scaled into [lo, hi] clipped
    to [-scale, scale], or to 2 * scale of it nearest the window."""
    lo_c = max(lo, -scale)
    hi_c = min(hi, scale)
    if lo_c > hi_c:
        # feasible region lies outside the default window: recenter on it
        if lo > scale:
            lo_c, hi_c = lo, min(hi, lo + 2 * scale)
        else:
            lo_c, hi_c = max(lo, hi - 2 * scale), hi
    return lo_c + u * (hi_c - lo_c)


def _points(body, U, scale):
    """The points of ``body`` that the (S, d) block U of LCG doubles maps to.

    Boxes scale each coordinate into bounds clipped to [-scale, scale];
    other bodies scale the block into that window and :func:`project` it as
    one stack, so every point is a member.
    """
    if isinstance(body, Box):
        return np.stack([_sample_interval(lo, hi, u, scale)
                         for lo, hi, u in zip(body.lower, body.upper, U.T)], -1)
    return project(body, -scale + 2 * scale * U)


def _sample_points(body, lcg, count, scale):
    """Draw ``count`` points of ``body`` from the LCG stream as one (count, d)
    stack, each from the next d doubles."""
    return _points(body, lcg.next_doubles(count * body.dim).reshape(count, body.dim), scale)


_NEAR_OFFSETS = (1e-1, 1e-2, 1e-3, 1e-4)


def _sample_pairs(body, lcg, count, scale):
    """Draw ``count`` point pairs from the LCG stream as two (count, d)
    stacks, each pair from the next 2d doubles: its first point from the
    first d, then its partner from the other d.

    Even pairs are far (two independent points), odd pairs near: the
    partner steps a small offset from the first point along the direction
    2u - 1 (the first axis where that is zero) and is projected back.  Near
    pairs probe local Lipschitz-type violations that independent uniform
    draws almost never hit.
    """
    U = lcg.next_doubles(count * 2 * body.dim).reshape(count, 2, body.dim)
    X = _points(body, U[:, 0], scale)
    Z = np.empty_like(X)
    Z[0::2] = _points(body, U[0::2, 1], scale)
    near = np.arange(1, count, 2)
    delta = np.array(_NEAR_OFFSETS)[(near // 2) % len(_NEAR_OFFSETS)] * scale
    direction = 2.0 * U[1::2, 1] - 1.0
    nd = row_norms(direction)
    zero = nd == 0.0
    direction[zero] = np.eye(body.dim)[0]
    nd[zero] = 1.0
    Z[1::2] = project(body, X[1::2] + (delta / nd)[:, None] * direction)
    return X, Z


# ---------------------------------------------------------------------------
# class verification


@dataclass
class CheckRecord:
    index: int
    point: list
    partner: list | None   # second point of a pair, or the fixed point used
    n: int | None          # iterate power for asymptotic classes
    lhs: float
    rhs: float
    passed: bool

    def to_line(self):
        return _Samples.of_records([self]).lines()[:-1]


@dataclass
class _Samples:
    """A class report's samples as columns.

    Sample i is number ``index[i]`` at ``points[i]``, with the sides
    ``lhs[i]`` and ``rhs[i]`` of its worst case and its verdict
    ``passed[i]``.  That case is ``cases[which[i]]``, a pair (n, partner):
    n is None for a class that is not asymptotic, and the partner is a
    fixed point, or None where a pairwise report keeps one partner per
    sample in ``partners``.  Points and partners are lists of floats.
    """

    index: range | list
    points: list
    which: range | list
    cases: list
    partners: list | None
    lhs: list
    rhs: list
    passed: list

    @classmethod
    def of_records(cls, records):
        """The columns of ``records``, each record its own case."""
        return cls([r.index for r in records], [r.point for r in records],
                   range(len(records)), [(r.n, r.partner) for r in records], None,
                   [r.lhs for r in records], [r.rhs for r in records],
                   [r.passed for r in records])

    def records(self, rows):
        """The :class:`CheckRecord` of each sample in ``rows``, built when drawn."""
        for i in rows:
            n, partner = self.cases[self.which[i]]
            if self.partners is not None:
                partner = self.partners[i]
            yield CheckRecord(self.index[i], list(self.points[i]),
                              None if partner is None else list(partner), n,
                              self.lhs[i], self.rhs[i], self.passed[i])

    def lines(self):
        """Every sample's line, each ending in a newline, from one ``%`` over
        a flat tuple.  A point is ``[%r, ..., %r]``, the ``repr`` of its list
        of floats, and each case's tail (its partner and n) is formatted
        once."""
        if not self.points:
            return ""
        vector = "[%s]" % ", ".join(["%r"] * len(self.points[0]))   # partners' too
        line = "sample=%d point=" + vector
        columns = [self.index, *zip(*self.points)]
        if self.partners is not None:
            line += " partner=" + vector
            columns += zip(*self.partners)
        tails = [("" if partner is None else " partner=%s" % (partner,))
                 + ("" if n is None else " n=%d" % n) for n, partner in self.cases]
        columns += ([tails[k] for k in self.which], self.lhs, self.rhs,
                    ["PASS" if ok else "FAIL" for ok in self.passed])
        line += "%s lhs=%.17g rhs=%.17g %s\n"
        return (line * len(self.points)) % tuple(chain.from_iterable(zip(*columns)))


class ClassReport:
    """The outcome of :func:`verify_class`, its samples held as columns
    (:class:`_Samples`, in ``columns``).

    ``records`` builds a :class:`CheckRecord` per sample when it is read,
    and ``violations`` one per failing sample.  A report built from
    ``records`` (one sample each) takes its columns from them and prints
    through the same :meth:`to_text`; ``violations``, the failing ones
    among them, is implied and not read.
    """

    def __init__(self, operator, claimed, samples, seed, records=(), violations=None, *,
                 columns=None):
        self.operator = operator
        self.claimed = claimed
        self.samples = samples
        self.seed = seed
        self.columns = _Samples.of_records(records) if columns is None else columns

    @cached_property
    def _failed(self):
        return [i for i, ok in enumerate(self.columns.passed) if not ok]

    @property
    def records(self):
        return list(self.columns.records(range(len(self.columns.points))))

    @property
    def violations(self):
        return list(self.columns.records(self._failed))

    @property
    def passed(self):
        return not self._failed

    def to_text(self):
        return "operator=%s claimed=%s samples=%d seed=%d verdict=%s\n%s" % (
            self.operator, self.claimed, self.samples, self.seed,
            "FAIL (%d violations)" % len(self._failed) if self._failed else "PASS",
            self.columns.lines())


def _orbits(T, X, n_max):
    """The stacks X, T X, ..., T^{n_max} X of the rows of the (S, d) stack X.

    Each power gives T's stack evaluator only the rows still moving.  A row
    stops at its first iterate v whose image has the bits of v: a
    deterministic map gives those bits again at every later power, NaN
    included, and -0.0 against +0.0 is not a stop.  Once no row moves, the
    last stack is reused.
    """
    stacks, moving = [X], np.arange(len(X))
    for _ in range(n_max):
        stack = stacks[-1]
        if len(moving):
            rows, stack = stack[moving], stack.copy()
            stack[moving] = T._stack(rows)
            moving = moving[(stack[moving].view(np.uint64) != rows.view(np.uint64)).any(1)]
        stacks.append(stack)
    return stacks


def _on_top(extra, stack):
    """The given points as rows on top of the sampled stack."""
    if not extra:
        return stack
    return np.concatenate([np.array([_vector(v) for v in extra]), stack])


def verify_class(T, claimed, samples=1000, seed=1, slack=1e-9, n_max=20,
                 scale=10.0, extra_points=(), extra_pairs=()):
    """Falsification-test a declared operator class by deterministic sampling.

    Draws ``samples`` points (or point pairs) from T's domain with the fixed
    LCG seeded by ``seed`` and checks the defining inequality of ``claimed``
    at each, allowing scale-aware slack ``slack * (1 + |rhs|)``.  Asymptotic
    classes are checked at iterate powers n = 1..``n_max``.  ``extra_points``
    / ``extra_pairs`` are prepended verbatim, for analytically known
    witnesses.  Each sample keeps its worst-margin case (the first of equal
    margins; a NaN margin never replaces another).  The report holds the
    samples as the columns computed here, builds a record per sample only
    when read, and lists every violating sample with both sides.

    The samples are built as whole stacks, with the bits and in the stream
    order of drawing them one at a time: one block of LCG doubles
    (:meth:`_Lcg.next_doubles`) is mapped into the domain at once, a box by
    scaling and any other body by scaling and one :func:`project` of the
    stack, and each pair takes 2d doubles, near or far.  :func:`_orbits`
    gives every power of the (S, d) stack through
    :meth:`FixedPointMap._stack`, and ``claimed.sides`` is evaluated on
    whole stacks with ``spaces.row_norms``, with the bits a single row
    gives.  Each orbit stops at its first bitwise-fixed iterate, which gives
    every later power exactly, and the inequality is still evaluated at
    every n.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not isinstance(claimed, OperatorClass):
        raise ClassMismatch("unsupported operator class %r" % (claimed,))
    pairwise = claimed.pairwise
    if not pairwise and not T.known_fixed_points:
        raise ClassMismatch(
            "class %r quantifies over Fix(T) but the operator declares none"
            % (claimed,)
        )
    lcg = _Lcg(seed)
    powers = range(1, (n_max if claimed.asymptotic else 1) + 1)
    ns = list(powers) if claimed.asymptotic else [None]   # each case's n

    if pairwise:
        X, Z = _sample_pairs(T.domain, lcg, samples, scale)
        X = _on_top([x for x, _ in extra_pairs], X)
        Z = _on_top([z for _, z in extra_pairs], Z)
        xs, zs = _orbits(T, X, powers[-1]), _orbits(T, Z, powers[-1])
        partners = Z.tolist()
        cases = [(n, None) for n in ns]
        sides = (claimed.sides(X, Z, xs[n], zs[n], n) for n in powers)
    else:
        X = _on_top(extra_points, _sample_points(T.domain, lcg, samples, scale))
        xs = _orbits(T, X, powers[-1])
        partners = None
        cases = [(n, p.tolist()) for p in T.known_fixed_points for n in ns]
        sides = (claimed.sides(X, p, xs[n], n)
                 for p in T.known_fixed_points for n in powers)

    with np.errstate(all="ignore"):
        for k, both in enumerate(sides):
            lhs, rhs = (np.array(np.broadcast_to(v, len(X))) for v in both)
            margin = lhs - rhs
            if k == 0:
                worst = [margin, lhs, rhs, np.zeros(len(X), dtype=int)]
                continue
            wins = margin > worst[0]
            for have, new in zip(worst, (margin, lhs, rhs, k)):
                np.copyto(have, new, where=wins)
        margin, lhs, rhs, which = worst
        ok = margin <= slack * (1.0 + np.abs(rhs))
    return ClassReport(T.name or "unnamed", repr(claimed), samples, seed, columns=_Samples(
        range(len(X)), X.tolist(), which.tolist(), cases, partners,
        lhs.tolist(), rhs.tolist(), ok.tolist()))


# ---------------------------------------------------------------------------
# named example operators


def scaled_negation(dim=3):
    """x -> -(5/2) x: demicontractive with least constant 3/7, not quasi-nonexpansive."""
    return FixedPointMap(
        lambda x: -2.5 * x,
        WholeSpace(dim),
        declared_class=Demicontractive(3.0 / 7.0),
        known_fixed_points=(np.zeros(dim),),
        name="scaledNeg",
        rowwise=True,
    )


def shift_square_ball_map(dim=4):
    """(x1, x2, ..., xd) -> (0, x1^2, a2 x2, ..., a_{d-1} x_{d-1}) on the unit ball.

    The damping factors multiply to 1/2, making the iterate Lipschitz
    constants k_n = 2 * prod(a_2..a_n) decrease to 1: asymptotically
    nonexpansive but not nonexpansive.  It maps a stack of points row by
    row; x1^2 is ``np.float_power``, the libm ``pow`` of Python's
    ``x1 ** 2``, on a single point and on a stack alike.
    """
    if dim < 3:
        raise ValueError("needs dimension >= 3")
    a = (0.5) ** (1.0 / (dim - 2))
    factors = np.full(dim - 2, a)

    def eval_fn(x):
        out = np.zeros(x.shape)
        out[..., 1] = np.float_power(x[..., 0], 2.0)
        out[..., 2:] = factors * x[..., 1:-1]
        return out

    ks = [2.0]
    running = 2.0
    for f in factors:
        running *= f
        ks.append(max(running, 1.0))
    k_seq = SequenceSpec.table([1.0] + ks, tail=1.0)  # index 0 unused; powers start at 1
    return FixedPointMap(
        eval_fn,
        Ball(np.zeros(dim), 1.0),
        declared_class=AsymptoticallyNonexpansive(k_seq),
        known_fixed_points=(np.zeros(dim),),
        name="ballMap",
        rowwise=True,
    )


def _sine_shrink(x):
    v = float(x[0])
    if v == 0.0:
        return np.array([0.0])
    if math.isinf(1.0 / v):   # math.sin(inf) would be a domain error
        raise OverflowError("1/x overflows at x = %r in (2/3) x sin(1/x)" % v)
    return np.array([(2.0 / 3.0) * v * math.sin(1.0 / v)])


def operator_catalog():
    """The named example operators with domains, classes, and fixed points."""
    nonneg = Box([0.0], [np.inf])
    cat = {}
    cat["heDu"] = map_from_rule(
        Rational1D([2.0, 0.0, 1.0], [1.0, 1.0]), nonneg,
        declared_class=QuasiNonexpansive(), known_fixed_points=([2.0],),
        name="heDu",
    )
    cat["bigU"] = map_from_rule(
        Rational1D([5.0, 0.0, 1.0], [1.0, 1.0]), nonneg,
        declared_class=QuasiNonexpansive(), known_fixed_points=([5.0],),
        name="bigU",
    )
    cat["smallS"] = map_from_rule(
        Rational1D([5.0, 1.0], [5.0]), nonneg,
        declared_class=QuasiNonexpansive(), known_fixed_points=([1.25],),
        name="smallS",
    )
    cat["wqT"] = map_from_rule(
        Rational1D([2.0, 1.0], [3.0]), nonneg,
        declared_class=QuasiNonexpansive(), known_fixed_points=([1.0],),
        name="wqT",
    )
    # piecewise rule kept exactly as published: the zero branch covers
    # (-inf, 1], the rational branch (1, inf); 0 is the registered fixed
    # point, 1 the algorithmic target approached from above
    cat["wqU"] = map_from_rule(
        Piecewise1D(1.0, Rational1D([0.0], [1.0]), Rational1D([0.0, 2.0], [1.0, 1.0])),
        nonneg,
        declared_class=QuasiNonexpansive(), known_fixed_points=([0.0],),
        name="wqU",
    )
    cat["scaledNeg"] = scaled_negation()
    cat["ballMap"] = shift_square_ball_map()
    cat["browderPetryshyn"] = FixedPointMap(
        _sine_shrink, Box([-1.0], [1.0]),
        declared_class=Demicontractive(0.0), known_fixed_points=([0.0],),
        name="browderPetryshyn",
    )
    cat["identity"] = map_from_rule(
        Rational1D([0.0, 1.0], [1.0]), WholeSpace(1),
        declared_class=Nonexpansive(), known_fixed_points=([0.0],),
        name="identity",
    )
    return cat
