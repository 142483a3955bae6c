"""Nonlinear-operator taxonomy, combinators, named example operators, and
sampling-based class verifiers.

An operator is a :class:`FixedPointMap`: an evaluation rule together with a
domain, a declared regularity class, and (when known) fixed points.  The
class taxonomy covers contractions through total quasi-asymptotically
nonexpansive maps.  Each class is one record, a subclass of
:class:`OperatorClass` that carries its own defining inequality
(``sides``), whether it is pairwise or quantified over the fixed points,
whether it is asymptotic, and its command-line token (:data:`CLASS_TOKENS`).
:func:`verify_class` falsification-tests a declared class by deterministic
sampling.  The sampler is a fixed 64-bit linear congruential generator so
reports are bit-reproducible across platforms.
"""

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import ClassVar

import numpy as np

from .projections import Ball, Box, WholeSpace, contains, project
from .rules import Piecewise1D, Rational1D, Relaxed1D
from .spaces import _vector, norm

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

    Formulas are drawn from a fixed registry of closed forms, all evaluable
    at every n >= 0 (shifted where the textbook form would divide by zero).
    Each formula is written once over a unit ``one``: ``1.0`` evaluates it in
    float64, ``Decimal(1)`` in decimal arithmetic.
    """

    _FORMULAS: ClassVar[dict] = {
        "1/(n+1)": lambda n, one: one / (n + 1),
        "1/(n+2)": lambda n, one: one / (n + 2),
        "1/(n+1)^2": lambda n, one: one / (n + 1) ** 2,
        "1+1/(n+1)^2": lambda n, one: one + one / (n + 1) ** 2,
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

    def _eval(self, n, one):
        if n < 0:
            raise ValueError("sequence index must be >= 0")
        if self.kind == "constant":
            return self.constant
        if self.kind == "table":
            return self.values[n] if n < len(self.values) else self.tail
        return self._FORMULAS[self.formula](n, one)

    def __call__(self, n):
        return self._eval(n, 1.0)

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


@dataclass(frozen=True, repr=False)
class Gauge:
    """Strictly increasing continuous gauge with gauge(0) = 0.

    Restricted to the registry {t, t^2, c*t^2}; the quadratic gauge is the
    only one the verified inequalities ever need.
    """

    kind: str = "t^2"
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in ("t", "t^2", "c*t^2"):
            raise ValueError("gauge registry: 't', 't^2', 'c*t^2'")
        if self.kind == "c*t^2" and self.c <= 0:
            raise ValueError("gauge scale must be positive")
        object.__setattr__(self, "c", float(self.c))

    def __call__(self, t):
        if self.kind == "t":
            return t
        if self.kind == "t^2":
            return t * t
        return self.c * t * t

    def __repr__(self):
        return "Gauge(%r, c=%r)" % (self.kind, self.c)


_ZERO = SequenceSpec.const(0.0)
_ONE = SequenceSpec.const(1.0)
_QUADRATIC = Gauge("t^2")


# ---------------------------------------------------------------------------
# the class taxonomy

# The defining inequalities are written over stacks: arrays whose last axis
# is the vector, a single vector being a stack with no leading axis.  Each
# row gets the bits of ``spaces.norm``, ``spaces.inner`` and Python's float
# ``t ** 2``: ``np.vecdot`` of a row is the BLAS ``a.dot(b)`` those use
# (einsum and ``(a * a).sum(-1)`` may sum in another order), and Python's
# ``t ** 2`` calls libm ``pow``, which ``np.float_power(t, 2.0)`` matches
# and an array's ``t ** 2`` (``t * t``) does not.


def _norm(a):
    return np.sqrt(np.vecdot(a, a))


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
    rest at n = 1.  ``token`` names the class on the command line and
    ``default`` is the scalar parameter a token without one stands for.

    The constants a class implies are class attributes or properties, None
    where it implies none: ``lipschitz`` (1 for nonexpansive maps),
    ``demicontractive`` (0 for quasi-nonexpansive maps, -1 for firmly
    quasi-nonexpansive and directed ones), ``strong_monotonicity``, and
    ``total_quasi``, the class as a total quasi-asymptotically nonexpansive
    record.
    """

    token: ClassVar[str | None] = None
    pairwise: ClassVar[bool] = True
    asymptotic: ClassVar[bool] = False
    default: ClassVar[float | None] = None
    lipschitz: ClassVar[float | None] = None
    demicontractive: ClassVar[float | None] = None
    strong_monotonicity: ClassVar[float | None] = None
    total_quasi: ClassVar["TotalQuasiAsymptoticallyNonexpansive | None"] = None

    def __init_subclass__(cls, token=None, pairwise=True, asymptotic=False,
                          default=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.token, cls.pairwise, cls.asymptotic = token, pairwise, asymptotic
        cls.default = default
        if token:
            CLASS_TOKENS[token] = cls

    @classmethod
    def from_token(cls, param):
        if cls.default is None:
            return cls()
        return cls(float(param) if param else cls.default)


@dataclass(frozen=True)
class Contraction(OperatorClass, token="contraction", default=0.9):
    k: float

    def __post_init__(self):
        _check_unit_interval(self.k, True, "Contraction")

    lipschitz = property(lambda self: self.k)

    def sides(self, x, z, tx, tz, n):
        return _norm(tx - tz), self.k * _norm(x - z)


@dataclass(frozen=True)
class Nonexpansive(OperatorClass, token="nonexpansive"):
    lipschitz: ClassVar[float] = 1.0

    def sides(self, x, z, tx, tz, n):
        return _norm(tx - tz), _norm(x - z)


@dataclass(frozen=True)
class QuasiNonexpansive(OperatorClass, token="quasi_nonexpansive", pairwise=False):
    demicontractive: ClassVar[float] = 0.0

    @property
    def total_quasi(self):
        return TotalQuasiAsymptoticallyNonexpansive(_ZERO, _ZERO, _QUADRATIC)

    def sides(self, x, p, tx, n):
        return _norm(tx - p), _norm(x - p)


@dataclass(frozen=True)
class FirmlyQuasiNonexpansive(OperatorClass, token="firmly_quasi_nonexpansive",
                              pairwise=False):
    demicontractive: ClassVar[float] = -1.0

    def sides(self, x, p, tx, n):
        return _sq(_norm(tx - p)), _sq(_norm(x - p)) - _sq(_norm(tx - x))


@dataclass(frozen=True)
class Demicontractive(OperatorClass, token="demicontractive", default=0.0,
                      pairwise=False):
    k: float

    def __post_init__(self):
        _check_unit_interval(self.k, False, "Demicontractive")

    demicontractive = property(lambda self: self.k)

    def sides(self, x, p, tx, n):
        return _sq(_norm(tx - p)), _sq(_norm(x - p)) + self.k * _sq(_norm(tx - x))


@dataclass(frozen=True)
class StrictlyPseudocontractive(OperatorClass, token="strictly_pseudocontractive",
                                default=0.0):
    k: float

    def __post_init__(self):
        _check_unit_interval(self.k, False, "StrictlyPseudocontractive")

    # with a fixed point, a k-strict pseudocontraction is k-demicontractive
    demicontractive = property(lambda self: self.k)

    def sides(self, x, z, tx, tz, n):
        return (
            _sq(_norm(tx - tz)),
            _sq(_norm(x - z)) + self.k * _sq(_norm((x - tx) - (z - tz))),
        )


@dataclass(frozen=True)
class Directed(OperatorClass, token="directed", pairwise=False):
    demicontractive: ClassVar[float] = -1.0

    def sides(self, x, p, tx, n):
        return np.vecdot(p - tx, x - tx), 0.0


@dataclass(frozen=True)
class AsymptoticallyNonexpansive(
        OperatorClass, token="asymptotically_nonexpansive", asymptotic=True):
    k_seq: SequenceSpec

    def __post_init__(self):
        _check_at_least_one(self.k_seq, "AsymptoticallyNonexpansive k_n")

    @classmethod
    def from_token(cls, param):
        return cls(_ONE)

    def sides(self, x, z, tx, tz, n):
        return _norm(tx - tz), self.k_seq(n) * _norm(x - z)


@dataclass(frozen=True)
class AsymptoticallyQuasiNonexpansive(
        OperatorClass, token="asymptotically_quasi_nonexpansive",
        pairwise=False, asymptotic=True):
    t_seq: SequenceSpec

    def __post_init__(self):
        _check_at_least_one(self.t_seq, "AsymptoticallyQuasiNonexpansive t_n")

    @classmethod
    def from_token(cls, param):
        return cls(_ONE)

    @property
    def total_quasi(self):
        # v_n = t_n - 1
        return TotalQuasiAsymptoticallyNonexpansive(
            lambda n: self.t_seq(n) - 1.0, _ZERO, _QUADRATIC)

    def sides(self, x, p, tx, n):
        return _sq(_norm(tx - p)), self.t_seq(n) * _sq(_norm(x - p))


@dataclass(frozen=True)
class TotalAsymptoticallyNonexpansive(
        OperatorClass, token="total_asymptotically_nonexpansive", asymptotic=True):
    v_seq: SequenceSpec
    mu_seq: SequenceSpec
    gauge: Gauge

    def __post_init__(self):
        _check_nonnegative(self.v_seq, "v_n")
        _check_nonnegative(self.mu_seq, "mu_n")

    @classmethod
    def from_token(cls, param):
        return cls(_ZERO, _ZERO, _QUADRATIC)

    def sides(self, x, z, tx, tz, n):
        return (
            _sq(_norm(tx - tz)),
            _sq(_norm(x - z)) + self.v_seq(n) * self.gauge(_norm(x - z)) + self.mu_seq(n),
        )


@dataclass(frozen=True)
class TotalQuasiAsymptoticallyNonexpansive(
        OperatorClass, token="total_quasi_asymptotically_nonexpansive",
        pairwise=False, asymptotic=True):
    v_seq: SequenceSpec
    mu_seq: SequenceSpec
    gauge: Gauge

    def __post_init__(self):
        _check_nonnegative(self.v_seq, "v_n")
        _check_nonnegative(self.mu_seq, "mu_n")

    @classmethod
    def from_token(cls, param):
        return cls(_ZERO, _ZERO, _QUADRATIC)

    total_quasi = property(lambda self: self)

    def sides(self, x, p, tx, n):
        return (
            _sq(_norm(tx - p)),
            _sq(_norm(x - p)) + self.v_seq(n) * self.gauge(_norm(x - p)) + self.mu_seq(n),
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
            _sq(_norm(tx - tz)),
            _sq(_norm(x - z))
            + self.k * _sq(_norm((x - tx) - (z - tz)))
            + self.mu_seq(n) * self.gauge(_norm(x - z))
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
        return _norm(tx - tz), self.K * _norm(x - z)


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
        return self.eta * _sq(_norm(x - z)), np.vecdot(tx - tz, x - z)


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


# class constraints quantify over iterate powers, which start at n = 1

def _check_nonnegative(seq, name, upto=50):
    for n in range(1, upto + 1):
        if seq(n) < 0:
            raise ValueError("%s must be nonnegative (n=%d)" % (name, n))


def _check_at_least_one(seq, name, upto=50):
    for n in range(1, upto + 1):
        if seq(n) < 1.0:
            raise ValueError("%s must be >= 1 (n=%d gives %r)" % (name, n, seq(n)))


# ---------------------------------------------------------------------------
# fixed-point maps and combinators


class FixedPointMap:
    """A nonlinear map with domain, declared class, and known fixed points.

    ``eval_fn`` takes and returns 1-D float arrays.  ``rule``, when present,
    is the portable scalar rule the map evaluates, and ``kernel`` is its
    ``rule.float_kernel()``, compiled once here.  ``eval_fn`` may then be
    None, and the map evaluates ``[kernel(float(x[0]))]``; a given
    ``eval_fn`` must compute exactly that (:func:`map_from_rule` builds
    such maps).  The high-precision oracle re-evaluates the rule in Decimal
    and :func:`power_apply` iterates the kernel on Python floats.
    ``extra_classes`` lists additional regularity declarations beyond the
    primary one, e.g. a Lipschitz constant alongside a strong-monotonicity
    modulus.
    """

    def __init__(self, eval_fn, domain, declared_class=None,
                 known_fixed_points=(), name=None, rule=None, extra_classes=()):
        self.rule = rule
        self.kernel = None if rule is None else rule.float_kernel()
        if eval_fn is None:
            if rule is None:
                raise ValueError("a map needs an eval_fn or a rule")
            eval_fn = _kernel_eval_fn(self.kernel)
        self.eval_fn = eval_fn
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
        x = _vector(x)
        return _vector(self.eval_fn(x))

    def __repr__(self):
        return "FixedPointMap(%s)" % (self.name or "unnamed")


def _kernel_eval_fn(kernel):
    def eval_fn(x):
        return np.array([kernel(float(x[0]))])

    return eval_fn


def map_from_rule(rule, domain, declared_class=None, known_fixed_points=(),
                  name=None, extra_classes=()):
    """Wrap a scalar rule as a one-dimensional :class:`FixedPointMap`.

    The map compiles the rule's float kernel once and evaluates it.
    """
    return FixedPointMap(None, domain, declared_class, known_fixed_points,
                         name=name, rule=rule, extra_classes=extra_classes)


def _domain_escape(i, n, point):
    return DomainEscape("iterate left the domain before application %d of %d: %s"
                        % (i + 1, n, point.tolist()))


def power_apply(T, n, x, check_domain=True):
    """n-fold composition T(T(...T(x))).

    Cost is at most n evaluations; composition stops early once an iterate
    is bitwise fixed, T(v) having the shape and the bytes of v (see
    :func:`_iterates`): every later power of a deterministic map then has
    those bits too.  The test keeps -0.0 and +0.0 apart and holds for NaN.
    With ``check_domain`` the current point is required to lie in T's domain
    before every application, and the offending step is named on escape.

    Two loops compute the same thing.  When T has a ``kernel`` (the float
    kernel of its rule, compiled once when the map is built) and x has one
    element, the loop runs on a Python float and calls the kernel: the
    same IEEE operations ``T``'s ``eval_fn`` performs, without wrapping
    every iterate in an array.  Every other map, and every d > 1, takes the
    array loop through ``T.__call__``.
    """
    if n < 1:
        raise ValueError("power requires n >= 1")
    cur = _vector(x)
    kernel = T.kernel
    if kernel is not None and cur.shape == (1,):
        v = float(cur[0])
        for i in range(n):
            if check_domain:
                point = np.array([v])
                if not contains(T.domain, point, tol=1e-9):
                    raise _domain_escape(i, n, point)
            v, prev = float(kernel(v)), v
            if v == prev and math.copysign(1.0, v) == math.copysign(1.0, prev):
                break
        return np.array([v])
    for i in range(n):
        if check_domain and not contains(T.domain, cur, tol=1e-9):
            raise _domain_escape(i, n, cur)
        nxt = T(cur)
        if _bitwise_fixed(cur, nxt):
            return nxt
        cur = nxt
    return cur


def _bitwise_fixed(v, image):
    """Whether ``image`` = T(v) has the shape and the bytes of ``v``."""
    return image.shape == v.shape and image.tobytes() == v.tobytes()


def relax(T, alpha):
    """Averaged map x -> (1-alpha) x + alpha T(x) for alpha in (0, 1].

    Preserves the fixed-point set; stays quasi-nonexpansive when T is.  A
    rule-backed T gives a rule-backed map, its rule a :class:`Relaxed1D`.
    """
    alpha = float(alpha)  # a numpy float32 weight would make the kernel float32
    if not 0.0 < alpha <= 1.0:
        raise ValueError("relaxation weight must lie in (0, 1]")
    if alpha == 1.0:
        return T
    declared = (
        QuasiNonexpansive()
        if isinstance(T.declared_class, QuasiNonexpansive)
        else None
    )
    name = "relax(%s, %g)" % (T.name or "T", alpha)
    if T.rule is not None:
        return map_from_rule(Relaxed1D(T.rule, alpha), T.domain, declared,
                             T.known_fixed_points, name=name)
    return FixedPointMap(
        lambda x: (1.0 - alpha) * x + alpha * T(x),
        T.domain,
        declared_class=declared,
        known_fixed_points=T.known_fixed_points,
        name=name,
    )


def convex_combine(maps, weights):
    """Weighted average x -> sum_i w_i T_i(x) of maps sharing a domain dim.

    Declared quasi-nonexpansive when every input is and a common fixed
    point survives; the surviving common fixed points are re-registered.
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
    all_quasi = all(isinstance(m.declared_class, QuasiNonexpansive) for m in maps)
    declared = QuasiNonexpansive() if (all_quasi and common) else None
    return FixedPointMap(
        eval_fn,
        maps[0].domain,
        declared_class=declared,
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


def _sample_interval(lo, hi, u, scale):
    lo_c = max(lo, -scale)
    hi_c = min(hi, scale)
    if lo_c > hi_c:
        # feasible region lies outside the default window: recenter on it
        if lo > scale:
            lo_c, hi_c = lo, min(hi, lo + 2 * scale)
        else:
            lo_c, hi_c = max(lo, hi - 2 * scale), hi
    return lo_c + u * (hi_c - lo_c)


def sample_point(body, lcg, scale=10.0):
    """Draw a point of ``body`` from the LCG stream.

    Boxes sample coordinates uniformly inside bounds clipped to
    [-scale, scale]; other bodies sample that window and project, so every
    returned point is a member.
    """
    d = body.dim
    if isinstance(body, Box):
        return np.array(
            [
                _sample_interval(body.lower[i], body.upper[i], lcg.next_double(), scale)
                for i in range(d)
            ]
        )
    if isinstance(body, WholeSpace):
        return np.array([-scale + 2 * scale * lcg.next_double() for _ in range(d)])
    raw = np.array([-scale + 2 * scale * lcg.next_double() for _ in range(d)])
    return project(body, raw)


_NEAR_OFFSETS = (1e-1, 1e-2, 1e-3, 1e-4)


def _sample_pair(body, lcg, index, scale):
    """Alternate far pairs (independent draws) with near pairs (small offsets).

    Near pairs probe local Lipschitz-type violations that independent
    uniform draws almost never hit.
    """
    x = sample_point(body, lcg, scale)
    if index % 2 == 0:
        return x, sample_point(body, lcg, scale)
    delta = _NEAR_OFFSETS[(index // 2) % len(_NEAR_OFFSETS)] * scale
    direction = np.array([2.0 * lcg.next_double() - 1.0 for _ in range(body.dim)])
    nd = norm(direction)
    if nd == 0.0:
        direction = np.zeros(body.dim)
        direction[0] = 1.0
        nd = 1.0
    z = project(body, x + (delta / nd) * direction)
    return x, z


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
        status = "PASS" if self.passed else "FAIL"
        partner = "" if self.partner is None else " partner=%s" % (self.partner,)
        power = "" if self.n is None else " n=%d" % self.n
        return "sample=%d point=%s%s%s lhs=%.17g rhs=%.17g %s" % (
            self.index, self.point, partner, power, self.lhs, self.rhs, status
        )


@dataclass
class ClassReport:
    operator: str
    claimed: str
    samples: int
    seed: int
    records: list
    violations: list

    @property
    def passed(self):
        return not self.violations

    def to_text(self):
        lines = [
            "operator=%s claimed=%s samples=%d seed=%d verdict=%s"
            % (
                self.operator,
                self.claimed,
                self.samples,
                self.seed,
                "PASS" if self.passed else "FAIL (%d violations)" % len(self.violations),
            )
        ]
        lines.extend(r.to_line() for r in self.records)
        return "\n".join(lines) + "\n"


def _iterates(T, x, n_max):
    """x, Tx, T^2 x, ..., T^{n_max} x computed incrementally.

    The orbit stops at the first iterate v whose image T(v) has the shape
    and the bytes of v, and the rest of the list repeats that array.  This
    is exact for a deterministic map: T then gives those bits again at
    every later power, NaN included, and -0.0 against +0.0 is not a stop.
    """
    out = [_vector(x)]
    for _ in range(n_max):
        image = T(out[-1])
        if _bitwise_fixed(out[-1], image):
            out.extend([image] * (n_max + 1 - len(out)))
            break
        out.append(image)
    return out


def _orbits(T, X, n_max):
    """The stacks X, T X, ..., T^{n_max} X of the rows of the (S, d) stack X.

    A rule-backed map runs its rule's array kernel on the whole stack, and
    the orbit stops once the stack's image has the bytes of the stack: a
    row that is already fixed repeats its bits, so this is the per-row stop
    of :func:`_iterates`.  A row whose stacked image is not finite is
    evaluated again through T, so a pole raises T's own
    ``ZeroDivisionError`` and a non-finite image has T's bits.  Any other
    map iterates row by row through :func:`_iterates` and the orbits are
    stacked.
    """
    if T.rule is None:
        rows = [_iterates(T, x, n_max) for x in X]
        return [np.array(stack) for stack in zip(*rows)]
    kernel = T.rule.array_kernel()

    def image(V):
        with np.errstate(all="ignore"):
            out = np.array(np.broadcast_to(kernel(V[:, 0]), len(V)))[:, None]
        for i in np.flatnonzero(~np.isfinite(out[:, 0])):
            out[i] = T(V[i])
        return out

    return _iterates(image, X, n_max)


def verify_class(T, claimed, samples=1000, seed=1, slack=1e-9, n_max=20,
                 scale=10.0, extra_points=(), extra_pairs=()):
    """Falsification-test a declared operator class by deterministic sampling.

    Draws ``samples`` points (or point pairs) from T's domain with the fixed
    LCG seeded by ``seed`` and checks the defining inequality of ``claimed``
    at each, allowing scale-aware slack ``slack * (1 + |rhs|)``.  Asymptotic
    classes are checked at iterate powers n = 1..``n_max``.  ``extra_points``
    / ``extra_pairs`` are prepended verbatim, for analytically known
    witnesses.  One record per sample is kept, carrying the worst-margin
    instance (the first of equal margins; a NaN margin never replaces
    another); the report lists every violating sample with both sides.

    The samples are drawn one by one, in the LCG's order, and then checked
    as one (S, d) stack: :func:`_orbits` gives every power of the stack,
    and ``claimed.sides`` is evaluated on whole stacks, with the bits a
    single row gives.  Each orbit stops at its first bitwise-fixed iterate,
    which gives every later power exactly, and the inequality is still
    evaluated at every n.
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

    if pairwise:
        pairs = [(_vector(x), _vector(z)) for x, z in extra_pairs]
        pairs += [_sample_pair(T.domain, lcg, i, scale) for i in range(samples)]
        X = np.array([x for x, _ in pairs])
        Z = np.array([z for _, z in pairs])
        xs, zs = _orbits(T, X, powers[-1]), _orbits(T, Z, powers[-1])
        # (n, each row's partner) of each case
        partners = Z.tolist()
        cases = [(n, partners) for n in powers]
        sides = (claimed.sides(X, Z, xs[n], zs[n], n) for n in powers)
    else:
        points = [_vector(pt) for pt in extra_points]
        points += [sample_point(T.domain, lcg, scale) for _ in range(samples)]
        X = np.array(points)
        xs = _orbits(T, X, powers[-1])
        cases = [(n, [p.tolist()] * len(X))
                 for p in T.known_fixed_points for n in powers]
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
    records = []
    for idx, (x, k, left, right, passed) in enumerate(zip(
            X.tolist(), which.tolist(), lhs.tolist(), rhs.tolist(), ok.tolist())):
        n, partners = cases[k]
        records.append(CheckRecord(idx, x, list(partners[idx]),
                                   n if claimed.asymptotic else None,
                                   left, right, passed))
    violations = [r for r in records if not r.passed]
    return ClassReport(
        T.name or "unnamed",
        repr(claimed),
        samples,
        seed,
        records,
        violations,
    )


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
    )


def shift_square_ball_map(dim=4):
    """(x1, x2, ..., xd) -> (0, x1^2, a2 x2, ..., a_{d-1} x_{d-1}) on the unit ball.

    The damping factors multiply to 1/2, making the iterate Lipschitz
    constants k_n = 2 * prod(a_2..a_n) decrease to 1: asymptotically
    nonexpansive but not nonexpansive.
    """
    if dim < 3:
        raise ValueError("needs dimension >= 3")
    a = (0.5) ** (1.0 / (dim - 2))
    factors = np.full(dim - 2, a)

    def eval_fn(x):
        out = np.zeros(x.shape)
        out[1] = x[0] ** 2
        out[2:] = factors * x[1:-1]
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
    )


def _sine_shrink(x):
    v = float(x[0])
    if v == 0.0:
        return np.array([0.0])
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
