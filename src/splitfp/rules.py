"""Portable scalar update rules: rational functions, one-breakpoint
piecewise rules, and relaxations of either.

Every operator appearing in the bundled reference configurations is a
rational function of one variable, possibly glued at a single breakpoint.
Keeping the rule as data (coefficient lists) rather than opaque code lets
the same operator be evaluated in float64 by the solvers, re-evaluated in
``decimal.Decimal`` by the high-precision oracle, and round-tripped through
the JSON configuration format.  Rules are immutable.

``rule.float_kernel()`` returns a new function of one Python float that
performs exactly the IEEE operations of ``rule(v)``, in the same order, so
its result has the same bits (and a pole raises the same
``ZeroDivisionError``).  A rational rule's kernel is straight-line Horner
code, one statement per term, compiled once per pair of degrees; piecewise
and relaxed rules compose their children's kernels.

``rule.array_kernel()`` performs the same operations elementwise on a
float64 array, so each element has the bits of ``float_kernel`` at that
element wherever the latter returns.  At a pole it gives an infinity or a
NaN (under numpy's error state) where the float kernel raises.  A rule
with constant branches may return a scalar; callers broadcast.  Neither
kernel is cached on the rule: an ``operators.FixedPointMap`` given a rule
compiles both once and keeps them.
"""

from dataclasses import dataclass
from decimal import Decimal
from functools import cache

import numpy as np

__all__ = ["Rational1D", "Piecewise1D", "Relaxed1D"]


def _horner(coeffs, v):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * v + c
    return acc


@cache
def _rational_factory(num_terms, den_terms):
    """Compile the Horner kernel of p/q for these numbers of coefficients.

    The result takes the coefficients ``n0, .., d0, ..`` and returns
    ``kernel(v)``, which runs one statement ``p = p * v + n_i`` per term in
    the order of :func:`_horner`, so no degree nests too deep to compile.
    The coefficients are bound as closure variables, not written as
    literals, so that inf, nan and -0.0 keep their exact values.
    """

    def horner(acc, prefix, terms):
        if terms == 1:
            return ["        %s = %s0" % (acc, prefix)]
        lines = ["        %s = %s%d * v + %s%d"
                 % (acc, prefix, terms - 1, prefix, terms - 2)]
        lines += ["        %s = %s * v + %s%d" % (acc, acc, prefix, i)
                  for i in reversed(range(terms - 2))]
        return lines

    params = ["n%d" % i for i in range(num_terms)]
    params += ["d%d" % i for i in range(den_terms)]
    source = "\n".join(
        ["def factory(%s):" % ", ".join(params), "    def kernel(v):"]
        + horner("p", "n", num_terms) + horner("q", "d", den_terms)
        + ["        return p / q", "    return kernel"])
    namespace = {}
    exec(source, namespace)
    return namespace["factory"]


@dataclass(frozen=True, repr=False)
class Rational1D:
    """p(x)/q(x) with coefficient lists in ascending powers of x."""

    num: tuple
    den: tuple = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(float(c) for c in self.num))
        object.__setattr__(self, "den", tuple(float(c) for c in self.den))
        if not self.num or not self.den:
            raise ValueError("coefficient lists must be nonempty")
        if not any(self.den):
            raise ValueError("denominator is identically zero")

    def __call__(self, v):
        return _horner(self.num, v) / _horner(self.den, v)

    def float_kernel(self):
        return _rational_factory(len(self.num), len(self.den))(*self.num, *self.den)

    # the Horner statements are elementwise on an array
    array_kernel = float_kernel

    def eval_decimal(self, v):
        num = tuple(map(Decimal, self.num))
        den = tuple(map(Decimal, self.den))
        return _horner(num, v) / _horner(den, v)

    def to_config(self):
        return {"num": list(self.num), "den": list(self.den)}

    def __repr__(self):
        return "Rational1D(num=%r, den=%r)" % (list(self.num), list(self.den))


@dataclass(frozen=True, repr=False)
class Piecewise1D:
    """Two rational branches split at one breakpoint.

    The left branch applies for ``v <= breakpoint`` (or ``v < breakpoint``
    when ``left_closed`` is False), the right branch otherwise.
    """

    breakpoint: float
    left: Rational1D
    right: Rational1D
    left_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "breakpoint", float(self.breakpoint))
        object.__setattr__(self, "left_closed", bool(self.left_closed))

    def _is_left(self, v):
        return v <= self.breakpoint if self.left_closed else v < self.breakpoint

    def __call__(self, v):
        return self.left(v) if self._is_left(v) else self.right(v)

    def float_kernel(self):
        left, right = self.left.float_kernel(), self.right.float_kernel()
        at = self.breakpoint
        if self.left_closed:
            return lambda v: left(v) if v <= at else right(v)
        return lambda v: left(v) if v < at else right(v)

    def array_kernel(self):
        # both branches run on every element; a NaN takes the right one, as
        # in the float kernel
        left, right = self.left.array_kernel(), self.right.array_kernel()
        at = self.breakpoint
        if self.left_closed:
            return lambda v: np.where(v <= at, left(v), right(v))
        return lambda v: np.where(v < at, left(v), right(v))

    def eval_decimal(self, v):
        branch = self.left if self._is_left(v) else self.right
        return branch.eval_decimal(v)

    def to_config(self):
        return {
            "breakpoint": self.breakpoint,
            "left": self.left.to_config(),
            "right": self.right.to_config(),
            "left_closed": self.left_closed,
        }

    def __repr__(self):
        return "Piecewise1D(breakpoint=%r, left=%r, right=%r)" % (
            self.breakpoint,
            self.left,
            self.right,
        )


@dataclass(frozen=True)
class Relaxed1D:
    """The averaged rule v -> (1 - alpha) v + alpha rule(v).

    In float64 this performs exactly the operations of the array form
    ``(1 - alpha) * x + alpha * T(x)`` on a one-element x; in Decimal the
    weight is the exact value of the float ``alpha``.
    """

    rule: object
    alpha: float

    def __post_init__(self):
        # a Python float, so the float kernel returns a Python float
        object.__setattr__(self, "alpha", float(self.alpha))

    def __call__(self, v):
        return (1.0 - self.alpha) * v + self.alpha * self.rule(v)

    def float_kernel(self):
        return self._averaged(self.rule.float_kernel())

    def array_kernel(self):
        return self._averaged(self.rule.array_kernel())

    def _averaged(self, inner):
        alpha = self.alpha
        keep = 1.0 - alpha
        return lambda v: keep * v + alpha * inner(v)

    def eval_decimal(self, v):
        alpha = Decimal(self.alpha)
        return (1 - alpha) * v + alpha * self.rule.eval_decimal(v)
