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
``ZeroDivisionError``).  ``rule.power_kernel()`` returns a new
``power(v, n)``: the kernel's statements inline in a loop of at most n
applications, which stops once an image is bitwise fixed (``==`` with the
same sign bit, or a NaN with the same bits), optionally checking a domain
before each application.  Both compile from one piece of straight-line
source each rule kind writes for its shape: Horner statements, one per
term, for a rational rule, an ``if`` around its branches' statements for a
piecewise rule, and the average after the inner rule's statements for a
relaxed one.  The source is compiled once per shape (kinds, degrees, closed
sides), and the rule's numbers are bound to it; an
``operators.FixedPointMap`` given a rule compiles its kernel once, and its
power loops once at its first power, and keeps them.  A map without a rule
has no compiled loop: it powers on arrays, by calls of its ``eval_fn``.

``rule.array_kernel()`` performs the same operations elementwise on a
float64 array, so each element has the bits of ``float_kernel`` at that
element wherever the latter returns.  At a pole it gives an infinity or a
NaN (under numpy's error state) where the float kernel raises.  A rule
with constant branches may return a scalar; callers broadcast.  No kernel
is cached on the rule.
"""

import math
import struct
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


def _horner_statements(acc, coeffs, v):
    """:func:`_horner` as one statement per term, so that no degree nests
    too deep to compile, and the name of its value: a constant is its one
    coefficient."""
    if len(coeffs) == 1:
        return [], coeffs[0]
    return (["%s = %s * %s + %s" % (acc, coeffs[-1], v, coeffs[-2])]
            + ["%s = %s * %s + %s" % (acc, acc, v, c) for c in reversed(coeffs[:-2])]), acc


class _Names:
    """Names in generated source: ``c0, c1, ..`` for the rule's numbers, in
    the order of its ``_form()``, and ``t0, t1, ..`` for temporaries."""

    def __init__(self):
        self.consts = self.temps = 0

    def const(self):
        self.consts += 1
        return "c%d" % (self.consts - 1)

    def temp(self):
        self.temps += 1
        return "t%d" % (self.temps - 1)


def _statements(shape, v, out, names):
    """Statements that set ``out`` to the rule of this shape at ``v``."""
    return shape[0]._statements(shape, v, out, names)


def _indent(lines, depth=1):
    return ["    " * depth + line for line in lines]


# the exit of a power loop: the image has the bits of v (the same sign of a
# zero, the same NaN)
_FIXED_EXIT = [
    "if image == v:",
    "    if copysign(1.0, image) == copysign(1.0, v):",
    "        break",
    "elif image != image and pack(image) == pack(v):",
    "    break",
    "v = image",
]


@cache
def _factory(shape, loop):
    """Compile the ``"kernel"``, the ``"power"`` loop or the ``"checked"``
    power loop of rules of this shape.

    The result takes the rule's numbers (then ``inside`` and ``escape``,
    when checked) and returns the function.  The numbers are bound as
    closure variables, not written as literals, so that inf, nan and -0.0
    keep their exact values.
    """
    names = _Names()
    body = _statements(shape, "v", "image", names)
    params = ["c%d" % i for i in range(names.consts)]
    if loop == "kernel":
        name, inner = "kernel", ["def kernel(v):"] + _indent(body + ["return image"])
    else:
        if loop == "checked":
            params += ["inside", "escape"]
            body = ["if not inside(v):", "    raise escape(i, n, v)"] + body
        name, inner = "power", (["def power(v, n):", "    for i in range(n):"]
                                + _indent(body + _FIXED_EXIT, 2) + ["    return v"])
    source = "\n".join(["def factory(%s):" % ", ".join(params)]
                       + _indent(inner + ["return " + name]))
    namespace = {"copysign": math.copysign, "pack": struct.Struct("<d").pack}
    exec(source, namespace)
    return namespace["factory"]


class _Rule:
    """The compiled functions of a rule, from its ``_form()``: its shape,
    the key its source is compiled under, and its numbers."""

    def float_kernel(self):
        shape, numbers = self._form()
        return _factory(shape, "kernel")(*numbers)

    def power_kernel(self, inside=None, escape=None):
        """``power(v, n)``, the n-th power of the rule at v.  With
        ``inside``, a v that ``inside(v)`` rejects before application
        i + 1 of n raises ``escape(i, n, v)``: a domain check."""
        shape, numbers = self._form()
        if inside is None:
            return _factory(shape, "power")(*numbers)
        return _factory(shape, "checked")(*numbers, inside, escape)


@dataclass(frozen=True, repr=False)
class Rational1D(_Rule):
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

    def _form(self):
        return (Rational1D, len(self.num), len(self.den)), self.num + self.den

    @staticmethod
    def _statements(shape, v, out, names):
        _, num_terms, den_terms = shape
        p, q = names.temp(), names.temp()
        num = [names.const() for _ in range(num_terms)]
        den = [names.const() for _ in range(den_terms)]
        (p_lines, p), (q_lines, q) = _horner_statements(p, num, v), _horner_statements(q, den, v)
        return p_lines + q_lines + ["%s = %s / %s" % (out, p, q)]

    def array_kernel(self):
        # the Horner statements are elementwise on an array
        return self.float_kernel()

    def eval_decimal(self, v):
        num = tuple(map(Decimal, self.num))
        den = tuple(map(Decimal, self.den))
        return _horner(num, v) / _horner(den, v)

    def to_config(self):
        return {"num": list(self.num), "den": list(self.den)}

    def __repr__(self):
        return "Rational1D(num=%r, den=%r)" % (list(self.num), list(self.den))


@dataclass(frozen=True, repr=False)
class Piecewise1D(_Rule):
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

    def _form(self):
        (left, left_numbers), (right, right_numbers) = self.left._form(), self.right._form()
        return ((Piecewise1D, self.left_closed, left, right),
                (self.breakpoint, *left_numbers, *right_numbers))

    @staticmethod
    def _statements(shape, v, out, names):
        # a NaN takes the right branch
        _, left_closed, left, right = shape
        return (["if %s %s %s:" % (v, "<=" if left_closed else "<", names.const())]
                + _indent(_statements(left, v, out, names))
                + ["else:"] + _indent(_statements(right, v, out, names)))

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

    def __repr__(self):   # left_closed is shown only where it is False
        return "Piecewise1D(breakpoint=%r, left=%r, right=%r%s)" % (
            self.breakpoint,
            self.left,
            self.right,
            "" if self.left_closed else ", left_closed=False",
        )


@dataclass(frozen=True)
class Relaxed1D(_Rule):
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

    def _form(self):
        inner, numbers = self.rule._form()
        return (Relaxed1D, inner), (1.0 - self.alpha, self.alpha, *numbers)

    @staticmethod
    def _statements(shape, v, out, names):
        keep, alpha, kept, image = names.const(), names.const(), names.temp(), names.temp()
        return (["%s = %s * %s" % (kept, keep, v)] + _statements(shape[1], v, image, names)
                + ["%s = %s + %s * %s" % (out, kept, alpha, image)])

    def array_kernel(self):
        alpha, inner = self.alpha, self.rule.array_kernel()
        keep = 1.0 - alpha
        return lambda v: keep * v + alpha * inner(v)

    def eval_decimal(self, v):
        alpha = Decimal(self.alpha)
        return (1 - alpha) * v + alpha * self.rule.eval_decimal(v)
