"""Float and array kernels of scalar rules: the same IEEE operations as
the rule."""

import math
import struct

import numpy as np
import pytest

from splitfp.operators import _Lcg, operator_catalog
from splitfp.rules import Piecewise1D, Rational1D, Relaxed1D

TINY = 5e-324                      # smallest subnormal
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, TINY, -TINY, 2.5e-310,
         -2.5e-310, 1e300, -1e300, 1.0, -1.0, 2.0, 1.25, 5.0]


def _samples(seed, count=300):
    """Seeded values over [-10, 10) and over magnitudes 1e-300 .. 1e300."""
    lcg = _Lcg(seed)
    values = [20.0 * lcg.next_double() - 10.0 for _ in range(count)]
    for _ in range(count):
        sign = -1.0 if lcg.next_double() < 0.5 else 1.0
        values.append(sign * 10.0 ** (600.0 * lcg.next_double() - 300.0))
    return values


def _around(at):
    return [math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)]


def _bits(f, v):
    try:
        return struct.pack("d", f(v))
    except ZeroDivisionError:
        return ZeroDivisionError


def _assert_kernel_matches(rule, values):
    kernel = rule.float_kernel()
    for v in values:
        assert _bits(kernel, v) == _bits(rule, v), (rule, v)


CATALOG_RULES = {name: T.rule for name, T in operator_catalog().items()
                 if T.rule is not None}
OPEN_STEP = Piecewise1D(0.5, Rational1D([-1.0, 2.0], [1.0]),
                        Rational1D([3.0, 0.0, -1.0], [1.0, 1.0]), left_closed=False)
CUBIC = Rational1D([1.0, -2.0, 0.5, 3.0], [2.0, 0.0, 1.0, 0.25])
QUARTIC_OVER_CUBIC = Rational1D([0.1, 0.0, -3.0, 0.0, 1e-3], [-1.0, 0.5, 0.0, 2.0])
EXTRA_RULES = {
    "open breakpoint": OPEN_STEP,
    "cubic": CUBIC,
    "quartic over cubic": QUARTIC_OVER_CUBIC,
    "nested relax": Relaxed1D(Relaxed1D(CATALOG_RULES["wqU"], 0.3), 0.7),
    "relaxed open step": Relaxed1D(OPEN_STEP, 1.0 / 3.0),
    "relaxed cubic": Relaxed1D(CUBIC, 0.45),
    # coefficients a literal would not carry: -0.0, inf, nan
    "negative zero": Rational1D([-0.0, 1.0], [1.0]),
    "infinite": Rational1D([math.inf, 1.0], [1.0, -0.0]),
    "nan": Rational1D([1.0, math.nan], [2.0]),
}


def test_catalog_has_every_rule_form():
    assert set(CATALOG_RULES) == {"heDu", "bigU", "smallS", "wqT", "wqU", "identity"}
    assert isinstance(CATALOG_RULES["wqU"], Piecewise1D)
    assert CATALOG_RULES["wqU"].left_closed


@pytest.mark.parametrize("name", sorted(CATALOG_RULES) + sorted(EXTRA_RULES))
def test_kernel_has_the_bits_of_the_rule(name):
    rule = CATALOG_RULES.get(name) or EXTRA_RULES[name]
    values = EDGES + _samples(len(name)) + _around(1.0) + _around(0.5)
    values += [-1.0 + d for d in (-1e-12, 0.0, 1e-12)]   # the heDu/bigU pole
    _assert_kernel_matches(rule, values)


@pytest.mark.parametrize("name", sorted(CATALOG_RULES) + sorted(EXTRA_RULES))
def test_array_kernel_has_the_bits_of_the_float_kernel(name):
    # elementwise over one array: the breakpoints (wqU closed at 1, the open
    # step at 0.5), NaN, +-0.0 and the heDu/bigU pole at -1 among the values
    rule = CATALOG_RULES.get(name) or EXTRA_RULES[name]
    values = EDGES + _samples(len(name)) + _around(1.0) + _around(0.5)
    values += [-1.0 + d for d in (-1e-12, 0.0, 1e-12)]
    kernel = rule.float_kernel()
    with np.errstate(all="ignore"):
        stacked = np.broadcast_to(rule.array_kernel()(np.array(values)), len(values))
    for v, got in zip(values, stacked.tolist()):
        want = _bits(kernel, v)
        if want is ZeroDivisionError:   # a pole: the array gives inf or NaN
            assert not math.isfinite(got), (rule, v)
        else:
            assert struct.pack("d", got) == want, (rule, v)


def test_kernel_raises_at_the_pole_like_the_rule():
    pole = Rational1D([1.0], [1.0, -1.0])
    with pytest.raises(ZeroDivisionError):
        pole(1.0)
    with pytest.raises(ZeroDivisionError):
        pole.float_kernel()(1.0)
    with pytest.raises(ZeroDivisionError):
        Relaxed1D(pole, 0.5).float_kernel()(1.0)
    assert pole.float_kernel()(3.0) == pole(3.0) == -0.5


def test_kernel_is_a_new_function_and_leaves_the_rule_unchanged():
    rule = Rational1D([2.0, 1.0], [3.0])
    first, second = rule.float_kernel(), rule.float_kernel()
    assert first is not second
    assert first(4.0) == second(4.0) == rule(4.0) == 2.0
    assert vars(rule) == {"num": (2.0, 1.0), "den": (3.0,)}


def test_kernel_of_a_high_degree_rule_has_the_bits_of_the_rule():
    # one statement per term: a degree far beyond any expression nesting
    # limit still compiles
    lcg = _Lcg(250)
    num = [2.0 * lcg.next_double() - 1.0 for _ in range(251)]
    den = [2.0 * lcg.next_double() - 1.0 for _ in range(300)]
    rule = Rational1D(num, den)
    values = EDGES + [v / 10.0 for v in _samples(7, count=50)] + _around(1.0)
    _assert_kernel_matches(rule, values)
    _assert_kernel_matches(Relaxed1D(rule, 0.25), values)
