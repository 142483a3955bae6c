"""Float and array kernels of scalar rules: the same IEEE operations as
the rule."""

import json
import math
import struct

import numpy as np
import pytest

from splitfp import config
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


# ---------------------------------------------------------------------------
# compiled power loops


def _iterated(kernel, v, n):
    """The float kernel applied up to n times, stopping once the image has
    the bits of v: the reference for ``power_kernel()``."""
    for _ in range(n):
        image = kernel(v)
        if struct.pack("d", image) == struct.pack("d", v):
            break
        v = image
    return v


def _assert_power_matches(rule, values, powers=(1, 2, 3, 5, 8, 60)):
    # at every power, so a pole raises at the same application
    kernel, power = rule.float_kernel(), rule.power_kernel()
    for v in values:
        for n in powers:
            assert _bits(lambda v: power(v, n), v) == _bits(
                lambda v: _iterated(kernel, v, n), v), (rule, v, n)


STEP_AT_HALF = Piecewise1D(0.5, Rational1D([-1.0, 2.0], [1.0]),
                           Rational1D([3.0, 0.0, -1.0], [1.0, 1.0]))
POWER_RULES = dict(
    CATALOG_RULES,
    **{"relaxed heDu": Relaxed1D(CATALOG_RULES["heDu"], 0.4),
       "closed step": STEP_AT_HALF,
       "open step": OPEN_STEP,
       "relaxed closed step": Relaxed1D(STEP_AT_HALF, 0.3),
       "relaxed open step": EXTRA_RULES["relaxed open step"]})


@pytest.mark.parametrize("name", sorted(POWER_RULES))
def test_power_kernel_has_the_bits_of_the_iterated_kernel(name):
    # the steps' breakpoint 0.5, wqU's at 1 and the heDu/bigU pole at -1,
    # each at and beside, among the values
    values = EDGES + _samples(len(name), count=60) + _around(1.0) + _around(0.5)
    values += _around(-1.0)
    _assert_power_matches(POWER_RULES[name], values)


def test_power_kernel_of_a_high_degree_rule_has_the_bits_of_the_iterated_kernel():
    lcg = _Lcg(250)
    num = [2.0 * lcg.next_double() - 1.0 for _ in range(251)]
    den = [2.0 * lcg.next_double() - 1.0 for _ in range(300)]
    rule = Rational1D(num, den)
    values = EDGES + [v / 10.0 for v in _samples(7, count=10)] + _around(1.0)
    _assert_power_matches(rule, values, powers=(1, 4, 30))
    _assert_power_matches(Relaxed1D(rule, 0.25), values, powers=(1, 4, 30))


def test_power_kernel_raises_at_the_pole_on_the_same_application():
    # 1/(1 - x): 0 maps to 1, its pole, so the second application raises
    pole = Rational1D([1.0], [1.0, -1.0])
    power = pole.power_kernel()
    assert power(0.0, 1) == 1.0
    for n in (2, 3, 50):
        with pytest.raises(ZeroDivisionError):
            power(0.0, n)
    with pytest.raises(ZeroDivisionError):
        Relaxed1D(pole, 0.5).power_kernel()(1.0, 1)


def test_power_kernel_keeps_signed_zeros_apart():
    # -0.0 == 0.0, so a value test would stop at the wrong-signed zero
    power = Rational1D([-0.0, -1.0]).power_kernel()
    assert struct.pack("d", power(0.0, 2)) == struct.pack("d", 0.0)
    assert struct.pack("d", power(0.0, 3)) == struct.pack("d", -0.0)


def test_power_kernel_stops_at_a_bitwise_fixed_point():
    # 0 * inf is NaN and 0 * NaN that NaN again; 1 is fixed by (x + 2)/3.
    # Without the exit, 10**12 applications would not end.
    vanish = Rational1D([0.0, 0.0]).power_kernel()
    want = _iterated(Rational1D([0.0, 0.0]).float_kernel(), math.inf, 3)
    assert math.isnan(want)
    assert struct.pack("d", vanish(math.inf, 10**12)) == struct.pack("d", want)
    assert CATALOG_RULES["wqT"].power_kernel()(4.0, 10**12) == 1.0


def test_checked_power_kernel_escapes_before_a_point_outside():
    # 3x^2 from 2 overflows to inf after 9 applications; the finiteness
    # check before the 10th raises, naming it, and a finite orbit is not
    # checked away
    rule = Rational1D([0.0, 0.0, 3.0])
    escapes = []

    def escape(i, n, v):
        escapes.append((i, n, v))
        return ValueError(i)

    checked = rule.power_kernel(math.isfinite, escape)
    assert checked(2.0, 9) == rule.power_kernel()(2.0, 9) == _iterated(
        rule.float_kernel(), 2.0, 9)
    assert not escapes
    with pytest.raises(ValueError):
        checked(2.0, 20)
    assert escapes == [(9, 20, math.inf)]
    # any test of v: 2 -> 12 -> 432 passes 100 before the third application
    with pytest.raises(ValueError):
        rule.power_kernel(lambda v: v < 100.0, escape)(2.0, 5)
    assert escapes[-1] == (2, 5, 432.0)


@pytest.mark.parametrize("rule", [CATALOG_RULES["heDu"], CATALOG_RULES["wqU"], OPEN_STEP],
                         ids=repr)
def test_a_rule_round_trips_through_its_config(rule):
    # a rule map's config, read back as an inline operator, holds an equal rule
    doc = rule.to_config()
    assert json.loads(json.dumps(doc)) == doc
    assert config._operator(doc, "T", {}).rule == rule


def test_a_piecewise_repr_shows_left_closed_only_where_it_is_false():
    # the two rules differ at the breakpoint, and so do their reprs
    left, right = Rational1D([0.0]), Rational1D([0.0, 2.0], [1.0, 1.0])
    closed = Piecewise1D(1.0, left, right)
    half_open = Piecewise1D(1.0, left, right, left_closed=False)
    assert (closed(1.0), half_open(1.0)) == (0.0, 1.0)
    assert repr(half_open) == repr(closed)[:-1] + ", left_closed=False)"
    names = {"Piecewise1D": Piecewise1D, "Rational1D": Rational1D}
    assert [eval(repr(rule), names) for rule in (closed, half_open)] == [closed, half_open]
    # the default repr is as it was, so no pytest id built from a catalog rule moves
    assert repr(closed) == repr(CATALOG_RULES["wqU"]) == (
        "Piecewise1D(breakpoint=1.0, left=Rational1D(num=[0.0], den=[1.0]), "
        "right=Rational1D(num=[0.0, 2.0], den=[1.0, 1.0]))")
