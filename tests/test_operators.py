"""Operator taxonomy, combinators, sampling verifiers, and the catalog."""

import dataclasses
import itertools
import math
import struct
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfp.diagnostics import find_fixed_points_1d
from splitfp import operators
from splitfp.operators import (
    AsymptoticallyNonexpansive,
    AsymptoticallyQuasiNonexpansive,
    ClassMismatch,
    ClassReport,
    Contraction,
    Demicontractive,
    DomainEscape,
    FixedPointMap,
    Gauge,
    Nonexpansive,
    QuasiNonexpansive,
    SequenceSpec,
    StrictlyPseudocontractive,
    Directed,
    FirmlyQuasiNonexpansive,
    StronglyMonotone,
    TotalAsymStrictPseudocontraction,
    TotalAsymptoticallyNonexpansive,
    TotalQuasiAsymptoticallyNonexpansive,
    _Lcg,
    class_from_token,
    convex_combine,
    map_from_rule,
    operator_catalog,
    power_apply,
    relax,
    shift_square_ball_map,
    verify_class,
)
from splitfp import projections
from splitfp.projections import Box, WholeSpace, contains, project
from splitfp.rules import Piecewise1D, Rational1D, Relaxed1D
from splitfp.spaces import DimensionMismatch, inner, norm, row_norms

from helpers import (full_orbit, full_orbits, power_apply_arrays, power_map,
                     sample_pair, sample_point, verify_class_rows)
from lemmas import (
    check_power_inequality_equivalences,
    strong_monotonicity_of_complement,
)


def affine_map(a, b, domain=None, **kw):
    """x -> (x + b)/a style helper via an explicit rational rule."""
    return map_from_rule(Rational1D([b, 1.0], [a]), domain or WholeSpace(1), **kw)


# ---------------------------------------------------------------------------
# sequences


def test_sequence_kinds():
    c = SequenceSpec.const(0.25)
    assert c(0) == 0.25 and c(999) == 0.25
    t = SequenceSpec.table([1.0, 2.0, 3.0], tail=7.0)
    assert t(1) == 2.0 and t(3) == 7.0 and t(300) == 7.0
    f = SequenceSpec.from_formula("1/(n+1)")
    assert f(0) == 1.0 and f(9) == 0.1
    g = SequenceSpec.from_formula("1+1/(n+1)^2")
    assert g(0) == 2.0
    with pytest.raises(ValueError):
        SequenceSpec.from_formula("n^2")
    with pytest.raises(ValueError):
        f(-1)


def test_sequence_config_round_trip():
    for seq in (SequenceSpec.const(0.5), SequenceSpec.table([1.0], 0.0),
                SequenceSpec.from_formula("1/(n+2)")):
        clone = SequenceSpec.from_config(seq.to_config())
        assert [clone(n) for n in range(5)] == [seq(n) for n in range(5)]



# exact value of each registry formula
EXACT_FORMULAS = {
    "1/(n+1)": lambda n: Fraction(1, n + 1),
    "1/(n+2)": lambda n: Fraction(1, n + 2),
    "1/(n+1)^2": lambda n: Fraction(1, (n + 1) ** 2),
    "1+1/(n+1)^2": lambda n: 1 + Fraction(1, (n + 1) ** 2),
}


# each registry formula in float64, as the registry wrote it before its
# terms were inlined
FLOAT_FORMULAS = {
    "1/(n+1)": lambda n: 1.0 / (n + 1),
    "1/(n+2)": lambda n: 1.0 / (n + 2),
    "1/(n+1)^2": lambda n: 1.0 / (n + 1) ** 2,
    "1+1/(n+1)^2": lambda n: 1.0 + 1.0 / (n + 1) ** 2,
}


def test_a_sequence_term_is_one_python_call():
    # a constant, a table on either side of where its tail starts, and every
    # registry formula: one call, with the bits of _eval(n, 1.0)
    assert sorted(FLOAT_FORMULAS) == sorted(SequenceSpec._FORMULAS)
    table = SequenceSpec.table([0.5, -0.0, 2.0], tail=0.125)
    cases = [(SequenceSpec.const(-0.0), lambda n: -0.0), (table, None)]
    cases += [(SequenceSpec.from_formula(name), f) for name, f in FLOAT_FORMULAS.items()]
    for seq, reference in cases:
        for n in [*range(60), 10**6, 10**9 + 7]:
            assert len(_python_calls(lambda: seq(n))) == 1, (seq, n)
            got = seq(n)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", seq._eval(n, 1.0)), (seq, n)
            if reference is not None:
                assert struct.pack("<d", got) == struct.pack("<d", reference(n)), (seq, n)
        with pytest.raises(ValueError, match=r"^sequence index must be >= 0$"):
            seq(-1)
    assert [table(n) for n in range(5)] == [0.5, -0.0, 2.0, 0.125, 0.125]
    assert math.copysign(1.0, table(1)) == -1.0


def test_formula_registry_matches_the_exact_values():
    assert sorted(EXACT_FORMULAS) == sorted(SequenceSpec._FORMULAS)
    for name, exact in EXACT_FORMULAS.items():
        seq = SequenceSpec.from_formula(name)
        for n in range(51):
            want = exact(n)
            got = seq(n)
            assert isinstance(got, float)
            assert abs(Fraction(got) - want) <= Fraction(2) ** -52 * want, (name, n)
            with localcontext() as ctx:
                ctx.prec = 30
                dec = seq.eval_decimal(n)
            assert isinstance(dec, Decimal)
            assert abs(Fraction(dec) - want) <= Fraction(1, 10 ** 25), (name, n)


# ---------------------------------------------------------------------------
# power_apply / relax / convex_combine


def test_power_apply_basics():
    T = affine_map(3.0, 2.0)  # (x+2)/3
    x = np.array([10.0])
    assert_allclose(power_apply(T, 1, x), T(x))
    # hand-iterating the affine map: 10 -> 4 -> 2 -> 4/3
    expected = Fraction(10)
    for _ in range(3):
        expected = (expected + 2) / 3
    assert expected == Fraction(4, 3)
    assert_allclose(power_apply(T, 3, x)[0], float(expected), rtol=1e-15)
    ident = operator_catalog()["identity"]
    for n in (1, 2, 17):
        assert power_apply(ident, n, np.array([0.3]))[0] == 0.3
    with pytest.raises(ValueError):
        power_apply(T, 0, x)


def test_power_apply_composition_law():
    T = map_from_rule(Rational1D([2.0, 0.0, 1.0], [1.0, 1.0]),
                      Box([0.0], [np.inf]))
    x = np.array([7.0])
    lhs = power_apply(T, 5, x)
    rhs = power_apply(T, 2, power_apply(T, 3, x))
    assert_allclose(lhs, rhs, rtol=0)


def test_power_apply_domain_escape():
    shift_down = map_from_rule(Rational1D([-5.0, 1.0], [1.0]),
                               Box([0.0], [np.inf]))
    with pytest.raises(DomainEscape) as exc:
        power_apply(shift_down, 3, np.array([2.0]))
    assert "application 2 of 3" in str(exc.value)


def test_power_apply_keeps_signed_zeros_apart():
    # -0.0 == 0.0, so a value test would stop at the wrong-signed zero
    flip = FixedPointMap(lambda x: -x, WholeSpace(2))
    got = power_apply(flip, 2, [0.0, 0.0])
    assert got.tobytes() == flip(flip(np.zeros(2))).tobytes() == np.zeros(2).tobytes()
    negate = map_from_rule(Rational1D([-0.0, -1.0]), WholeSpace(1))
    assert negate.kernel is not None   # the float loop, compiled from the rule
    assert power_apply(negate, 2, [0.0]).tobytes() == np.array([0.0]).tobytes()
    assert power_apply(negate, 3, [0.0]).tobytes() == np.array([-0.0]).tobytes()


def test_power_apply_stops_at_a_bitwise_fixed_nan():
    # x - x from inf: inf - inf is NaN, and NaN - NaN that NaN again; a NaN
    # is never == itself, so the scalar loop used to evaluate all 50 powers
    evaluations = []

    def vanish(x):
        evaluations.append(x)
        return x - x

    T = FixedPointMap(vanish, WholeSpace(1))
    with np.errstate(invalid="ignore"):
        want = power_apply_arrays(T, 50, np.array([np.inf]), check_domain=False)
        assert len(evaluations) == 2
        for x in (np.inf, np.array([np.inf])):
            evaluations.clear()
            got = power_apply(T, 50, x, check_domain=False)
            assert np.array(got).tobytes() == want.tobytes()
            assert len(evaluations) == 2


def _float_outcome(T, n, v, check_domain):
    """:func:`_outcome` of ``power_apply`` given the Python float v."""
    try:
        out = power_apply(T, n, v, check_domain=check_domain)
    except (DomainEscape, ZeroDivisionError, DimensionMismatch) as err:
        return type(err), str(err)
    assert type(out) is float
    return np.dtype(float), (1,), np.array([out]).tobytes()


def test_an_opaque_1d_map_powers_by_its_array_loop():
    # (x + 2)/3 without a rule, given a float or a one-element array: the
    # bits of the array reference and of wqT's compiled loop, with at most n
    # calls of eval_fn, and the same escape
    calls = []

    def third(x):
        calls.append(x)
        return (x + 2.0) / 3.0

    opaque = FixedPointMap(third, WholeSpace(1))
    wqT = map_from_rule(Rational1D([2.0, 1.0], [3.0]), WholeSpace(1))
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300,
              -1.0, 2.0, math.nextafter(1.0, -math.inf), 1.0, math.nextafter(1.0, math.inf)]
    escapes = 0
    for v in values:
        for n, check in itertools.product((1, 3, 60), (False, True)):
            want = _outcome(power_apply_arrays, opaque, n, [v], check)
            assert _outcome(power_apply, wqT, n, [v], check) == want, (v, n, check)
            calls.clear()
            assert _outcome(power_apply, opaque, n, [v], check) == want, (v, n, check)
            assert len(calls) <= n
            calls.clear()
            assert _float_outcome(opaque, n, v, check) == want, (v, n, check)
            assert len(calls) <= n
            escapes += want[0] is DomainEscape
    assert escapes > 0
    with pytest.raises(DomainEscape, match=r"before application 1 of 2: \[inf\]$"):
        power_apply(opaque, 2, math.inf)


def test_an_opaque_1d_power_stops_at_the_first_bitwise_fixed_image():
    # x - x from inf is NaN, and NaN - NaN that NaN again; -x never fixes
    # +-0.0, which == each other; (x + 2)/3 from 4 reaches 1 long before
    # 10**6 applications
    for f, v, n, applications in ((lambda x: x - x, math.inf, 50, 2),
                                  (lambda x: -x, 0.0, 50, 50),
                                  (lambda x: (x + 2.0) / 3.0, 4.0, 10**6, 36)):
        calls = []
        T = FixedPointMap(lambda x: calls.append(x) or f(x), WholeSpace(1))
        with np.errstate(invalid="ignore"):
            want = power_apply_arrays(T, n, np.array([v]), check_domain=False)
            calls.clear()
            got = power_apply(T, n, v, check_domain=False)
        assert np.array([got]).tobytes() == want.tobytes()
        assert len(calls) == applications
    assert got == 1.0


def _python_calls(f):
    """The names of the Python functions f() calls, in order (f not among them)."""
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        f()
    finally:
        sys.setprofile(None)
    return calls[1:]


def test_a_rule_map_powers_by_its_compiled_loop():
    # on a whole line, checked or not, and on any domain unchecked, the power
    # is one call of the rule's compiled loop, not one call per application;
    # a checked power on another domain, and an opaque map, call per application
    line = map_from_rule(Rational1D([2.0, 1.0], [3.0]), WholeSpace(1))
    ray = map_from_rule(Rational1D([2.0, 1.0], [3.0]), Box([0.0], [np.inf]))
    opaque = FixedPointMap(lambda x: (x + 2.0) / 3.0, WholeSpace(1))
    for T, check in ((line, True), (line, False), (ray, False)):
        power_apply(T, 1, 4.0)   # the first power compiles the map's loops
        assert _python_calls(lambda: power_apply(T, 30, 4.0, check)) == [
            "power_apply", "power"]
        assert power_apply(T, 30, 4.0, check) == power_apply_arrays(
            T, 30, np.array([4.0]), check).item()
    for T, check in ((ray, True), (opaque, True), (opaque, False)):
        assert len(_python_calls(lambda: power_apply(T, 30, 4.0, check))) > 30


def test_compiled_power_escapes_the_line_at_the_same_application():
    # 3x^2 from 2 overflows to inf; the whole line holds only finite points.
    # A one-element array runs the map's float loop too.
    for T in (map_from_rule(Rational1D([0.0, 0.0, 3.0]), WholeSpace(1)),
              relax(map_from_rule(Rational1D([0.0, 0.0, 3.0]), WholeSpace(1)), 0.5)):
        escapes = 0
        for n in range(1, 40):
            want = _outcome(power_apply_arrays, T, n, np.array([2.0]), True)
            assert _outcome(power_apply, T, n, np.array([2.0]), True) == want, n
            escapes += want[0] is DomainEscape
        assert escapes > 0


def test_a_rule_map_refuses_a_point_of_more_than_one_entry():
    # its default eval_fn reads its rule at one entry, and drops none
    wqT = operator_catalog()["wqT"]
    one_entry = r"^point of shape \(2,\) does not match map dimension 1$"
    with pytest.raises(DimensionMismatch, match=one_entry):
        wqT(np.array([1.0, 4.0]))
    with pytest.raises(DimensionMismatch, match=one_entry):
        power_apply(wqT, 3, np.array([1.0, 2.0]), check_domain=False)
    with pytest.raises(DimensionMismatch,
                       match="^point dimension 2 does not match set dimension 1$"):
        power_apply(wqT, 3, np.array([1.0, 2.0]))


def test_a_rule_map_needs_a_1d_domain():
    with pytest.raises(ValueError, match="a rule map is 1-D, but its domain has "
                                         "dimension 2"):
        map_from_rule(Rational1D([0.0, 0.5]), Box([0.0, 0.0], [1.0, 1.0]))


def _outcome(power, T, n, x, check_domain):
    try:
        out = power(T, n, x, check_domain=check_domain)
    except (DomainEscape, ZeroDivisionError, DimensionMismatch) as err:
        return type(err), str(err)
    return out.dtype, out.shape, out.tobytes()   # bits: tells -0.0 and NaNs apart


RULE_MAPS = ("heDu", "bigU", "smallS", "wqT", "wqU", "identity")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", RULE_MAPS + ("relax(wqT, 0.3)", "browderPetryshyn",
                                              "wqT^2"))
def test_power_apply_scalar_loop_matches_array_loop(name):
    # rule maps, on their compiled float loop, and opaque 1-D maps, on the
    # array loop
    cat = operator_catalog()
    T = {"relax(wqT, 0.3)": lambda: relax(cat["wqT"], 0.3),
         "wqT^2": lambda: power_map(cat["wqT"], 2)}.get(name, lambda: cat[name])()
    lcg = _Lcg(7)
    # seeded starts over [-2, 10) (negatives leave the nonnegative domains),
    # signed zeros, non-finite values, the pole -1 of heDu/bigU, the wqU
    # breakpoint and the catalog fixed points
    starts = [12.0 * lcg.next_double() - 2.0 for _ in range(6)]
    starts += [0.0, -0.0, np.nan, np.inf, -np.inf, -1.0, 1.0, 1.25, 2.0, 5.0]
    escapes = 0
    for x in starts:
        for check_domain in (True, False):
            for n in range(1, 61):
                want = _outcome(power_apply_arrays, T, n, [x], check_domain)
                assert _outcome(power_apply, T, n, [x], check_domain) == want, \
                    (x, check_domain, n)
                escapes += want[0] is DomainEscape
    assert escapes > 0


# d > 1 maps for the array loop; each image is a new array
VECTOR_MAPS = {
    "flip": lambda x: -x,                      # flips signed zeros, never settles
    "halve": lambda x: 0.5 * x,                # settles on a bitwise-fixed zero
    "expand": lambda x: 2.0 * x + 1.0,         # leaves a ball, overflows to inf
    "cancel": lambda x: x - x,                 # inf - inf is NaN
    "swap": lambda x: np.array([-x[1], x[0], *x[2:]]),   # moves -0.0 between entries
    "grow": lambda x: np.append(x, -0.0),      # the image has one entry more
}
VECTOR_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -2.5, 1e308, 5e-324]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("domain", ["whole", "ball"])
@pytest.mark.parametrize("name", sorted(VECTOR_MAPS))
def test_power_apply_array_loop_matches_the_reference(name, domain, d):
    S = WholeSpace(d) if domain == "whole" else projections.Ball(np.full(d, 0.5), 3.0)
    T = FixedPointMap(VECTOR_MAPS[name], S)
    kinds = set()
    for k, pair in enumerate(itertools.product(VECTOR_VALUES, repeat=2)):
        x = np.array(pair + (VECTOR_VALUES[k % 9],) * (d - 2))
        for check_domain in (True, False):
            for n in (1, 2, 3, 5, 8):
                with np.errstate(all="ignore"):
                    want = _outcome(power_apply_arrays, T, n, x, check_domain)
                    got = _outcome(power_apply, T, n, x, check_domain)
                assert got == want, (x, check_domain, n)
                kinds.add(want[0])
    assert DomainEscape in kinds     # a NaN start leaves every domain
    assert (DimensionMismatch in kinds) == (name == "grow")


# d > 1 maps whose image is not a float64 vector: a list, which the loop
# makes an array as T.__call__ does, and a row of the same bytes, which is
# not bitwise fixed and then leaves the domain's shape
ODD_IMAGE_MAPS = {
    "list": lambda x: [-x[1], 0.5 * x[0]],
    "row": lambda x: x.reshape(1, -1),
}


@pytest.mark.parametrize("domain", ["whole", "ball"])
@pytest.mark.parametrize("name", sorted(ODD_IMAGE_MAPS))
def test_power_apply_array_loop_takes_an_odd_image(name, domain):
    S = WholeSpace(2) if domain == "whole" else projections.Ball(np.zeros(2), 3.0)
    T = FixedPointMap(ODD_IMAGE_MAPS[name], S)
    kinds = set()
    for pair in itertools.product(VECTOR_VALUES, repeat=2):
        for check_domain in (True, False):
            for n in (1, 2, 3, 8):
                with np.errstate(all="ignore"):
                    want = _outcome(power_apply_arrays, T, n, np.array(pair), check_domain)
                    got = _outcome(power_apply, T, n, np.array(pair), check_domain)
                assert got == want, (pair, check_domain, n)
                kinds.add(want[0])
    assert (DimensionMismatch in kinds) == (name == "row")
    assert np.dtype(np.float64) in kinds


def test_power_apply_never_goes_through_call(monkeypatch):
    # every 1-D map has a ``kernel``: catalog maps and relaxed rule-backed
    # maps their rule's, an opaque closure map its eval_fn on a 1-element
    # array.  A rule map powers by its compiled loop, every other map, 1-D
    # or not, iterates its eval_fn, and no power goes through __call__
    cat = operator_catalog()
    wqT = cat["wqT"]
    relaxed = relax(wqT, 0.3)
    closure = power_map(wqT, 2)
    assert relaxed.rule == Relaxed1D(wqT.rule, 0.3)
    assert closure.rule is None and closure.kernel is not None
    assert cat["scaledNeg"].kernel is None
    want = power_apply(closure, 5, np.array([4.0])).tobytes()
    calls = []
    original = FixedPointMap.__call__

    def counting(self, x):
        calls.append(self.name)
        return original(self, x)

    neg = cat["scaledNeg"]
    want_neg = power_apply_arrays(neg, 5, np.ones(3)).tobytes()
    evals = []
    eval_fn = neg.eval_fn
    neg.eval_fn = lambda x: evals.append(x) or eval_fn(x)   # before its first power
    monkeypatch.setattr(FixedPointMap, "__call__", counting)
    for T in (wqT, relaxed, cat["wqU"], cat["browderPetryshyn"]):
        power_apply(T, 5, np.array([0.75]))
    assert power_apply(closure, 5, np.array([4.0])).tobytes() == want
    assert power_apply(closure, 5, 4.0) == np.frombuffer(want)[0]
    assert power_apply(neg, 5, np.ones(3)).tobytes() == want_neg
    assert calls == []
    assert len(evals) == 5


def test_power_apply_scalar_loop_calls_the_kernel_not_the_rule(monkeypatch):
    cat = operator_catalog()
    maps = [cat["wqT"], cat["wqU"], relax(cat["heDu"], 0.4)]
    want = [power_apply(T, 30, np.array([4.0])).tobytes() for T in maps]

    def refuse(self, v):
        raise AssertionError("the power loop called a rule")

    monkeypatch.setattr(Rational1D, "__call__", refuse)
    monkeypatch.setattr(Piecewise1D, "__call__", refuse)
    monkeypatch.setattr(Relaxed1D, "__call__", refuse)
    assert [power_apply(T, 30, np.array([4.0])).tobytes() for T in maps] == want
    assert [T(np.array([4.0])).tobytes() for T in maps] == [
        np.array([T.kernel(4.0)]).tobytes() for T in maps]


def test_a_map_given_a_rule_compiles_its_kernel(monkeypatch):
    # the map compiles the kernel from ``rule`` itself, so a map built with a
    # rule and its own eval_fn still takes the scalar loop
    rule = Rational1D([2.0, 1.0], [3.0])
    T = FixedPointMap(lambda x: np.array([rule(float(x[0]))]), WholeSpace(1),
                      rule=rule)
    built = map_from_rule(rule, WholeSpace(1))
    assert T.kernel is not None and built.kernel is not None
    assert T.kernel(4.0) == built.kernel(4.0) == rule(4.0) == 2.0
    want = power_apply(built, 7, np.array([4.0])).tobytes()

    def refuse(self, x):
        raise AssertionError("the scalar loop called the map")

    monkeypatch.setattr(FixedPointMap, "__call__", refuse)
    assert power_apply(T, 7, np.array([4.0])).tobytes() == want
    with pytest.raises(ValueError, match="eval_fn or a rule"):
        FixedPointMap(None, WholeSpace(1))


def test_power_apply_on_the_whole_space_checks_without_projecting(monkeypatch):
    # membership in the whole space is finiteness of every entry, so the
    # array loop checks the domain before each application without projecting
    calls = []
    real = projections.project

    def counting(S, x):
        calls.append(S)
        return real(S, x)

    monkeypatch.setattr(projections, "project", counting)
    turn = np.array([[0.6, -0.8], [0.8, 0.6]])
    T = FixedPointMap(lambda x: turn @ x, WholeSpace(2), name="turn")
    x = np.array([1.0, 2.0])
    assert power_apply(T, 40, x, check_domain=True).tobytes() == \
        power_apply(T, 40, x, check_domain=False).tobytes()
    assert calls == []
    boxed = FixedPointMap(lambda x: turn @ x, Box([-5.0, -5.0], [5.0, 5.0]))
    power_apply(boxed, 3, x)
    assert len(calls) == 3      # the counter sees the projections of a box

    blowup = FixedPointMap(lambda x: 1e200 * x, WholeSpace(2), name="blowup")
    with np.errstate(over="ignore"), pytest.raises(DomainEscape) as exc:
        power_apply(blowup, 5, np.array([1e200, -3.0]))
    assert str(exc.value) == ("iterate left the domain before application 2 of 5: "
                              "[inf, -3e+200]")
    with pytest.raises(DimensionMismatch):
        contains(WholeSpace(2), np.zeros(3))


def test_whole_space_membership_matches_the_projection_test():
    plane = WholeSpace(2)
    points = [[0.0, -0.0], [1e308, -1e308], [5e-324, 3.0], [np.nan, 0.0],
              [np.inf, 1.0], [-np.inf, np.nan]]
    with np.errstate(invalid="ignore"):
        for p in points:
            p = np.array(p)
            for tol in (1e-10, 0.0, -1.0):
                assert contains(plane, p, tol) is \
                    (norm(project(plane, p) - p) <= tol), (p, tol)



@pytest.mark.parametrize("name, alpha", [("wqT", 0.3), ("wqU", 1.0 / 3.0),
                                         ("heDu", 0.4)])
def test_relaxed_rule_map_rounds_as_the_array_form(name, alpha):
    # Relaxed1D performs the operations of (1 - a) x + a T(x) on arrays
    T = operator_catalog()[name]
    R = relax(T, alpha)
    lcg = _Lcg(3)
    for v in [20.0 * lcg.next_double() for _ in range(200)] + [0.0, 1.0, 2.0]:
        x = np.array([v])
        assert R(x).tobytes() == ((1.0 - alpha) * x + alpha * T(x)).tobytes(), v


def test_relax_computes_in_float64_for_a_float32_weight():
    T = operator_catalog()["wqT"]
    a = float(np.float32(0.3))
    x = np.array([4.0])
    want = ((1 - a) * x + a * T(x)).tobytes()
    assert relax(T, np.float32(0.3))(x).tobytes() == want
    # the same map without a rule takes the array form
    bare = FixedPointMap(lambda v: (v + 2.0) / 3.0, T.domain)
    assert relax(bare, np.float32(0.3))(x).tobytes() == want


def test_relaxed_rule_keeps_a_python_float_weight():
    # so its float kernel returns a Python float, as power_apply's scalar
    # loop and the float lane expect
    r = Relaxed1D(Rational1D([2.0, 1.0], [3.0]), np.float64(0.3))
    assert type(r.alpha) is float and type(r.float_kernel()(4.0)) is float


def test_rules_sequences_and_gauges_are_immutable():
    r = Rational1D([2.0, 1.0], [3.0])
    for obj, attr in ((r, "num"), (Piecewise1D(1.0, r, r), "breakpoint"),
                      (Relaxed1D(r, 0.5), "alpha"),
                      (SequenceSpec.const(0.5), "constant"),
                      (Gauge(), "c")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, 0.0)
    r.eval_decimal(Decimal(2))
    assert vars(r) == {"num": (2.0, 1.0), "den": (3.0,)}


def test_relax_alpha_one_is_same_map():
    T = affine_map(3.0, 2.0)
    assert relax(T, 1.0) is T
    with pytest.raises(ValueError):
        relax(T, 0.0)
    with pytest.raises(ValueError):
        relax(T, 1.5)


def test_relax_preserves_fixed_points():
    T = affine_map(3.0, 2.0, declared_class=QuasiNonexpansive(),
                   known_fixed_points=([1.0],))
    R = relax(T, 0.37)
    assert norm(R(np.array([1.0])) - 1.0) <= 1e-12
    assert isinstance(R.declared_class, QuasiNonexpansive)


def test_relax_rational_branch_value():
    # (2x/(x+1)) relaxed with weight 1/3 at x = 5: 2*5/3 + 2*5/(3*6) = 35/9
    U = map_from_rule(Rational1D([0.0, 2.0], [1.0, 1.0]), Box([0.0], [np.inf]))
    R = relax(U, 1.0 / 3.0)
    assert_allclose(R(np.array([5.0]))[0], 35.0 / 9.0, rtol=1e-14)
    # the folded rule agrees with the lambda evaluation
    assert R.rule is not None
    assert_allclose(R.rule(5.0), 35.0 / 9.0, rtol=1e-14)


def test_convex_combine_degenerate_cases():
    T = affine_map(3.0, 2.0)
    assert convex_combine([T], [1.0]) is T
    C = convex_combine([T, T], [0.5, 0.5])
    for v in (0.0, 4.0, 11.0):
        assert_allclose(C(np.array([v])), T(np.array([v])), rtol=1e-15)


def test_convex_combine_common_fixed_point():
    ident = map_from_rule(Rational1D([0.0, 1.0], [1.0]), WholeSpace(1),
                          declared_class=QuasiNonexpansive(),
                          known_fixed_points=([1.0],))
    T = affine_map(3.0, 2.0, declared_class=QuasiNonexpansive(),
                   known_fixed_points=([1.0],))
    C = convex_combine([ident, T], [0.5, 0.5])
    assert C(np.array([1.0]))[0] == 1.0
    assert isinstance(C.declared_class, QuasiNonexpansive)


def test_convex_combine_weight_validation():
    T = affine_map(3.0, 2.0)
    with pytest.raises(ValueError):
        convex_combine([], [])
    with pytest.raises(ValueError):
        convex_combine([T, T], [0.7, 0.2])
    with pytest.raises(ValueError):
        convex_combine([T, T], [1.2, -0.2])


def test_convex_combination_contracts_toward_common_fixed_point():
    # ||C(x) - p|| <= ||x - p|| whenever every member is quasi-nonexpansive
    # and p is fixed by all of them
    cat = operator_catalog()
    C = convex_combine([cat["wqT"], relax(cat["wqT"], 0.5)], [0.25, 0.75])
    p = np.array([1.0])
    rng = np.random.default_rng(77)
    for _ in range(1000):
        x = np.array([rng.uniform(0.0, 20.0)])
        assert norm(C(x) - p) <= norm(x - p) + 1e-12
    assert isinstance(C.declared_class, QuasiNonexpansive)


def test_relaxation_verifies_quasi_nonexpansive():
    heDu = operator_catalog()["heDu"]
    relaxed = relax(heDu, 0.4)
    report = verify_class(relaxed, QuasiNonexpansive(), samples=1000, seed=6)
    assert report.passed


def test_combined_fixed_set_matches_intersection_on_grid():
    # detected fixed set of the average == intersection of the members'
    # fixed sets, up to grid resolution (checked on [0, 10])
    T1 = map_from_rule(Rational1D([2.0, 1.0], [3.0]), Box([0.0], [np.inf]),
                       declared_class=QuasiNonexpansive(),
                       known_fixed_points=([1.0],))
    T2 = map_from_rule(Rational1D([0.0, 2.0], [1.0, 1.0]), Box([0.0], [np.inf]))
    C = convex_combine([T1, T2], [0.5, 0.5])
    xs = np.linspace(0.0, 10.0, 10001)  # step 1e-3, so 1.0 is a grid point
    detected = {round(x, 3) for x in xs
                if abs(C(np.array([x]))[0] - x) <= 1e-8}
    scan1 = find_fixed_points_1d(T1, (0.0, 10.0), grid=10001)
    scan2 = find_fixed_points_1d(T2, (0.0, 10.0), grid=10001)
    common = {round(r1, 3) for r1 in scan1.roots
              if any(abs(r1 - r2) < 1e-3 for r2 in scan2.roots)}
    assert detected == common == {1.0}


# ---------------------------------------------------------------------------
# verify_class


def test_verify_quasi_nonexpansive_passes_for_catalog_map():
    heDu = operator_catalog()["heDu"]
    report = verify_class(heDu, QuasiNonexpansive(), samples=500, seed=1)
    assert report.passed


def test_verify_nonexpansive_fails_with_witness():
    heDu = operator_catalog()["heDu"]
    report = verify_class(heDu, Nonexpansive(), samples=1000, seed=1)
    assert not report.passed
    worst = report.violations[0]
    assert worst.lhs > worst.rhs  # both sides reported


def test_a_report_builds_its_records_only_when_they_are_read(monkeypatch):
    heDu = operator_catalog()["heDu"]
    built, record = [], operators.CheckRecord
    monkeypatch.setattr(operators, "CheckRecord",
                        lambda *fields: built.append(fields[0]) or record(*fields))
    report = verify_class(heDu, QuasiNonexpansive(), samples=300, seed=4)
    assert report.passed and report.violations == []
    report.to_text()
    assert built == []   # the verdict, the violations and the text read columns
    records = report.records
    assert built == list(range(300))
    want = verify_class_rows(heDu, QuasiNonexpansive(), samples=300, seed=4)
    assert records == want.records and want.violations == []
    # a failing report builds a record for each failing sample only
    del built[:]
    report = verify_class(heDu, Nonexpansive(), samples=1000, seed=4)
    violations = report.violations
    assert len(violations) == len(built) == 9
    assert built == [r.index for r in violations]
    want = verify_class_rows(heDu, Nonexpansive(), samples=1000, seed=4)
    assert violations == want.violations
    assert report.records == want.records


def test_verify_requires_fixed_points():
    bare = affine_map(3.0, 2.0)
    with pytest.raises(ClassMismatch):
        verify_class(bare, QuasiNonexpansive(), samples=10, seed=1)


def test_scaled_negation_demicontractive_constant():
    # ||Tx||^2 = 6.25 ||x||^2 and ||x - Tx||^2 = 12.25 ||x||^2, so the
    # least admissible constant solves 6.25 = 1 + 12.25 k: k = 3/7
    T = operator_catalog()["scaledNeg"]
    x = np.array([1.0, -2.0, 0.5])
    assert_allclose(norm(T(x)) ** 2, 6.25 * norm(x) ** 2, rtol=1e-14)
    assert_allclose(norm(T(x) - x) ** 2, 12.25 * norm(x) ** 2, rtol=1e-14)
    assert verify_class(T, Demicontractive(3.0 / 7.0), samples=400, seed=2).passed
    report = verify_class(T, Demicontractive(0.42), samples=400, seed=2)
    assert not report.passed


def test_sine_map_strict_pseudocontraction_witness():
    # the analytic witness pair: lhs 256/(81 pi^2) exceeds the k -> 1 bound
    # 160/(81 pi^2), so the class fails for every admissible k
    T = operator_catalog()["browderPetryshyn"]
    x, z = 2.0 / math.pi, 2.0 / (3.0 * math.pi)
    report = verify_class(
        T, StrictlyPseudocontractive(0.99), samples=1, seed=1,
        extra_pairs=[([x], [z])],
    )
    witness = report.records[0]
    assert not witness.passed
    assert_allclose(witness.lhs, 256.0 / (81.0 * math.pi ** 2), rtol=1e-12)
    bound_at_one = 160.0 / (81.0 * math.pi ** 2)
    assert witness.lhs > bound_at_one > witness.rhs
    # and it is demicontractive for any k, including k = 0
    assert verify_class(T, Demicontractive(0.0), samples=1000, seed=1).passed


# (a class built from a sequence out of range at some n >= 1, its message)
OUT_OF_RANGE_SEQUENCES = [
    (lambda: TotalQuasiAsymptoticallyNonexpansive(
        SequenceSpec.table([0.0] * 60 + [-1.0], 0.0), SequenceSpec.const(0.0), Gauge()),
     "v_n must be nonnegative (n=60)"),
    (lambda: AsymptoticallyNonexpansive(SequenceSpec.table([1.0] * 60 + [0.5], 1.0)),
     "AsymptoticallyNonexpansive k_n must be >= 1 (n=60 gives 0.5)"),
    # a tail past the table, a formula from n = 1 on, and a constant
    (lambda: TotalAsymptoticallyNonexpansive(
        SequenceSpec.const(0.0), SequenceSpec.table([0.0] * 3, -0.5), Gauge()),
     "mu_n must be nonnegative (n=3)"),
    (lambda: AsymptoticallyQuasiNonexpansive(SequenceSpec.from_formula("1/(n+1)")),
     "AsymptoticallyQuasiNonexpansive t_n must be >= 1 (n=1 gives 0.5)"),
    (lambda: TotalAsymStrictPseudocontraction(
        0.0, SequenceSpec.const(0.0), SequenceSpec.const(-1e-300), Gauge()),
     "xi_n must be nonnegative (n=1)"),
]


@pytest.mark.parametrize("make, message", OUT_OF_RANGE_SEQUENCES,
                         ids=[message for _, message in OUT_OF_RANGE_SEQUENCES])
def test_a_class_sequence_is_checked_at_every_power(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_a_class_sequence_is_not_checked_before_the_first_power():
    # powers start at n = 1, so a table's entry 0 is never read, and the
    # sequences a class implies (k_n^2, then t_n - 1) are in range with it
    k = SequenceSpec.table([0.0, 1.5, 1.0], 1.0)
    cls = AsymptoticallyNonexpansive(k)
    assert [c.__class__.__name__ for c in cls.implied()] == [
        "AsymptoticallyNonexpansive", "AsymptoticallyQuasiNonexpansive",
        "TotalQuasiAsymptoticallyNonexpansive"]
    assert [cls.total_quasi.v_seq(n) for n in range(1, 4)] == [1.25, 0.0, 0.0]


def test_identity_passes_zero_parameter_classes():
    ident = operator_catalog()["identity"]
    from splitfp.operators import (
        AsymptoticallyNonexpansive,
        AsymptoticallyQuasiNonexpansive,
        Directed,
        FirmlyQuasiNonexpansive,
        Gauge,
        Lipschitzian,
        StronglyMonotone,
        TotalAsymStrictPseudocontraction,
        TotalAsymptoticallyNonexpansive,
        TotalQuasiAsymptoticallyNonexpansive,
        UniformlyLipschitzian,
    )
    one = SequenceSpec.const(1.0)
    zero = SequenceSpec.const(0.0)
    classes = [
        Nonexpansive(),
        QuasiNonexpansive(),
        FirmlyQuasiNonexpansive(),
        Demicontractive(0.0),
        StrictlyPseudocontractive(0.0),
        Directed(),
        AsymptoticallyNonexpansive(one),
        AsymptoticallyQuasiNonexpansive(one),
        TotalAsymptoticallyNonexpansive(zero, zero, Gauge()),
        TotalQuasiAsymptoticallyNonexpansive(zero, zero, Gauge()),
        TotalAsymStrictPseudocontraction(0.0, zero, zero, Gauge()),
        Lipschitzian(1.0),
        UniformlyLipschitzian(1.0),
        StronglyMonotone(1.0),
    ]
    for cls in classes:
        assert verify_class(ident, cls, samples=200, seed=3).passed, cls


def test_a_box_beyond_the_sampling_window_is_sampled_near_its_nearest_end():
    # the window [-10, 10] misses the box: the samples re-centre on the
    # box's end nearest the window, over at most 2 * scale
    assert operators._sample_interval(20.0, 30.0, 0.5, 10.0) == 25.0
    assert operators._sample_interval(20.0, 100.0, 0.5, 10.0) == 30.0
    assert operators._sample_interval(-30.0, -20.0, 0.5, 10.0) == -25.0
    assert operators._sample_interval(-100.0, -20.0, 0.5, 10.0) == -30.0


def test_a_near_pair_with_a_zero_direction_steps_along_the_first_axis():
    # this LCG state draws exactly 0.5 second, so the direction 2u - 1 is 0,
    # and z steps the first near offset, 1e-1 * scale, along the first axis
    state = 10050053534331647390
    first = _Lcg(state).next_double()
    x, z = sample_pair(WholeSpace(1), _Lcg(state), 1, 10.0)
    assert x.tolist() == [-10.0 + 20.0 * first]
    assert z.tolist() == [x[0] + 1.0]
    # the block sampler reaches that state after pair 0's two doubles: two
    # LCG steps back from it, pair 1 is that near pair
    inverse = pow(_Lcg.A, -1, 1 << 64)
    for _ in range(2):
        state = ((state - _Lcg.C) * inverse) & _Lcg.MASK
    X, Z = operators._sample_pairs(WholeSpace(1), _Lcg(state), 2, 10.0)
    assert X[1].tolist() == x.tolist() and Z[1].tolist() == z.tolist()
    lcg = _Lcg(state)
    pairs = [sample_pair(WholeSpace(1), lcg, i, 10.0) for i in range(2)]
    assert np.array(pairs).tobytes() == np.stack([X, Z], 1).tobytes()


# ---------------------------------------------------------------------------
# block draws, block sampling and stacked projection


@pytest.mark.parametrize("k", [0, 1, 2, 3, 1000, 8000])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 12345, 10050053534331647390])
def test_block_draws_have_the_bits_and_state_of_single_draws(seed, k):
    one, block = _Lcg(seed), _Lcg(seed)
    want = np.array([one.next_double() for _ in range(k)], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # uint64 products wrap without a warning
        got = block.next_doubles(k)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert block.state == one.state
    # the stream goes on from the state a block leaves
    assert block.next_doubles(3).tolist() == [one.next_double() for _ in range(3)]


def _rows_project(body, X):
    with np.errstate(all="ignore"):   # project warns on NaN and inf rows
        return np.array([project(body, row) for row in X]).reshape(X.shape)


@pytest.mark.parametrize("body", [
    projections.Ball([1.0, -2.0, 0.5], 2.0),
    projections.Ball([1.0, -2.0, 0.5], 0.0),
    projections.Ball([1.0, -2.0, 0.5], math.inf),
    projections.Ball([0.0, 0.0, 0.0], 1e-300),
    projections.Ball([1.0, math.nan, 0.5], 2.0),
    Box([-1.0, -math.inf, 0.0], [1.0, 2.0, math.inf]),
    WholeSpace(3),
], ids=repr)
def test_stacked_projection_has_the_bits_of_project(body):
    rows = [[1.0, -2.0, 0.5],        # the centre
            [3.0, -2.0, 0.5],        # on the sphere of radius 2
            [1.5, -1.0, 0.0],        # inside
            [-0.0, 0.0, -0.0],
            [7.0, 4.0, -3.0],        # outside
            [math.nan, 0.0, 1.0],
            [math.inf, 0.0, 1.0],
            [-math.inf, 1.0, math.inf],
            [1e200, -3e199, 1.0],    # a.a overflows: the scaled norm
            [-1e200, 1e200, 1e200]]
    X = np.array(rows + [list(r) for r in _seeded_rows(3, 50, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project(body, X)
    assert got.shape == X.shape
    assert got.tobytes() == _rows_project(body, X).tobytes()
    assert project(body, X[:0]).shape == (0, 3)


def test_stacked_projection_onto_an_empty_box_raises_as_project_does():
    empty = Box([math.inf], [math.inf])
    with pytest.raises(projections.InfeasibleIntersection, match="is empty"):
        project(empty, np.array([1.0]))
    with pytest.raises(projections.InfeasibleIntersection, match="is empty"):
        project(empty, np.array([[1.0], [2.0]]))


@pytest.mark.parametrize("body", [
    Box([-1.0, 20.0], [1.0, 30.0]),
    projections.Ball([0.0, 3.0], 1.5),
    WholeSpace(2),
    projections.Intersection([projections.Ball([0.0, 0.0], 4.0), Box([-1.0, -5.0],
                                                                      [5.0, 5.0])]),
], ids=repr)
def test_block_sampling_has_the_bits_of_drawing_one_at_a_time(body):
    # pairs alternate far and near over all four near offsets
    for count in (0, 1, 2, 9):
        lcg, one = _Lcg(count + 3), _Lcg(count + 3)
        X, Z = operators._sample_pairs(body, lcg, count, 10.0)
        want = [sample_pair(body, one, i, 10.0) for i in range(count)]
        assert X.shape == Z.shape == (count, 2)
        assert X.tobytes() == np.array([x for x, _ in want]).tobytes()
        assert Z.tobytes() == np.array([z for _, z in want]).tobytes()
        assert lcg.state == one.state
        P = operators._sample_points(body, lcg, count, 10.0)
        assert P.tobytes() == np.array([sample_point(body, one) for _ in range(count)]).tobytes()
        assert lcg.state == one.state


def test_verify_on_an_intersection_projects_row_by_row(monkeypatch):
    # a domain neither a box, a ball nor the whole space takes the row loop
    # of project, and gives the records of the one-at-a-time verifier
    domain = projections.Intersection([projections.Ball([0.0, 0.0], 4.0),
                                       Box([-1.0, -5.0], [5.0, 5.0])])
    T = FixedPointMap(lambda x: 0.5 * x, domain, known_fixed_points=([0.0, 0.0],))
    calls = []
    one_row = projections.Intersection._project
    monkeypatch.setattr(projections.Intersection, "_project",
                        lambda body, x: calls.append(x.shape) or one_row(body, x))
    for cls, per_sample in ((Nonexpansive(), 2), (QuasiNonexpansive(), 1)):
        del calls[:]
        got = verify_class(T, cls, samples=40, seed=6)
        assert calls == [(2,)] * (per_sample * 40)
        want = verify_class_rows(T, cls, samples=40, seed=6)
        assert got.records == want.records
        assert got.to_text() == want.to_text()


@pytest.mark.parametrize("name", ["ballMap", "scaledNeg"])
def test_a_rowwise_map_evaluates_a_stack_in_one_call_with_the_bits_of_each_row(name):
    T = operator_catalog()[name]
    assert T.rowwise
    calls = []
    counted = FixedPointMap(lambda x: calls.append(1) or T.eval_fn(x), T.domain,
                            rowwise=True)
    X = np.concatenate([_seeded_rows(11, 5000, T.dim),
                        [[0.0] * T.dim, [-0.0] * T.dim, [math.nan] * T.dim]])
    got = counted._stack(X)
    assert len(calls) == 1
    assert got.tobytes() == np.array([T(x) for x in X]).tobytes()
    if name == "ballMap":
        # x1^2 is libm pow, as on a single point; x1 * x1 rounds otherwise
        assert (got[:, 1] != X[:, 0] * X[:, 0]).any()


def test_report_serialization_lists_every_sample():
    heDu = operator_catalog()["heDu"]
    report = verify_class(heDu, QuasiNonexpansive(), samples=25, seed=4)
    text = report.to_text()
    lines = text.strip().split("\n")
    assert len(lines) == 26  # header + one record per sample
    assert all(ln.endswith(("PASS", "FAIL")) for ln in lines[1:])
    # bit-reproducible given the seed
    again = verify_class(heDu, QuasiNonexpansive(), samples=25, seed=4)
    assert again.to_text() == text


_ZERO = SequenceSpec.const(0.0)


@pytest.mark.parametrize("name, cls", [
    ("heDu", Nonexpansive()),   # a partner per sample
    ("ballMap", None),          # a partner per sample, an n per case
    ("heDu", QuasiNonexpansive()),   # a fixed point per case
    ("wqU", TotalQuasiAsymptoticallyNonexpansive(_ZERO, _ZERO, Gauge())),   # and an n
])
def test_each_record_prints_its_line_of_the_report(name, cls):
    T = operator_catalog()[name]
    report = verify_class(T, cls or T.declared_class, samples=40, seed=4)
    lines = report.to_text().split("\n")[1:-1]
    assert [r.to_line() for r in report.records] == lines
    rebuilt = ClassReport(report.operator, report.claimed, report.samples, report.seed,
                          report.records, report.violations)
    assert rebuilt.to_text() == report.to_text()


def test_a_report_of_no_records_prints_its_header():
    report = ClassReport("T", "Nonexpansive()", 0, 1, [], [])
    assert report.passed and report.records == [] and report.violations == []
    assert report.to_text() == (
        "operator=T claimed=Nonexpansive() samples=0 seed=1 verdict=PASS\n")


@pytest.mark.parametrize("claimed", ["declared", "total_quasi"])
@pytest.mark.parametrize("name", sorted(operator_catalog()))
def test_verify_orbits_that_stop_early_give_the_full_orbit_records(
        name, claimed, monkeypatch):
    # the total quasi-asymptotic form is checked at n = 1..20 for every map
    T = operator_catalog()[name]
    zero = SequenceSpec.const(0.0)
    cls, samples = ((T.declared_class, 1000) if claimed == "declared" else
                    (TotalQuasiAsymptoticallyNonexpansive(zero, zero, Gauge()), 300))
    for seed in (1, 2, 3):
        got = verify_class(T, cls, samples=samples, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(operators, "_orbits", full_orbits)
            want = verify_class(T, cls, samples=samples, seed=seed)
        assert got.records == want.records, (name, seed)
        assert got.to_text() == want.to_text()


def _counting_map(eval_fn, domain):
    calls = []

    def counted(x):
        calls.append(x.copy())
        return eval_fn(x)

    return FixedPointMap(counted, domain), calls


def test_orbit_alternating_signed_zeros_does_not_stop():
    T, calls = _counting_map(lambda x: -x, WholeSpace(1))
    orbit = operators._orbits(T, np.array([[0.0]]), 7)
    assert len(calls) == 7
    assert [bool(np.signbit(v[0, 0])) for v in orbit] == [False, True] * 4


def test_orbit_stops_at_a_bitwise_fixed_nan():
    T, calls = _counting_map(lambda x: np.full_like(x, np.nan), WholeSpace(2))
    orbit = operators._orbits(T, np.array([[1.0, 2.0]]), 20)
    assert len(calls) == 2          # 1 -> NaN, then NaN -> the same NaN
    want = full_orbits(T, [[1.0, 2.0]], 20)
    assert [v.tobytes() for v in orbit] == [v.tobytes() for v in want]


def test_ball_map_orbit_stops_after_its_first_fixed_evaluation():
    # a row costs its first bitwise-fixed power plus one evaluation, alone
    # or in a stack with rows that move longer
    ball = shift_square_ball_map()
    T, calls = _counting_map(ball.eval_fn, ball.domain)
    lcg = _Lcg(5)
    X = np.array([sample_point(ball.domain, lcg, 10.0) for _ in range(20)])
    costs = []
    for x in X:
        want = full_orbit(T, x, 20)
        first_fixed = next(k for k in range(20)
                           if want[k + 1].tobytes() == want[k].tobytes())
        del calls[:]
        orbit = operators._orbits(T, x[None], 20)
        assert len(calls) == first_fixed + 1 <= 5
        assert [v.tobytes() for v in orbit] == [v.tobytes() for v in want]
        costs.append(first_fixed + 1)
    del calls[:]
    orbit = operators._orbits(T, X, 20)
    assert len(calls) == sum(costs)
    assert [v.tobytes() for v in orbit] == [v.tobytes() for v in full_orbits(T, X, 20)]


def test_rule_map_orbit_evaluates_only_the_rows_still_moving(monkeypatch):
    # x -> x^2: 0 and 1 are fixed at once, -0.0 maps to +0.0 and stops
    # next, 0.5 underflows to 0.0 at power 11 and stops at power 12
    square = map_from_rule(Rational1D([0.0, 0.0, 1.0], [1.0]), WholeSpace(1))
    kernel, sizes = square._array_kernel, []
    monkeypatch.setattr(square, "_array_kernel",
                        lambda v: sizes.append(len(v)) or kernel(v))
    X = np.array([[0.0], [1.0], [0.5], [-0.0]])
    orbit = operators._orbits(square, X, 20)
    assert sizes == [4, 2] + [1] * 10
    assert [v.tobytes() for v in orbit] == [v.tobytes() for v in full_orbits(square, X, 20)]


# ---------------------------------------------------------------------------
# the stacked verifier against the row loop


def _seeded_rows(seed, count, d):
    """Rows over [-10, 10)^d and over magnitudes 1e-150 .. 1e150."""
    lcg = _Lcg(seed)
    rows = [[20.0 * lcg.next_double() - 10.0 for _ in range(d)] for _ in range(count)]
    rows += [[10.0 ** (300.0 * lcg.next_double() - 150.0)
              * (1.0 if lcg.next_double() < 0.5 else -1.0) for _ in range(d)]
             for _ in range(count)]
    return np.array(rows)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_norms_and_inner_products_have_the_bits_of_spaces(d):
    A, B = _seeded_rows(d, 2000, d), _seeded_rows(d + 10, 2000, d)
    assert row_norms(A).tolist() == [norm(a) for a in A]
    assert np.vecdot(A, B).tolist() == [inner(a, b) for a, b in zip(A, B)]
    # a single vector is a stack with no leading axis
    assert float(row_norms(A[7])) == norm(A[7])


def test_stacked_norms_scale_where_the_squares_overflow():
    # finite rows whose a.a overflows take the scaled form of spaces.norm;
    # rows with inf or NaN keep sqrt(a.a)
    A = np.array([[1e200, -3e199, 0.0], [1.7976931348623157e308, 1.0, -0.0],
                  [1e160, 1e160, 1e160], [np.inf, 1.0, 0.0], [np.nan, 1e200, 0.0],
                  [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    assert row_norms(A).tobytes() == np.array([norm(a) for a in A]).tobytes()
    assert np.isfinite(row_norms(A[:3])).all()
    assert float(row_norms(A[1])) == norm(A[1]) == 1.7976931348623157e308


def test_sine_shrink_reports_an_overflow_of_one_over_x():
    T = operator_catalog()["browderPetryshyn"]
    with pytest.raises(OverflowError, match="1/x overflows at x = 1e-310"):
        T(np.array([1e-310]))
    assert T(np.array([1e-300]))[0] == (2.0 / 3.0) * 1e-300 * math.sin(1.0 / 1e-300)


def test_stacked_square_has_the_bits_of_python_pow():
    # Python's t ** 2 calls libm pow; t * t rounds differently on some values
    lcg = _Lcg(9)
    t = [10.0 ** (200.0 * lcg.next_double() - 100.0) * (lcg.next_double() - 0.5)
         for _ in range(20000)]
    assert operators._sq(np.array(t)).tolist() == [v ** 2 for v in t]


@pytest.mark.parametrize("claimed", ["declared", "total_quasi", "nonexpansive"])
@pytest.mark.parametrize("name", sorted(operator_catalog()))
def test_stacked_verify_gives_the_records_of_the_row_loop(name, claimed):
    T = operator_catalog()[name]
    zero = SequenceSpec.const(0.0)
    cls, samples = {
        "declared": (T.declared_class, 1000),
        "total_quasi": (T.declared_class.total_quasi
                        or TotalQuasiAsymptoticallyNonexpansive(zero, zero, Gauge()),
                        300),
        "nonexpansive": (Nonexpansive(), 300),
    }[claimed]
    for seed in (1, 2, 3):
        got = verify_class(T, cls, samples=samples, seed=seed)
        want = verify_class_rows(T, cls, samples=samples, seed=seed)
        assert got.records == want.records, (name, seed)
        assert got.violations == want.violations
        assert got.to_text() == want.to_text()


def test_stacked_verify_takes_the_first_worst_case_and_never_a_nan_margin():
    cls = TotalQuasiAsymptoticallyNonexpansive(
        SequenceSpec.const(0.0), SequenceSpec.const(0.0), Gauge())
    # x -> x^2 fixes 0 and 1; at x = 0 and x = 1 every case has margin 0,
    # so the first case (p = 1, n = 1) stays
    T = map_from_rule(Rational1D([0.0, 0.0, 1.0], [1.0]), WholeSpace(1),
                      known_fixed_points=([1.0], [0.0]))
    points = [[0.0], [1.0], [-1.0], [0.5], [math.nan], [1e200]]
    got = verify_class(T, cls, samples=5, seed=4, n_max=6, extra_points=points)
    want = verify_class_rows(T, cls, samples=5, seed=4, n_max=6, extra_points=points)
    assert got.to_text() == want.to_text()
    assert [(r.partner, r.n) for r in got.records[:2]] == [([1.0], 1), ([1.0], 1)]
    # x -> 3x below 1 in size, NaN beyond: the NaN margins at later powers
    # never displace a finite worst case
    T = FixedPointMap(lambda x: 3.0 * x if abs(x[0]) < 1.0 else np.full(1, np.nan),
                      WholeSpace(1), known_fixed_points=([0.0],))
    points = [[0.5], [0.2]]
    got = verify_class(T, cls, samples=5, seed=4, n_max=4, extra_points=points)
    want = verify_class_rows(T, cls, samples=5, seed=4, n_max=4, extra_points=points)
    assert got.to_text() == want.to_text()
    assert [(r.n, r.lhs - r.rhs) for r in got.records[:2]] == [
        (1, 2.0), (2, pytest.approx(3.2))]   # 1.5^2 - 0.5^2, 1.8^2 - 0.2^2


def test_stacked_orbit_of_an_opaque_map_reuses_a_stack_once_every_row_stops():
    T = operator_catalog()["ballMap"]
    lcg = _Lcg(5)
    X = np.array([sample_point(T.domain, lcg) for _ in range(200)])
    orbit = operators._orbits(T, X, 20)
    want = [full_orbit(T, x, 20) for x in X]
    assert [v.tobytes() for v in orbit] == [
        np.array([row[n] for row in want]).tobytes() for n in range(21)]
    # every ballMap row is zero by power 5, so the later stacks are one object
    assert orbit[20] is orbit[7]
    assert len({id(v) for v in orbit}) <= 8
    # while any row moves, each column is a new stack: the first row is 0.0
    # from power 1 on, the second from power 8, so only stack 10 is reused
    halve = FixedPointMap(lambda x: np.where(np.abs(x) < 1.0, 0.0, 0.5 * x),
                          WholeSpace(1))
    X = np.array([[0.5], [64.0]])
    stacks = operators._orbits(halve, X, 10)
    assert [v.tobytes() for v in stacks] == [
        np.array([full_orbit(halve, x, 10)[n] for x in X]).tobytes() for n in range(11)]
    assert len({id(v) for v in stacks}) == 10 and stacks[10] is stacks[9]


def test_stacked_orbit_of_a_rule_keeps_the_bits_and_errors_of_the_map():
    square = map_from_rule(Rational1D([0.0, 0.0, 1.0], [1.0]), WholeSpace(1))
    X = np.array([[0.5], [-0.0], [1e200], [math.nan], [math.inf], [-2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no RuntimeWarning leaks
        orbit = operators._orbits(square, X, 6)
    want = [full_orbit(square, x, 6) for x in X]
    assert [v.tobytes() for v in orbit] == [
        np.array([row[n] for row in want]).tobytes() for n in range(7)]
    pole = map_from_rule(Rational1D([1.0], [1.0, -1.0]), WholeSpace(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroDivisionError):
            operators._orbits(pole, np.array([[3.0], [1.0]]), 3)


# ---------------------------------------------------------------------------
# inequality oracles


def test_power_inequalities_degenerate_at_fixed_point():
    S = operator_catalog()["smallS"]
    rep = check_power_inequality_equivalences(S, [1.25], [1.25], n=1)
    assert rep.distance_lhs == 0.0
    assert rep.distance_holds and rep.implication_ok


@pytest.mark.parametrize("n", [1, 5])
def test_power_inequalities_exact_rational_sides(n):
    # evaluate every side with exact rationals for S(x) = (x+5)/5
    S = operator_catalog()["smallS"]
    x, y = Fraction(10), Fraction(5, 4)
    gx = Fraction(10)
    for _ in range(n):
        gx = (gx + 5) / 5
    d_lhs = (gx - y) ** 2
    d_rhs = (x - y) ** 2
    f_lhs = 2 * (x - gx) * (x - y)
    f_rhs = (gx - x) ** 2
    b_lhs = 2 * (x - gx) * (y - gx)
    b_rhs = (gx - x) ** 2
    rep = check_power_inequality_equivalences(S, [1.25], [10.0], n=n)
    assert_allclose(rep.distance_lhs, float(d_lhs), rtol=1e-12)
    assert_allclose(rep.distance_rhs, float(d_rhs), rtol=1e-12)
    assert_allclose(rep.forward_lhs, float(f_lhs), rtol=1e-12)
    assert_allclose(rep.forward_rhs, float(f_rhs), rtol=1e-12)
    assert_allclose(rep.backward_lhs, float(b_lhs), rtol=1e-12)
    assert_allclose(rep.backward_rhs, float(b_rhs), rtol=1e-12)
    assert rep.distance_holds and rep.implication_ok


def test_power_inequalities_first_row_values():
    # n = 1: |G(10) - 1.25|^2 = 3.0625 <= |10 - 1.25|^2 = 76.5625
    rep = check_power_inequality_equivalences(
        operator_catalog()["smallS"], [1.25], [10.0], n=1
    )
    assert rep.distance_lhs == pytest.approx(3.0625)
    assert rep.distance_rhs == pytest.approx(76.5625)



def test_total_quasi_view_of_each_class():
    t_seq = SequenceSpec.from_formula("1+1/(n+1)^2")
    zero = SequenceSpec.const(0.0)
    tqan = TotalQuasiAsymptoticallyNonexpansive(t_seq, zero, Gauge())
    assert tqan.total_quasi is tqan
    assert QuasiNonexpansive().total_quasi == TotalQuasiAsymptoticallyNonexpansive(
        zero, zero, Gauge())
    view = AsymptoticallyQuasiNonexpansive(t_seq).total_quasi
    assert [view.v_seq(n) for n in range(30)] == [t_seq(n) - 1.0 for n in range(30)]
    assert (view.mu_seq, view.gauge) == (zero, Gauge())
    # nonexpansive -> quasi-nonexpansive, and contraction -> nonexpansive
    for cls in (Nonexpansive(), Contraction(0.5)):
        assert cls.total_quasi == TotalQuasiAsymptoticallyNonexpansive(
            zero, zero, Gauge())
    assert Demicontractive(0.0).total_quasi is None


# ---------------------------------------------------------------------------
# the taxonomy's edges, screened by sampling

_POSITIVE_PART = Piecewise1D(0.0, Rational1D([0.0]), Rational1D([0.0, 1.0]))   # max(x, 0)

# 1-D rule maps with the fixed point 0, declaring the classes no catalog map
# declares: name -> (rule, class token)
_EDGE_MAPS = {
    "halving": (Rational1D([0.0, 0.5]), "contraction:0.5"),
    "positivePart": (_POSITIVE_PART, "firmly_quasi_nonexpansive"),
    "positivePartDirected": (_POSITIVE_PART, "directed"),
    # -2x: ||Tx - Tz||^2 = 4 d^2 <= d^2 + k 9 d^2 for k >= 1/3
    "doubledNegation": (Rational1D([0.0, -2.0]), "strictly_pseudocontractive:0.5"),
    "halvingAsymptotic": (Rational1D([0.0, 0.5]), "asymptotically_quasi_nonexpansive"),
    "halvingTotal": (Rational1D([0.0, 0.5]), "total_asymptotically_nonexpansive"),
}


def _edge_map(name):
    if name in _EDGE_MAPS:
        rule, token = _EDGE_MAPS[name]
        return map_from_rule(rule, WholeSpace(1), class_from_token(token), ([0.0],),
                             name=name)
    return operator_catalog()[name]


@pytest.mark.parametrize("name", sorted(operator_catalog()) + sorted(_EDGE_MAPS))
def test_every_class_a_declaration_implies_verifies(name):
    T = _edge_map(name)
    for cls in T.declared_class.implied():
        report = verify_class(T, cls)
        assert report.passed, (name, cls, report.violations[:1])


def test_the_walk_visits_each_implied_class_once_nearest_first():
    tqan = TotalQuasiAsymptoticallyNonexpansive(
        SequenceSpec.const(0.0), SequenceSpec.const(0.0), Gauge())
    assert list(Contraction(0.5).implied()) == [
        Contraction(0.5), Nonexpansive(), QuasiNonexpansive(), tqan]
    # firmly quasi-nonexpansive <=> directed: the cycle is walked once
    assert list(FirmlyQuasiNonexpansive().implied()) == [
        FirmlyQuasiNonexpansive(), Directed(), QuasiNonexpansive(), tqan]
    assert list(Directed().implied()) == [
        Directed(), FirmlyQuasiNonexpansive(), QuasiNonexpansive(), tqan]
    assert list(StrictlyPseudocontractive(0.5).implied()) == [
        StrictlyPseudocontractive(0.5), Demicontractive(0.5)]
    assert list(Demicontractive(0.5).implied()) == [Demicontractive(0.5)]


def test_an_asymptotically_nonexpansive_map_is_asymptotically_quasi_nonexpansive():
    # ||T^n x - p|| <= k_n ||x - p|| at a fixed point p: t_n = k_n^2, and
    # then v_n = t_n - 1
    k_seq = SequenceSpec.table([1.0, 2.0, 1.5], tail=1.0)
    walk = list(AsymptoticallyNonexpansive(k_seq).implied())
    assert [type(c) for c in walk] == [AsymptoticallyNonexpansive,
                                       AsymptoticallyQuasiNonexpansive,
                                       TotalQuasiAsymptoticallyNonexpansive]
    assert [walk[1].t_seq(n) for n in range(1, 5)] == [4.0, 2.25, 1.0, 1.0]
    assert [walk[2].v_seq(n) for n in range(1, 5)] == [3.0, 1.25, 0.0, 0.0]
    assert AsymptoticallyNonexpansive(k_seq).total_quasi.mu_seq(3) == 0.0


@pytest.mark.parametrize("name, declared", [
    ("heDu", QuasiNonexpansive()),
    ("wqU", QuasiNonexpansive()),
    ("identity", QuasiNonexpansive()),
    ("scaledNeg", None),
    ("ballMap", None),
    ("halving", QuasiNonexpansive()),
    ("positivePart", QuasiNonexpansive()),
    ("doubledNegation", None),
])
def test_relax_declares_quasi_nonexpansive_only_for_a_quasi_nonexpansive_map(
        name, declared):
    # relax declares quasi-nonexpansive where the walk of T's class reaches it
    assert relax(_edge_map(name), 0.5).declared_class == declared


def test_convex_combine_declares_quasi_nonexpansive_through_the_walk():
    halving, positive = _edge_map("halving"), _edge_map("positivePart")
    doubled = _edge_map("doubledNegation")
    # (x + 1)/2, a contraction fixing 1: no fixed point in common with x/2
    shifted = map_from_rule(Rational1D([0.5, 0.5]), WholeSpace(1),
                            class_from_token("contraction:0.5"), ([1.0],))
    for maps, declared in (([halving, positive], QuasiNonexpansive()),
                           ([halving, doubled], None), ([halving, shifted], None)):
        assert convex_combine(maps, [0.5, 0.5]).declared_class == declared


def test_power_inequalities_of_an_asymptotically_quasi_declaration():
    # smallS declared with t_n = 1 + 1/(n+1)^2: the distance side gains
    # (t_n - 1) ||x - y||^2
    S = operator_catalog()["smallS"]
    t_seq = SequenceSpec.from_formula("1+1/(n+1)^2")
    T = map_from_rule(S.rule, S.domain,
                      declared_class=AsymptoticallyQuasiNonexpansive(t_seq),
                      known_fixed_points=([1.25],))
    rep = check_power_inequality_equivalences(T, [1.25], [10.0], n=3)
    assert rep.distance_rhs == 8.75 ** 2 + (t_seq(3) - 1.0) * 8.75 ** 2
    assert rep.distance_holds and rep.implication_ok


def test_power_inequalities_class_mismatch():
    T = operator_catalog()["scaledNeg"]  # demicontractive, not quasi-type
    with pytest.raises(ClassMismatch):
        check_power_inequality_equivalences(T, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], n=1)


def test_strong_monotonicity_constant_map():
    const = map_from_rule(Rational1D([3.0], [1.0]), WholeSpace(1),
                          declared_class=Contraction(0.01),
                          known_fixed_points=([3.0],))
    assert strong_monotonicity_of_complement(const, samples=500, seed=1).passed


def test_strong_monotonicity_halving_is_tight():
    half = map_from_rule(Rational1D([0.0, 0.5], [1.0]), WholeSpace(1),
                         declared_class=Contraction(0.5),
                         known_fixed_points=([0.0],))
    rep = strong_monotonicity_of_complement(half, samples=1000, seed=2)
    assert rep.passed and rep.claimed == repr(StronglyMonotone(0.5))


def test_strong_monotonicity_sine_contraction():
    sine_half = FixedPointMap(
        lambda x: np.array([0.5 * math.sin(x[0])]),
        Box([-1.0], [1.0]),
        declared_class=Contraction(0.5),
        known_fixed_points=([0.0],),
        name="sine-half",
    )
    assert strong_monotonicity_of_complement(
        sine_half, samples=1000, seed=3
    ).passed


def test_strong_monotonicity_catches_a_mislabelled_contraction():
    # f = 2x declared Contraction(0.5): I - f = -x is not monotone at all
    doubling = map_from_rule(Rational1D([0.0, 2.0]), WholeSpace(1),
                             declared_class=Contraction(0.5),
                             known_fixed_points=([0.0],))
    rep = strong_monotonicity_of_complement(doubling, samples=1000, seed=1)
    assert len(rep.violations) == 1000


def test_strong_monotonicity_requires_contraction():
    with pytest.raises(ClassMismatch):
        strong_monotonicity_of_complement(operator_catalog()["heDu"])


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_averaged_iterate_power_is_nonexpansive(beta, n):
    # beta I + (1 - beta) S^n stays nonexpansive for a Lipschitz-1/2 map
    # and keeps exactly the fixed points of S^n
    S = map_from_rule(Rational1D([0.0, 0.5], [1.0]), WholeSpace(1),
                      known_fixed_points=([0.0],), name="halving")
    Sn = power_map(S, n)
    averaged = FixedPointMap(
        lambda x: beta * x + (1.0 - beta) * Sn(x),
        S.domain,
        known_fixed_points=([0.0],),
        name="averaged",
    )
    assert verify_class(averaged, Nonexpansive(), samples=500, seed=5).passed
    scan_avg = find_fixed_points_1d(averaged, (-10.0, 10.0), grid=4001)
    scan_pow = find_fixed_points_1d(Sn, (-10.0, 10.0), grid=4001)
    assert_allclose(scan_avg.roots, scan_pow.roots, atol=1e-9)
    assert_allclose(scan_avg.roots, [0.0], atol=1e-9)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_contents_and_fixed_points():
    cat = operator_catalog()
    expected_fixed = {
        "heDu": 2.0, "bigU": 5.0, "smallS": 1.25, "wqT": 1.0, "wqU": 0.0,
        "identity": 0.0, "browderPetryshyn": 0.0,
    }
    for name, fp in expected_fixed.items():
        p = cat[name].known_fixed_points[0]
        assert norm(cat[name](p) - p) <= 1e-9
        assert p[0] == fp
    assert norm(cat["scaledNeg"](np.zeros(3))) == 0.0
    assert norm(cat["ballMap"](np.zeros(4))) == 0.0


def test_catalog_named_values():
    cat = operator_catalog()
    assert cat["bigU"](np.array([5.0]))[0] == 5.0
    assert cat["smallS"](np.array([1.25]))[0] == 1.25
    assert cat["heDu"](np.array([2.0]))[0] == 2.0
    # piecewise branches of the wq operator, zero branch extended below 0
    assert cat["wqU"](np.array([0.5]))[0] == 0.0
    assert cat["wqU"](np.array([1.0]))[0] == 0.0
    assert_allclose(cat["wqU"](np.array([2.0]))[0], 4.0 / 3.0, rtol=1e-15)
    assert cat["wqU"](np.array([-5.0]))[0] == 0.0


def test_ball_map_shape_and_lipschitz_table():
    cat = operator_catalog()
    T = cat["ballMap"]
    x = np.array([0.5, 0.2, -0.1, 0.3])
    out = T(x)
    assert out[0] == 0.0 and out[1] == 0.25
    k_seq = T.declared_class.k_seq
    assert k_seq(1) == 2.0
    assert k_seq(2) == pytest.approx(math.sqrt(2.0))
    assert k_seq(3) == pytest.approx(1.0)
    assert k_seq(10) == 1.0
