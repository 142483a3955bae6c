"""Operator taxonomy, combinators, sampling verifiers, and the catalog."""

import dataclasses
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfp.diagnostics import find_fixed_points_1d
from splitfp import operators
from splitfp.operators import (
    AsymptoticallyQuasiNonexpansive,
    ClassMismatch,
    Contraction,
    Demicontractive,
    DomainEscape,
    FixedPointMap,
    Gauge,
    Nonexpansive,
    QuasiNonexpansive,
    SequenceSpec,
    StrictlyPseudocontractive,
    StronglyMonotone,
    TotalQuasiAsymptoticallyNonexpansive,
    _Lcg,
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
from splitfp.spaces import DimensionMismatch, inner, norm

from helpers import full_orbit, power_map, verify_class_rows
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
    assert negate.kernel is not None   # the scalar loop
    assert power_apply(negate, 2, [0.0]).tobytes() == np.array([0.0]).tobytes()
    assert power_apply(negate, 3, [0.0]).tobytes() == np.array([-0.0]).tobytes()


def _power_apply_arrays(T, n, x, check_domain=True):
    """power_apply's array loop, the reference its scalar loop must match."""
    cur = np.atleast_1d(np.asarray(x, dtype=float))
    for i in range(n):
        if check_domain and not contains(T.domain, cur, tol=1e-9):
            raise DomainEscape(
                "iterate left the domain before application %d of %d: %s"
                % (i + 1, n, cur.tolist())
            )
        nxt = T(cur)
        if nxt.shape == cur.shape and nxt.tobytes() == cur.tobytes():
            return nxt
        cur = nxt
    return cur


def _outcome(power, T, n, x, check_domain):
    try:
        out = power(T, n, x, check_domain=check_domain)
    except (DomainEscape, ZeroDivisionError) as err:
        return type(err), str(err)
    return out.dtype, out.shape, out.tobytes()   # bits: tells -0.0 and NaNs apart


RULE_MAPS = ("heDu", "bigU", "smallS", "wqT", "wqU", "identity")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", RULE_MAPS + ("relax(wqT, 0.3)",))
def test_power_apply_scalar_loop_matches_array_loop(name):
    cat = operator_catalog()
    T = relax(cat["wqT"], 0.3) if name.startswith("relax") else cat[name]
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
                want = _outcome(_power_apply_arrays, T, n, [x], check_domain)
                assert _outcome(power_apply, T, n, [x], check_domain) == want, \
                    (x, check_domain, n)
                escapes += want[0] is DomainEscape
    assert escapes > 0


def test_power_apply_loop_follows_the_scalar_rule_mark(monkeypatch):
    # the scalar loop is keyed on ``kernel``, compiled from the rule a map
    # evaluates: catalog maps and relaxed rule-backed maps carry one, a
    # closure map does not
    cat = operator_catalog()
    wqT = cat["wqT"]
    relaxed = relax(wqT, 0.3)
    closure = power_map(wqT, 2)
    assert relaxed.rule == Relaxed1D(wqT.rule, 0.3)
    assert closure.rule is None
    calls = []
    original = FixedPointMap.__call__

    def counting(self, x):
        calls.append(self.name)
        return original(self, x)

    monkeypatch.setattr(FixedPointMap, "__call__", counting)
    for T in (wqT, relaxed, cat["wqU"]):
        power_apply(T, 5, np.array([4.0]))
    assert calls == []
    power_apply(closure, 5, np.array([4.0]))
    assert closure.name in calls


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


def test_rules_sequences_and_gauges_are_immutable():
    r = Rational1D([2.0, 1.0], [3.0])
    for obj, attr in ((r, "num"), (Piecewise1D(1.0, r, r), "breakpoint"),
                      (Relaxed1D(r, 0.5), "alpha"),
                      (SequenceSpec.const(0.5), "constant"),
                      (Gauge("t^2"), "c")):
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
        TotalAsymptoticallyNonexpansive(zero, zero, Gauge("t^2")),
        TotalQuasiAsymptoticallyNonexpansive(zero, zero, Gauge("t^2")),
        TotalAsymStrictPseudocontraction(0.0, zero, zero, Gauge("t^2")),
        Lipschitzian(1.0),
        UniformlyLipschitzian(1.0),
        StronglyMonotone(1.0),
    ]
    for cls in classes:
        assert verify_class(ident, cls, samples=200, seed=3).passed, cls


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


@pytest.mark.parametrize("claimed", ["declared", "total_quasi"])
@pytest.mark.parametrize("name", sorted(operator_catalog()))
def test_verify_orbits_that_stop_early_give_the_full_orbit_records(
        name, claimed, monkeypatch):
    # the total quasi-asymptotic form is checked at n = 1..20 for every map
    T = operator_catalog()[name]
    zero = SequenceSpec.const(0.0)
    cls, samples = ((T.declared_class, 1000) if claimed == "declared" else
                    (TotalQuasiAsymptoticallyNonexpansive(zero, zero, Gauge("t^2")), 300))
    for seed in (1, 2, 3):
        got = verify_class(T, cls, samples=samples, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(operators, "_iterates", full_orbit)
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
    orbit = operators._iterates(T, [0.0], 7)
    assert len(calls) == 7
    assert [bool(np.signbit(v[0])) for v in orbit] == [False, True] * 4


def test_orbit_stops_at_a_bitwise_fixed_nan():
    T, calls = _counting_map(lambda x: np.full_like(x, np.nan), WholeSpace(2))
    orbit = operators._iterates(T, [1.0, 2.0], 20)
    assert len(calls) == 2          # 1 -> NaN, then NaN -> the same NaN
    want = full_orbit(T, [1.0, 2.0], 20)
    assert [v.tobytes() for v in orbit] == [v.tobytes() for v in want]


def test_ball_map_orbit_stops_after_its_first_fixed_evaluation():
    ball = shift_square_ball_map()
    T, calls = _counting_map(ball.eval_fn, ball.domain)
    lcg = _Lcg(5)
    for _ in range(20):
        x = operators.sample_point(ball.domain, lcg, 10.0)
        del calls[:]
        orbit = operators._iterates(T, x, 20)
        evaluations = len(calls)
        want = full_orbit(T, x, 20)
        assert [v.tobytes() for v in orbit] == [v.tobytes() for v in want]
        first_fixed = next(k for k in range(20)
                           if want[k + 1].tobytes() == want[k].tobytes())
        assert evaluations == first_fixed + 1 <= 5


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
    assert operators._norm(A).tolist() == [norm(a) for a in A]
    assert np.vecdot(A, B).tolist() == [inner(a, b) for a, b in zip(A, B)]
    # a single vector is a stack with no leading axis
    assert float(operators._norm(A[7])) == norm(A[7])


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
                        or TotalQuasiAsymptoticallyNonexpansive(zero, zero, Gauge("t^2")),
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
        SequenceSpec.const(0.0), SequenceSpec.const(0.0), Gauge("t^2"))
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
    tqan = TotalQuasiAsymptoticallyNonexpansive(t_seq, zero, Gauge("t^2"))
    assert tqan.total_quasi is tqan
    assert QuasiNonexpansive().total_quasi == TotalQuasiAsymptoticallyNonexpansive(
        zero, zero, Gauge("t^2"))
    view = AsymptoticallyQuasiNonexpansive(t_seq).total_quasi
    assert [view.v_seq(n) for n in range(30)] == [t_seq(n) - 1.0 for n in range(30)]
    assert (view.mu_seq, view.gauge) == (zero, Gauge("t^2"))
    for cls in (Nonexpansive(), Demicontractive(0.0), Contraction(0.5)):
        assert cls.total_quasi is None


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
