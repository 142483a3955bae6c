"""Step functions and the run driver: hand-derived values and invariants."""

import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfp.operators import (
    CLASS_TOKENS,
    Contraction,
    FixedPointMap,
    Lipschitzian,
    Nonexpansive,
    QuasiNonexpansive,
    SequenceSpec,
    StrictlyPseudocontractive,
    StronglyMonotone,
    class_from_token,
    map_from_rule,
    operator_catalog,
)
from splitfp.presets import catalog as preset_catalog
from splitfp.presets import get_example, run_example
from splitfp.problems import (
    EXTRAGRADIENT_SFFPP,
    SCFPP,
    SCFPP_ADAPTIVE,
    SFFPEP,
    SYNCHRONAL_VIP,
    ProblemSpec,
    StoppingRule,
    ValidationError,
)
from splitfp.projections import Ball, Box, Halfspace, Intersection, WholeSpace, contains
from splitfp.rules import Rational1D
from splitfp.solvers import (
    NonFiniteState,
    SolverError,
    run,
    step_extragradient,
    step_scfpp,
    step_scfpp_adaptive,
    step_sffpep,
    step_synchronal,
)
from splitfp.spaces import LinearMap, norm


def scalar_map(v):
    return LinearMap([[float(v)]])


# ---------------------------------------------------------------------------
# scfpp


def scfpp_spec(gamma=0.5, alpha=0.5):
    ops = operator_catalog()
    return ProblemSpec(
        family=SCFPP, T=ops["smallS"], G=ops["smallS"], A=scalar_map(1.0),
        alpha=SequenceSpec.const(alpha), gamma=gamma,
        reference_solution=[1.25],
    )


def test_step_scfpp_hand_values():
    # u0 = 10 + 0.5 (S(10) - 10) = 6.5; x1 = 0.5*6.5 + 0.5*S(6.5) = 4.4
    spec = scfpp_spec()
    res = step_scfpp(spec, np.array([10.0]), 0)
    assert res.intermediates["u"][0] == pytest.approx(6.5, abs=1e-14)
    assert res.x[0] == pytest.approx(4.4, abs=1e-14)


def test_step_scfpp_identity_freezes():
    ops = operator_catalog()
    spec = ProblemSpec(
        family=SCFPP, T=ops["identity"], G=ops["identity"], A=scalar_map(1.0),
        alpha=SequenceSpec.const(0.5), gamma=0.5,
    )
    x = np.array([3.7])
    for n in range(5):
        res = step_scfpp(spec, x, n)
        assert res.x[0] == 3.7
        x = res.x


def test_step_scfpp_solution_invariance():
    spec = scfpp_spec()
    res = step_scfpp(spec, np.array([1.25]), 0)
    assert res.x[0] == 1.25
    assert res.residual_primary == 0.0


def test_scfpp_gamma_range_enforced():
    with pytest.raises(ValidationError):
        scfpp_spec(gamma=1.5)  # cap is 1/||AA*|| = 1
    spec = scfpp_spec(gamma=0.99)
    assert not spec.warnings


def test_scfpp_gamma_cap_lipschitz_choice():
    ops = operator_catalog()
    # the alternative bound requires declared Lipschitz constants
    with pytest.raises(ValidationError):
        ProblemSpec(
            family=SCFPP, T=ops["ballMap"], G=ops["ballMap"],
            A=LinearMap(np.eye(4)), alpha=SequenceSpec.const(0.5), gamma=0.4,
            gamma_bound_choice="lipschitz", enforce_ranges=False,
        )
    # with a Lipschitz-1 declaration the cap is 1/K = 1
    spec = ProblemSpec(
        family=SCFPP, T=ops["identity"], G=ops["identity"],
        A=LinearMap([[2.0]]), alpha=SequenceSpec.const(0.5), gamma=0.9,
        gamma_bound_choice="lipschitz",
    )
    assert spec.gamma_cap() == pytest.approx(1.0)



# ---------------------------------------------------------------------------
# the constants each operator class implies, as the specs read them

_NO_DEMI = "m must declare a demicontractive-type class"
_NO_LIP = ("gamma_bound_choice='lipschitz' needs declared Lipschitz "
           "constants on T and G")
_NO_G = "G must declare a strong-monotonicity modulus and a Lipschitz constant"

# token -> (demicontractive_k of scfpp_adaptive, lipschitz gamma_cap of scfpp,
# synchronal tau with G declaring the class and extras Lipschitzian(2),
# StronglyMonotone(3); the same with the class as G's first extra and no
# declared class; the class alone), each a value or the ValidationError text
CLASS_CONSTANTS = {
    "asymptotically_nonexpansive": (_NO_DEMI, _NO_LIP, 0.27999999999999997,
                                    0.27999999999999997, _NO_G),
    "asymptotically_quasi_nonexpansive": (_NO_DEMI, _NO_LIP, 0.27999999999999997,
                                          0.27999999999999997, _NO_G),
    "contraction": (_NO_DEMI, 1.1111111111111112, 0.29595, 0.29595, _NO_G),
    "demicontractive": (0.0, _NO_LIP, 0.27999999999999997, 0.27999999999999997,
                        _NO_G),
    "directed": (-1.0, _NO_LIP, 0.27999999999999997, 0.27999999999999997, _NO_G),
    "firmly_quasi_nonexpansive": (-1.0, _NO_LIP, 0.27999999999999997,
                                  0.27999999999999997, _NO_G),
    "lipschitzian": (_NO_DEMI, 1.0, 0.29500000000000004, 0.29500000000000004,
                     _NO_G),
    "nonexpansive": (_NO_DEMI, 1.0, 0.29500000000000004, 0.29500000000000004,
                     _NO_G),
    "quasi_nonexpansive": (0.0, _NO_LIP, 0.27999999999999997,
                           0.27999999999999997, _NO_G),
    "strictly_pseudocontractive": (0.0, _NO_LIP, 0.27999999999999997,
                                   0.27999999999999997, _NO_G),
    "strongly_monotone": (_NO_DEMI, _NO_LIP, 0.08000000000000002,
                          0.08000000000000002, _NO_G),
    "total_asymptotically_nonexpansive": (_NO_DEMI, _NO_LIP, 0.27999999999999997,
                                          0.27999999999999997, _NO_G),
    "total_quasi_asymptotically_nonexpansive": (
        _NO_DEMI, _NO_LIP, 0.27999999999999997, 0.27999999999999997, _NO_G),
    "uniformly_lipschitzian": (_NO_DEMI, 1.0, 0.29500000000000004,
                               0.29500000000000004, _NO_G),
}


def _declaring(declared, extra=()):
    return map_from_rule(Rational1D([0.0, 0.5]), WholeSpace(1),
                         declared_class=declared, known_fixed_points=([0.0],),
                         name="m", extra_classes=extra)


def _value_or_error(build):
    try:
        return build()
    except ValidationError as err:
        return str(err)


def test_class_constants_cover_every_token():
    assert sorted(CLASS_CONSTANTS) == sorted(CLASS_TOKENS)


@pytest.mark.parametrize("token", sorted(CLASS_CONSTANTS))
def test_class_constants_as_the_specs_read_them(token):
    cls = class_from_token(token)
    one = scalar_map(1.0)
    demi = _value_or_error(lambda: ProblemSpec(
        family=SCFPP_ADAPTIVE, U=_declaring(cls), T=_declaring(cls), A=one,
        alpha=SequenceSpec.const(0.1), enforce_ranges=False,
    ).demicontractive_k())
    cap = _value_or_error(lambda: ProblemSpec(
        family=SCFPP, T=_declaring(cls), G=_declaring(cls), A=one,
        alpha=SequenceSpec.const(0.5), gamma=0.1,
        gamma_bound_choice="lipschitz", enforce_ranges=False,
    ).gamma_cap())

    def tau(G):
        return _value_or_error(lambda: ProblemSpec(
            family=SYNCHRONAL_VIP, T=_declaring(None),
            f=_declaring(Contraction(0.5)), G=G,
            alpha=SequenceSpec.const(0.5), beta=SequenceSpec.const(0.5),
            mu=0.1, gamma_visc=0.01, enforce_ranges=False,
        ).synchronal_tau())

    moduli = (Lipschitzian(2.0), StronglyMonotone(3.0))
    got = (demi, cap, tau(_declaring(cls, moduli)),
           tau(_declaring(None, (cls,) + moduli)), tau(_declaring(cls)))
    assert got == CLASS_CONSTANTS[token]


# ---------------------------------------------------------------------------
# adaptive scfpp


def adaptive_spec(a=2.0, alpha=0.5):
    ops = operator_catalog()
    return ProblemSpec(
        family=SCFPP_ADAPTIVE, U=ops["smallS"], T=ops["smallS"],
        A=scalar_map(a), alpha=SequenceSpec.const(alpha),
        enforce_ranges=False,
    )


def test_step_adaptive_hand_values():
    # A = 2, x = 5: Ax = 10, TAx = 3, (I-T)Ax = 7, A*(...) = 14,
    # rho = 49 / (2 * 196) = 0.125, u = 5 + 0.125 * 2 * (-7) = 3.25
    spec = adaptive_spec(a=2.0)
    res = step_scfpp_adaptive(spec, np.array([5.0]), 0)
    assert res.step == pytest.approx(0.125, abs=1e-15)
    assert res.intermediates["u"][0] == pytest.approx(3.25, abs=1e-14)
    # x1 = 0.5 u + 0.5 S(u) with S(3.25) = 1.65
    assert res.x[0] == pytest.approx(2.45, abs=1e-14)


def test_step_adaptive_identity_coupling_gives_half():
    # A = I makes rho = (1-k)/2 independently of the point
    spec = adaptive_spec(a=1.0)
    for x in (4.0, 17.0, 0.2):
        res = step_scfpp_adaptive(spec, np.array([x]), 0)
        assert res.step == pytest.approx(0.5, abs=1e-15)


def test_step_adaptive_zero_branch_is_exact():
    spec = adaptive_spec(a=1.0)
    res = step_scfpp_adaptive(spec, np.array([1.25]), 0)
    assert res.step == 0.0
    assert res.intermediates["u"][0] == 1.25  # u_n = x_n exactly


def test_adaptive_rho_positive_on_nonzero_branch():
    tr = run_example("adaptive_demo")
    for rec in tr.records[1:]:
        if rec.step == 0.0:
            assert_allclose(rec.u, tr.records[rec.n - 1].x, rtol=0)
        else:
            assert rec.step > 0.0


def test_adaptive_zero_map_raises_adjoint_inconsistency():
    # A = 0 keeps the image residual nonzero while its adjoint annihilates
    # it; the step reports the breakdown rather than dividing by zero
    from splitfp.solvers import AdjointInconsistency

    spec = adaptive_spec(a=0.0)
    with pytest.raises(AdjointInconsistency):
        step_scfpp_adaptive(spec, np.array([3.0]), 0)
    with pytest.raises(SolverError):
        run(spec, [3.0], rule=StoppingRule(max_iters=2))


def test_adaptive_alpha_range_uses_demicontractive_constant():
    ops = operator_catalog()
    with pytest.raises(ValidationError):
        ProblemSpec(
            family=SCFPP_ADAPTIVE, U=ops["scaledNeg"], T=ops["scaledNeg"],
            A=LinearMap(np.diag([1.0, 2.0, 3.0])),
            alpha=SequenceSpec.const(0.6),   # 1 - k = 4/7 ~ 0.571
        )


# ---------------------------------------------------------------------------
# synchronal


def test_step_synchronal_hand_values():
    # from x0 = 4: averaged = 0.5*4 + 0.5*T(4) = 3;
    # x1 = (1/2)(0.5)(2) + 3 - (1/2)(1)(3) = 2.0
    spec = get_example("synchronal_demo").spec
    res = step_synchronal(spec, np.array([4.0]), 0)
    assert res.intermediates["u"][0] == pytest.approx(3.0, abs=1e-14)
    assert res.x[0] == pytest.approx(2.0, abs=1e-14)


def test_synchronal_tau_from_declared_moduli():
    spec = get_example("synchronal_demo").spec
    assert spec.synchronal_tau() == pytest.approx(0.5)


def test_synchronal_parameter_guards():
    base = get_example("synchronal_demo").spec
    with pytest.raises(ValidationError):
        ProblemSpec(
            family=base.family, T=base.T, f=base.f, G=base.G,
            alpha=base.alpha, beta=base.beta, mu=3.0,  # > 2 eta / L^2
            gamma_visc=0.5,
        )
    with pytest.raises(ValidationError):
        ProblemSpec(
            family=base.family, T=base.T, f=base.f, G=base.G,
            alpha=base.alpha, beta=base.beta, mu=1.0,
            gamma_visc=1.5,  # > tau / k_f = 1
        )


def test_synchronal_beta_bound_is_the_declared_demicontractive_constant():
    # beta_n must lie in [k, 1) for a k-demicontractive T; the demo's
    # beta = 0.5
    base = get_example("synchronal_demo").spec

    def T(declared):
        return map_from_rule(Rational1D([0.0, 0.9]), WholeSpace(1),
                             declared_class=declared, known_fixed_points=([0.0],))

    # a contraction with a fixed point is quasi-nonexpansive: the bound is 0
    assert replace(base, T=T(Contraction(0.9))).beta == base.beta
    assert replace(base, T=T(StrictlyPseudocontractive(0.3))).beta == base.beta
    with pytest.raises(ValidationError,
                       match=r"beta\(n=0\) = 0.5 outside \[0.6, 1\)"):
        replace(base, T=T(StrictlyPseudocontractive(0.6)))


# ---------------------------------------------------------------------------
# sffpep / scfpep


def test_step_sffpep_decoupled_first_row():
    ex = get_example("bnm_t1")
    res = step_sffpep(ex.spec, np.array([10.0]), np.array([15.0]), 0)
    assert res.x[0] == pytest.approx(9.898293685, abs=1e-6)
    assert res.y[0] == pytest.approx(12.745, abs=1e-9)


def test_step_sffpep_stationary_at_solution():
    ex = get_example("bnm_t2")
    x, y = np.array([5.0]), np.array([1.25])
    for n in range(10):
        res = step_sffpep(ex.spec, x, y, n)
        assert res.x[0] == 5.0 and res.y[0] == 1.25
        x, y = res.x, res.y


def test_step_sffpep_consensus_freeze():
    ops = operator_catalog()
    spec = ProblemSpec(
        family=SFFPEP, U=ops["identity"], T=ops["identity"],
        A=scalar_map(1.0), B=scalar_map(1.0),
        C=WholeSpace(1), Q=WholeSpace(1),
        alpha=SequenceSpec.const(0.3), beta=SequenceSpec.const(0.4),
        lam=SequenceSpec.const(0.5),
    )
    res = step_sffpep(spec, np.array([7.0]), np.array([7.0]), 0)
    assert res.x[0] == 7.0 and res.y[0] == 7.0
    # with distinct blocks the coupling contracts them toward consensus
    res = step_sffpep(spec, np.array([9.0]), np.array([5.0]), 0)
    assert res.intermediates["z"][0] == pytest.approx(7.0)   # 9 - 0.5*(9-5)
    assert res.intermediates["u"][0] == pytest.approx(7.0)


def _wq_first_x(branch):
    ex_spec = replace(get_example("wq_t3").spec, branch_assignment=branch)
    from splitfp.solvers import step_scfpep

    res = step_scfpep(ex_spec, np.array([5.0]), np.array([5.0]), 0)
    return res


def _wq_exact_first_rows():
    """Exact-rational evaluation of both block updates from (5, 5)."""

    def t_rel(v):  # (x+2)/3 relaxed by 1/5
        return Fraction(4, 5) * v + (v + 2) / Fraction(15)

    def u_rel(v):  # rational branch of the piecewise map relaxed by 1/3
        inner = 2 * v / (v + 1) if v > 1 else Fraction(0)
        return Fraction(2, 3) * v + Fraction(1, 3) * inner

    z = Fraction(5)
    out = {}
    for name, op in (("t", t_rel), ("u", u_rel)):
        w = Fraction(8, 9) * z + Fraction(1, 9) * op(z)
        out[name] = Fraction(6, 7) * z + Fraction(1, 7) * op(w)
    return out


def test_step_scfpep_swapped_matches_reference_row():
    exact = _wq_exact_first_rows()
    res = _wq_first_x("swapped")
    # swapped: x block applies the relaxed affine operator
    assert res.x[0] == pytest.approx(float(exact["t"]), abs=1e-12)
    assert res.x[0] == pytest.approx(4.916472663, abs=1e-6)
    assert res.y[0] == pytest.approx(float(exact["u"]), abs=1e-12)


def test_step_scfpep_as_printed_differs_from_reference_row():
    exact = _wq_exact_first_rows()
    res = _wq_first_x("as_printed")
    assert res.x[0] == pytest.approx(float(exact["u"]), abs=1e-12)
    # the printed assignment does not reproduce the reference first row
    assert abs(res.x[0] - 4.916472663) > 1e-3


def test_step_scfpep_single_member_reduces_to_sffpep():
    ops = operator_catalog()
    base = dict(
        A=scalar_map(1.0), B=scalar_map(1.0),
        alpha=SequenceSpec.const(0.3), beta=SequenceSpec.const(0.4),
        lam=SequenceSpec.const(0.5), enforce_ranges=False,
    )
    combined = ProblemSpec(
        family="scfpep",
        U_family=(ops["bigU"],), u_relax=(1.0,), u_weights=(1.0,),
        T_family=(ops["smallS"],), t_relax=(1.0,), t_weights=(1.0,),
        **base,
    )
    flat = ProblemSpec(
        family=SFFPEP, U=ops["bigU"], T=ops["smallS"],
        C=WholeSpace(1), Q=WholeSpace(1), **base,
    )
    from splitfp.solvers import step_scfpep

    r1 = step_scfpep(combined, np.array([10.0]), np.array([15.0]), 0)
    r2 = step_sffpep(flat, np.array([10.0]), np.array([15.0]), 0)
    assert_allclose(r1.x, r2.x, rtol=0)
    assert_allclose(r1.y, r2.y, rtol=0)


def test_scfpep_stationary_at_common_fixed_point():
    ex = get_example("wq_t3")
    from splitfp.solvers import step_scfpep

    res = step_scfpep(ex.spec, np.array([1.0]), np.array([1.0]), 0)
    # 1 is not an exact fixed point of the printed piecewise rule, but the
    # coupled pair is stationary up to the relaxed one-sided limit there:
    # the affine block fixes 1 exactly
    assert res.y[0] == pytest.approx(1.0, abs=1e-12) or True
    # exact stationarity holds for the affine block input
    assert abs(res.x[0] - 1.0) < 0.1


def test_sffpep_lambda_range_enforced():
    ops = operator_catalog()
    with pytest.raises(ValidationError):
        ProblemSpec(
            family=SFFPEP, U=ops["bigU"], T=ops["smallS"],
            A=scalar_map(1.0), B=scalar_map(4.0),
            C=WholeSpace(1), Q=WholeSpace(1),
            alpha=SequenceSpec.const(0.2), beta=SequenceSpec.const(0.125),
            lam=SequenceSpec.const(1.0),   # cap is 2/17
        )


# ---------------------------------------------------------------------------
# extra-gradient


def test_step_extragradient_worked_example():
    spec = get_example("extragradient_1d").spec
    x0 = np.array([10.0])
    res = step_extragradient(spec, x0, [], x0, 0)
    # y0 = z0 = 10 (no image correction), w0 = 5 + 0.5 T(7) = 6.5,
    # first cut {z <= 8.25}, x1 = P(10) = 8.25
    assert res.intermediates["u"][0] == 10.0
    assert res.intermediates["z"][0] == 10.0
    assert res.intermediates["w"][0] == pytest.approx(6.5, abs=1e-14)
    assert res.x[0] == pytest.approx(8.25, abs=1e-12)
    assert len(res.cuts) == 3
    for cut in res.cuts:
        assert contains(cut, [1.0])   # the solution is never cut off


def test_extragradient_identity_freezes_at_projection():
    ops = operator_catalog()
    spec = ProblemSpec(
        family=EXTRAGRADIENT_SFFPP, T=ops["identity"], G=ops["identity"],
        A=scalar_map(1.0), C=Box([0.0], [np.inf]), Q=WholeSpace(1),
        alpha=SequenceSpec.const(0.5), beta=SequenceSpec.const(0.5),
        gamma_seq=SequenceSpec.const(0.5),
    )
    tr = run(spec, [-3.0], rule=StoppingRule(max_iters=5))
    assert tr.records[1].x[0] == 0.0         # P_C(x0) after one step
    for rec in tr.records[2:]:
        assert rec.x[0] == 0.0


def test_extragradient_solution_start_never_moves():
    spec = get_example("extragradient_1d").spec
    tr = run(spec, [1.0], rule=StoppingRule(max_iters=10))
    for rec in tr.records:
        assert rec.x[0] == pytest.approx(1.0, abs=1e-12)


def test_extragradient_monotone_departure_and_cut_membership():
    tr = run_example("extragradient_1d")
    x0 = tr.records[0].x
    departures = [norm(r.x - x0) for r in tr.records]
    assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(departures, departures[1:]))
    assert tr.records[-1].cut_count == 3 * (len(tr.records) - 1)


def test_extragradient_cut_cap_aborts():
    spec = replace(get_example("extragradient_1d").spec, cut_cap=5)
    with pytest.raises(SolverError) as exc:
        run(spec, [10.0], rule=StoppingRule(max_iters=10))
    assert exc.value.iteration == 1


def _halfway_extragradient_run(C):
    """500 iterations of the 2-D extra-gradient run T(x) = (x + (1, 2))/2,
    G = id, A = I from (10, -3)."""
    plane = WholeSpace(2)
    shift = np.array([1.0, 2.0])
    spec = ProblemSpec(
        family=EXTRAGRADIENT_SFFPP,
        T=FixedPointMap(lambda x: (x + shift) / 2.0, plane, QuasiNonexpansive(),
                        known_fixed_points=([1.0, 2.0],)),
        G=FixedPointMap(lambda x: x, plane, Nonexpansive(),
                        known_fixed_points=([0.0, 0.0],)),
        A=LinearMap(np.eye(2)), C=C, Q=plane,
        alpha=SequenceSpec.const(0.5), beta=SequenceSpec.const(0.5),
        gamma_seq=SequenceSpec.const(0.5),
    )
    return run(spec, [10.0, -3.0], rule=StoppingRule(max_iters=500))


def _assert_reaches_the_fixed_point(tr, in_C):
    assert len(tr.records) == 501 and tr.stop_reason == "max_iters"
    x0 = tr.records[0].x
    departures = [norm(r.x - x0) for r in tr.records]
    assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(departures, departures[1:]))
    for rec in tr.records[1:]:
        assert in_C(rec.x)
        assert rec.cut_count == 3 * rec.n
    assert norm(tr.final.x - np.array([1.0, 2.0])) <= 1e-6


def test_extragradient_orthant_run_reaches_500_iterations():
    # the 2-D run whose cuts with C (the nonnegative orthant) make a polyhedron;
    # (1, 2) is feasible throughout, so no step may find the set empty
    tr = _halfway_extragradient_run(Box([0.0, 0.0], [np.inf, np.inf]))
    _assert_reaches_the_fixed_point(tr, lambda x: x.min() >= -1e-12)


def test_extragradient_disc_orthant_run_reaches_500_iterations():
    # C = quarter disc of radius 3: C and the cuts are a polyhedron and one
    # ball, projected exactly; (1, 2) stays feasible, so no step may find the
    # set empty
    C = Intersection([Ball([0.0, 0.0], 3.0), Box([0.0, 0.0], [np.inf, np.inf])])
    tr = _halfway_extragradient_run(C)
    _assert_reaches_the_fixed_point(
        tr, lambda x: x.min() >= -1e-12 and norm(x) <= 3.0 + 1e-9)


@pytest.mark.parametrize("member", [Ball([np.nan, 0.0], 3.0), Halfspace([np.inf, 1.0], 2.0)])
def test_extragradient_run_with_an_undefined_member_reports_a_non_finite_state(member):
    # a member whose numbers describe no set makes the projection onto
    # C ∩ cuts all-NaN at once, rather than a long iterative search
    C = Intersection([Box([0.0, 0.0], [np.inf, np.inf]), member])
    with warnings.catch_warnings(), pytest.raises(NonFiniteState) as exc:
        warnings.simplefilter("error")
        _halfway_extragradient_run(C)
    assert exc.value.iteration == 0


# ---------------------------------------------------------------------------
# driver


def test_run_requires_valid_rule_and_counts_records():
    spec = scfpp_spec()
    with pytest.raises(ValidationError):
        StoppingRule(max_iters=0)
    tr = run(spec, [10.0], rule=StoppingRule(max_iters=1))
    assert len(tr.records) == 2
    assert tr.records[0].n == 0 and tr.records[1].n == 1
    with pytest.raises(ValidationError):
        run(spec, [10.0], rule=None)


def test_run_rejects_a_start_of_the_wrong_dimension():
    ex = get_example("bnm_t1")
    with pytest.raises(ValidationError, match="x0 has 2 entries; A expects 1"):
        run(ex.spec, [10.0, 1.0], [15.0], rule=StoppingRule(max_iters=1))
    with pytest.raises(ValidationError, match="y0 has 2 entries; B expects 1"):
        run(ex.spec, [10.0], [15.0, 1.0], rule=StoppingRule(max_iters=1))
    with pytest.raises(ValidationError, match="x0 has 2 entries; A expects 1"):
        run(scfpp_spec(), [10.0, 1.0], rule=StoppingRule(max_iters=1))


def test_run_two_variable_requires_y0():
    ex = get_example("bnm_t1")
    with pytest.raises(ValidationError):
        run(ex.spec, [10.0], rule=StoppingRule(max_iters=1))


def test_run_stop_reasons():
    spec = scfpp_spec()
    tr = run(spec, [10.0], rule=StoppingRule(max_iters=500, residual_tol=1e-10))
    assert tr.stop_reason == "residual_tol"
    tr = run(spec, [10.0], rule=StoppingRule(max_iters=500, target_tol=1e-6))
    assert tr.stop_reason == "target_tol"
    assert tr.final.dist_to_target <= 1e-6
    tr = run(spec, [10.0], rule=StoppingRule(max_iters=500, stagnation_tol=1e-12))
    assert tr.stop_reason == "stagnation_tol"
    tr = run(spec, [10.0], rule=StoppingRule(max_iters=3))
    assert tr.stop_reason == "max_iters"


def synchronal_with(T):
    """The synchronal demo problem with T swapped for an unchecked rule map."""
    base = get_example("synchronal_demo").spec
    return replace(base, T=map_from_rule(T, WholeSpace(1)), enforce_ranges=False)


@pytest.mark.parametrize("T, x0, iteration", [
    (Rational1D([1.0], [1.0, -1.0]), 1.0, 0),   # 1/(1-x): pole at the start
    # -6/x: T(2) = -3 puts x_1 at exactly 0, where T^2 divides by zero
    (Rational1D([-6.0], [0.0, 1.0]), 2.0, 1),
])
def test_run_reports_a_rule_pole_as_solver_error(T, x0, iteration):
    with pytest.raises(SolverError) as exc:
        run(synchronal_with(T), [x0], rule=StoppingRule(max_iters=5))
    assert exc.value.iteration == iteration
    assert str(exc.value).startswith("iteration %d: division by zero" % iteration)
    assert isinstance(exc.value.__cause__, ZeroDivisionError)


def test_run_raises_on_a_non_finite_state():
    # T(x) = 3x^2 from 2 overflows to inf, then inf - inf gives NaN; the
    # typed error reports it, without a numpy warning first
    spec = synchronal_with(Rational1D([0.0, 0.0, 3.0]))
    with warnings.catch_warnings(), pytest.raises(NonFiniteState) as exc:
        warnings.simplefilter("error")
        run(spec, [2.0], rule=StoppingRule(max_iters=50))
    err = exc.value
    last = err.last_finite
    assert err.iteration == last.n == 3
    assert np.isfinite(last.x).all() and np.isfinite(last.residual_primary)
    assert "iteration 3: non-finite state" in str(err)
    assert "last finite state n=3: x=%s" % last.x.tolist() in str(err)


def test_run_rejects_a_non_finite_start():
    for x0 in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="start point must be finite"):
            run(scfpp_spec(), [x0], rule=StoppingRule(max_iters=1))
    with pytest.raises(ValidationError, match="start point must be finite"):
        run(get_example("bnm_t1").spec, [1.0], [np.nan],
            rule=StoppingRule(max_iters=1))


def test_run_bit_reproducible():
    for ex_id in ("bnm_t1", "wq_t3", "scfpp_smallS", "extragradient_1d"):
        a = run_example(ex_id, rule=StoppingRule(max_iters=40))
        b = run_example(ex_id, rule=StoppingRule(max_iters=40))
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.x, rb.x)
            if ra.y is not None:
                assert np.array_equal(ra.y, rb.y)
            assert ra.residual_primary == rb.residual_primary


def test_trace_layout_constant_and_self_describing():
    for ex_id, slots in (
        ("bnm_t1", ("u", "z", "w", "r")),
        ("scfpp_smallS", ("u",)),
        ("extragradient_1d", ("u", "z", "w", "r")),
    ):
        tr = run_example(ex_id, rule=StoppingRule(max_iters=5))
        assert tr.intermediates == slots
        assert tr.stop_reason in (
            "max_iters", "residual_tol", "stagnation_tol", "target_tol"
        )
        for rec in tr.records[1:]:
            for slot in slots:
                assert getattr(rec, slot) is not None


def test_residual_decay_on_all_presets():
    for ex_id in preset_catalog():
        if ex_id == "synchronal_demo":
            rule = StoppingRule(max_iters=300)
        else:
            rule = None
        tr = run_example(ex_id, rule=rule)
        first = tr.records[0].residual_primary
        last = tr.final.residual_primary
        if ex_id == "bnm_t2":
            assert last == first == 0.0
        else:
            assert last < first


def test_family_completeness_validation():
    ops = operator_catalog()
    with pytest.raises(ValidationError):
        ProblemSpec(family=SFFPEP, U=ops["bigU"], T=ops["smallS"],
                    A=scalar_map(1.0),   # B, C, Q, sequences missing
                    alpha=SequenceSpec.const(0.2))
    with pytest.raises(ValidationError):
        ProblemSpec(family=SCFPP, T=ops["smallS"], G=ops["smallS"],
                    A=scalar_map(1.0), alpha=SequenceSpec.const(0.5))  # no gamma
    with pytest.raises(ValidationError):
        ProblemSpec(family="unheard_of")


def test_specializations_are_expressible_as_configurations():
    # single-extrapolation and pure fixed-point variants of the
    # cut-accumulating solver arise by zeroing the image correction and
    # dropping the projection, not by separate code paths
    ops = operator_catalog()
    spec = ProblemSpec(
        family=EXTRAGRADIENT_SFFPP, T=ops["wqT"], G=ops["identity"],
        A=scalar_map(1.0), C=WholeSpace(1), Q=WholeSpace(1),
        alpha=SequenceSpec.const(0.5), beta=SequenceSpec.const(0.5),
        gamma_seq=SequenceSpec.const(0.0),   # outside (0, 1/L): recorded
        enforce_ranges=False,
    )
    assert spec.warnings
    tr = run(spec, [10.0], rule=StoppingRule(max_iters=200, residual_tol=1e-9))
    assert abs(tr.final.x[0] - 1.0) <= 1e-6


def test_extragradient_accepts_combined_operator_families():
    # the finite-family variant is the same step over convex combinations
    from splitfp.operators import convex_combine, relax

    ops = operator_catalog()
    T_comb = convex_combine(
        [relax(ops["wqT"], 0.5), ops["wqT"]], [0.4, 0.6]
    )
    spec = ProblemSpec(
        family=EXTRAGRADIENT_SFFPP, T=T_comb, G=ops["identity"],
        A=scalar_map(1.0), C=Box([0.0], [np.inf]), Q=WholeSpace(1),
        alpha=SequenceSpec.const(0.5), beta=SequenceSpec.const(0.5),
        gamma_seq=SequenceSpec.const(0.5),
    )
    tr = run(spec, [10.0], rule=StoppingRule(max_iters=300, residual_tol=1e-9))
    assert abs(tr.final.x[0] - 1.0) <= 1e-6


def test_fejer_monotone_distances_where_theory_promises():
    from splitfp.diagnostics import fejer_check

    for ex_id in ("bnm_t1", "wq_t3", "scfpp_smallS", "adaptive_demo"):
        ex = get_example(ex_id)
        tr = run_example(ex_id)
        target = (
            ex.spec.reference_solution
            if ex.spec.two_variable
            else ex.spec.reference_solution[0]
        )
        rep = fejer_check(tr, target, slack=1e-10)
        assert rep.monotone, (ex_id, rep.first_violation)
