"""The extra-gradient cut set: the running fold against C ∩ every cut so far."""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from helpers import array_lane
from splitfp import projections, solvers
from splitfp.operators import FixedPointMap, Nonexpansive, QuasiNonexpansive, SequenceSpec
from splitfp.presets import get_example
from splitfp.problems import EXTRAGRADIENT_SFFPP, ProblemSpec, StoppingRule
from splitfp.projections import (
    Ball,
    Box,
    CutSet,
    Halfspace,
    InfeasibleIntersection,
    Intersection,
    WholeSpace,
    halfspace_from_distance_dominance,
    project,
)
from splitfp.solvers import SolverError, run
from splitfp.spaces import LinearMap

LINE = get_example("extragradient_1d").spec
PLANE = WholeSpace(2)
ORTHANT = Box([0.0, 0.0], [np.inf, np.inf])
DISC_ORTHANT = Intersection([Ball([0.0, 0.0], 3.0), ORTHANT])


def _line(**slots):
    return replace(LINE, enforce_ranges=False, **slots)


def _halfway(C):
    """The 2-D run T(x) = (x + (1, 2))/2, G = id, A = I over C."""
    shift = np.array([1.0, 2.0])
    return ProblemSpec(
        family=EXTRAGRADIENT_SFFPP,
        T=FixedPointMap(lambda x: (x + shift) / 2.0, PLANE, QuasiNonexpansive(),
                        known_fixed_points=([1.0, 2.0],)),
        G=FixedPointMap(lambda x: x, PLANE, Nonexpansive(),
                        known_fixed_points=([0.0, 0.0],)),
        A=LinearMap(np.eye(2)), C=C, Q=PLANE,
        alpha=SequenceSpec.const(0.5), beta=SequenceSpec.const(0.5),
        gamma_seq=SequenceSpec.const(0.5),
    )


# T halves the distance to 1 above 2 and has no value below: the first
# inner point below 2 makes w_n NaN and its cut a NaN-normal halfspace
_UNDEFINED_BELOW_2 = FixedPointMap(
    lambda x: (x + 1.0) / 2.0 if x[0] > 2.0 else x * np.nan, WholeSpace(1),
    QuasiNonexpansive())


def _outcome(S, x):
    """The bits of project(S, x) and their type, or the error it raises."""
    try:
        p = project(S, x)
    except InfeasibleIntersection as err:
        return type(err).__name__, str(err)
    return type(p).__name__, np.asarray(p).tobytes()


def _fold(S):
    """The bits of a 1-D set's interval, else of its rows, and its balls."""
    if S.dim == 1:
        return np.array(S._interval).tobytes()
    (N, b), balls = S._parts
    return N.tobytes(), b.tobytes(), balls


def _run(spec, x0, steps, reference):
    """Run ``spec`` with every projection onto the running cut set checked
    against Intersection([C, *every cut so far]), the form the cuts had as a
    list: the same fold, and the same projected bits or the same error.  With ``reference`` the run
    steps on the intersection's projection instead.  Returns the trace, or
    the SolverError the run raised, and the cuts made."""
    made = []
    cut, real_project = solvers.halfspace_from_distance_dominance, solvers.project

    def recording_cut(near, far):
        made.append(cut(near, far))
        return made[-1]

    def checking_project(S, x):
        if not isinstance(S, CutSet):
            return real_project(S, x)
        assert len(S) == len(made) and S.latest == tuple(made[-3:])
        listed = Intersection([spec.C, *made])
        assert _fold(S) == _fold(listed)
        assert _outcome(S, x) == _outcome(listed, x)
        return real_project(listed if reference else S, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "halfspace_from_distance_dominance", recording_cut)
        mp.setattr(solvers, "project", checking_project)
        try:
            return run(spec, x0, rule=StoppingRule(max_iters=steps)), made
        except SolverError as err:
            return err, made


def _signature(result):
    """A trace's bits, or an error's type, iteration and text."""
    if isinstance(result, SolverError):
        return type(result).__name__, result.iteration, str(result)
    return [(rec.cut_count, *(None if v is None else np.asarray(v).tobytes() for v in (
        rec.x, rec.u, rec.z, rec.w, rec.r, rec.residual_primary)))
        for rec in result.records]


def _starts(dim, low, high):
    return [list(np.random.default_rng(seed).uniform(low, high, dim)) for seed in range(3)]


# name -> (spec, starts, steps, lane, what the run ends in)
CASES = {
    "1-D float": (LINE, _starts(1, -20.0, 20.0), 200, None, "max_iters"),
    "1-D array": (LINE, _starts(1, -20.0, 20.0), 200, array_lane, "max_iters"),
    "2-D orthant": (_halfway(ORTHANT), _starts(2, -10.0, 10.0), 40, None, "max_iters"),
    "2-D disc and orthant": (_halfway(DISC_ORTHANT), _starts(2, -3.0, 3.0), 40, None,
                             "max_iters"),
    # near == far at every step: every cut is the whole space
    "1-D at the solution": (LINE, [[1.0]], 20, None, "max_iters"),
    "2-D at the solution": (_halfway(ORTHANT), [[1.0, 2.0]], 20, None, "max_iters"),
    "undefined cut": (_line(T=_UNDEFINED_BELOW_2), [[10.0]], 50, None, "NonFiniteState"),
    "empty fold": (_line(C=Box([5.0], [np.inf])), [[10.0]], 50, None, "SolverError"),
    "cut cap 9": (_line(cut_cap=9), [[10.0]], 50, None, "CutCapExceeded"),
}


@pytest.mark.parametrize("case", CASES)
def test_the_cut_set_projects_as_c_and_every_cut_so_far(case):
    spec, starts, steps, lane, ends = CASES[case]
    for x0 in starts:
        with (lane or nullcontext)():
            got, made = _run(spec, x0, steps, reference=False)
            want, _ = _run(spec, x0, steps, reference=True)
        assert _signature(got) == _signature(want)
        assert (type(got).__name__ if isinstance(got, SolverError)
                else got.stop_reason) == ends
        if "solution" in case:
            assert made and all(isinstance(cut, WholeSpace) for cut in made)
        if case == "undefined cut":
            assert not all(cut._defined for cut in made[-3:])
    if case == "empty fold":
        assert str(got) == "iteration 3: 1-D intersection is empty: [5, 4.78987]"
    if case == "cut cap 9":
        assert (got.iteration, str(got)) == (
            3, "iteration 3: cut list grew to 12, beyond the cap 9")


def test_adding_cuts_leaves_the_set_it_grew_from_as_it_was():
    for C, cuts, x in (
            (Box([0.0], [np.inf]), [Halfspace([1.0], 3.0), Halfspace([-1.0], -1.0)], [5.0]),
            (ORTHANT, [Halfspace([1.0, 1.0], 2.0), WholeSpace(2)], [5.0, 4.0])):
        start = CutSet(C)
        grown = start.add(*cuts)
        assert (len(start), start.latest, len(grown), grown.latest) == (0, (), 2, tuple(cuts))
        assert _outcome(start, x) == _outcome(C, x)
        assert _outcome(grown, x) == _outcome(Intersection([C, *cuts]), x)


_EDGES = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e-160, 1e154, 1.7e308, -1.7e308,
          np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("near", _EDGES)
def test_a_cut_between_floats_has_the_bits_of_the_cut_between_arrays(near):
    def bits(cut):
        if isinstance(cut, WholeSpace):
            return cut
        return cut.a.tobytes(), cut._defined, np.array([cut.b, *cut._interval]).tobytes()

    for far in _EDGES:
        with np.errstate(all="ignore"):   # the intervals of NaN and infinite cuts
            assert bits(halfspace_from_distance_dominance(near, far)) == bits(
                halfspace_from_distance_dominance(np.array([near]), np.array([far])))


# ---------------------------------------------------------------------------
# constant bookkeeping per step, counted rather than timed


def test_a_1d_run_folds_three_cut_intervals_per_step(monkeypatch):
    folded = []
    fold = projections._fold_intervals

    def counting(bodies):
        folded.append(len(bodies))
        return fold(bodies)

    monkeypatch.setattr(projections, "_fold_intervals", counting)
    trace = run(LINE, [10.0], rule=StoppingRule(max_iters=600))
    assert trace.final.cut_count == 1800
    # C once, then at each step the set so far and three cuts
    assert folded == [1] + [4] * 600


def test_a_2d_run_appends_each_steps_cut_rows_once(monkeypatch):
    stacked = []
    stack = projections._stack_parts

    def counting(bodies):
        stacked.append((len(bodies), bodies[0]._parts[0][0].shape[0]))
        return stack(bodies)

    monkeypatch.setattr(projections, "_stack_parts", counting)
    run(_halfway(ORTHANT), [10.0, -3.0], rule=StoppingRule(max_iters=100))
    # C once, then the set so far and three cuts, the set holding C's two
    # rows and at most three more per step
    assert stacked[0] == (1, 2) and len(stacked) == 101
    assert all(n == 4 and rows <= 2 + 3 * k for k, (n, rows) in enumerate(stacked[1:]))
