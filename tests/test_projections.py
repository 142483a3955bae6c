"""Metric projections, the halfspace builder, and the exact polyhedral and
ball projections, checked against the test-side Dykstra method."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfp import projections, solvers
from splitfp.operators import FixedPointMap, Nonexpansive, QuasiNonexpansive, SequenceSpec
from splitfp.problems import EXTRAGRADIENT_SFFPP, ProblemSpec, StoppingRule
from splitfp.projections import (
    Ball,
    Box,
    CutSet,
    Halfspace,
    InfeasibleIntersection,
    Intersection,
    SeparatingHyperplane,
    WholeSpace,
    contains,
    halfspace_from_distance_dominance,
    project,
)
from splitfp.solvers import run
from splitfp.spaces import DimensionMismatch, LinearMap, inner, norm

from helpers import DykstraNoConvergence, _dykstra
from lemmas import check_projection_inequalities


def test_box_halfline():
    S = Box([0.0], [np.inf])
    assert project(S, [-2.0])[0] == 0.0
    assert project(S, [3.5])[0] == 3.5


def test_halfspace_closed_form():
    S = Halfspace([1.0, 0.0], 0.0)  # z_1 <= 0
    assert_allclose(project(S, [2.0, 3.0]), [0.0, 3.0])
    assert_allclose(project(S, [-1.0, 4.0]), [-1.0, 4.0])


def test_ball_closed_form():
    S = Ball([0.0, 0.0], 1.0)
    assert_allclose(project(S, [2.0, 0.0]), [1.0, 0.0])
    assert_allclose(project(S, [0.3, 0.4]), [0.3, 0.4])


def test_degenerate_halfspace_is_whole_space():
    S = Halfspace([0.0, 0.0], 1.0)
    assert S.is_whole_space
    assert_allclose(project(S, [5.0, -3.0]), [5.0, -3.0])
    with pytest.raises(ValueError):
        Halfspace([0.0], -1.0)


@pytest.mark.parametrize("a0, b, normal, offset", [
    (1e200, 0.0, 1.0, 0.0),         # a.a overflows
    (1e-170, 0.0, 1.0, 0.0),        # a.a underflows to zero
    (1e-200, -1e-200, 1.0, -1.0),   # the set is {z_1 <= -1}, not empty
    (-1e-160, 1e-160, -1.0, 1.0),   # a.a is subnormal
])
@pytest.mark.parametrize("dim", [1, 2])
def test_halfspace_with_a_huge_or_tiny_normal(a0, b, normal, offset, dim):
    # the set is {z : normal z_1 <= offset}; x lies outside it
    pad = [0.0] * (dim - 1)
    x = np.array([3.0 * normal] + [2.0] * (dim - 1))
    want = [offset * normal] + [2.0] * (dim - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = Halfspace([a0] + pad, b)
        assert not H.is_whole_space
        N, c = H.polyhedron
        assert N.tolist() == [[normal] + pad] and c.tolist() == [offset]
        assert_allclose(H._project(x), want, rtol=0, atol=1e-15)
        assert_allclose(project(Intersection([H, Box([-5.0] * dim, [5.0] * dim)]), x),
                        want, rtol=0, atol=1e-12)
    # a normal in range keeps its bits
    assert Halfspace([2.0 ** -400] + pad, 1e-300).a[0] == 2.0 ** -400


def test_intersection_hyperplane_pair():
    # z_1 >= 1 and z_1 <= 1 pin the hyperplane z_1 = 1
    S = Intersection([Halfspace([-1.0, 0.0], -1.0), Halfspace([1.0, 0.0], 1.0)])
    assert_allclose(project(S, [0.0, 5.0]), [1.0, 5.0], atol=1e-10)


def test_intersection_1d_fast_path_exact():
    S = Intersection([
        Box([0.0], [np.inf]),
        Halfspace([1.0], 7.0),      # z <= 7
        Halfspace([-2.0], -4.0),    # z >= 2
    ])
    assert project(S, [10.0])[0] == 7.0
    assert project(S, [1.0])[0] == 2.0
    assert project(S, [5.0])[0] == 5.0


def test_intersection_single_body_matches_closed_form():
    rng = np.random.default_rng(3)
    body = Box([-1.0, 0.0], [2.0, 5.0])
    S = Intersection([body, WholeSpace(2)])
    for _ in range(50):
        x = rng.normal(scale=4.0, size=2)
        assert_allclose(project(S, x), project(body, x), atol=1e-10)


def test_projection_idempotent():
    rng = np.random.default_rng(5)
    bodies = [
        Box([-1.0, -1.0], [1.0, 1.0]),
        Ball([0.5, 0.0], 2.0),
        Halfspace([1.0, 2.0], 1.0),
        Intersection([Ball([0.0, 0.0], 3.0), Halfspace([1.0, 0.0], 0.5)]),
    ]
    for S in bodies:
        for _ in range(50):
            x = rng.normal(scale=3.0, size=2)
            p = project(S, x)
            assert norm(project(S, p) - p) <= 1e-10


def test_projection_nonexpansive_sampled():
    rng = np.random.default_rng(9)
    bodies = [
        Box([-1.0, 0.0], [1.0, np.inf]),
        Ball([1.0, -1.0], 1.5),
        Halfspace([1.0, -1.0], 0.3),
        Intersection([Box([-2.0, -2.0], [2.0, 2.0]), Halfspace([1.0, 1.0], 1.0)]),
        WholeSpace(2),
    ]
    for S in bodies:
        for _ in range(1000):
            x = rng.normal(scale=4.0, size=2)
            y = rng.normal(scale=4.0, size=2)
            assert norm(project(S, x) - project(S, y)) <= norm(x - y) + 1e-10


def test_variational_characterization():
    rng = np.random.default_rng(13)
    S = Ball([0.0, 0.0], 1.0)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=2)
        px = project(S, x)
        for _ in range(100):
            z = project(S, rng.normal(scale=2.0, size=2))
            assert inner(x - px, z - px) <= 1e-9


def test_halfspace_from_distance_dominance_cases():
    same = halfspace_from_distance_dominance([1.0, 2.0], [1.0, 2.0])
    assert isinstance(same, WholeSpace)

    bisector = halfspace_from_distance_dominance([2.0, 0.0], [0.0, 0.0])
    # perpendicular bisector: the set is z_1 >= 1
    assert contains(bisector, [1.5, 7.0])
    assert not contains(bisector, [0.5, 7.0])

    mid = halfspace_from_distance_dominance([5.0], [9.0])
    assert project(mid, [10.0])[0] == pytest.approx(7.0, abs=1e-12)


def test_halfspace_membership_equivalence():
    rng = np.random.default_rng(17)
    near = np.array([1.0, -2.0])
    far = np.array([-3.0, 0.5])
    H = halfspace_from_distance_dominance(near, far)
    for _ in range(1000):
        z = rng.normal(scale=5.0, size=2)
        geometric = norm(near - z) <= norm(far - z) + 1e-12
        assert contains(H, z, tol=1e-9) == geometric


def test_projection_inequality_report_trivial():
    S = Box([0.0], [np.inf])
    rep = check_projection_inequalities(S, [3.0], [4.0])  # x already in S
    assert rep.shrink_lhs == 0.0
    assert rep.passed


def test_projection_inequality_halfline_derived():
    # x = -3 projects to 0: 9 <= 49 - 16 = 33
    S = Box([0.0], [np.inf])
    rep = check_projection_inequalities(S, [-3.0], [4.0])
    assert rep.shrink_lhs == pytest.approx(9.0)
    assert rep.shrink_rhs == pytest.approx(33.0)
    assert rep.passed


def test_projection_inequality_ball_derived():
    # P(2,0) = (1,0): 1 <= 5 - 2 = 3
    S = Ball([0.0, 0.0], 1.0)
    rep = check_projection_inequalities(S, [2.0, 0.0], [0.0, 1.0])
    assert rep.shrink_lhs == pytest.approx(1.0)
    assert rep.shrink_rhs == pytest.approx(3.0)
    assert rep.passed


def test_projection_inequality_rejects_outside_anchor():
    S = Box([0.0], [np.inf])
    with pytest.raises(ValueError):
        check_projection_inequalities(S, [1.0], [-1.0])


def test_empty_intersection_1d():
    S = Intersection([Halfspace([1.0], -1.0), Halfspace([-1.0], -1.0)])
    with pytest.raises(InfeasibleIntersection):
        project(S, [0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("S, x", [
    (Halfspace([1.0], -np.inf), [0.0]),
    (Halfspace([1e-200], -1e300), [0.0]),   # rescaling sends b to -inf
    (Halfspace([1.0, 0.0], -np.inf), [0.0, 0.0]),
    (Intersection([Halfspace([1, 0], -np.inf), Box([-1, -1], [1, 1])]), [0.0, 0.0]),
    (Intersection([Halfspace([1.0], -np.inf), WholeSpace(1)]), [0.0]),
    (Intersection([Halfspace([-1.0], -np.inf)]), [0.0]),
    # so is a box with equal infinite bounds, alone and inside an intersection
    (Box([-np.inf], [-np.inf]), [0.0]),
    (Box([np.inf], [np.inf]), [0.0]),
    (Box([-np.inf, 0.0], [-np.inf, 1.0]), [0.0, 0.0]),
    (Intersection([Box([np.inf], [np.inf]), Halfspace([1.0], 5.0)]), [0.0]),
    (Intersection([Box([-np.inf, 0.0], [-np.inf, 1.0]), Halfspace([1.0, 1.0], 5.0)]),
     [0.0, 0.0]),
    (Intersection([Box([-np.inf, 0.0], [-np.inf, 1.0]), Ball([0.0, 0.0], 1.0)]), [0.0, 0.0]),
    (Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([1.0, 1.0], -np.inf),
                   Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)]), [0.0, 0.0]),
])
def test_halfspace_with_offset_minus_inf_is_empty(S, x):
    with pytest.raises(InfeasibleIntersection):
        project(S, x)


def test_empty_intersection_dykstra_detection():
    # parallel disjoint halfspaces in 2-D: the exact path certifies the
    # emptiness, and the cyclic path, run directly, stalls
    S = Intersection([Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)])
    with pytest.raises(InfeasibleIntersection):
        project(S, [0.0, 0.0])
    with pytest.raises(InfeasibleIntersection):
        _dykstra(S.bodies, np.array([0.0, 0.0]))
    # a ball and a halfspace: the exact path separates them, and the cyclic
    # path, run directly, stalls without a certificate
    S = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -2.0)])
    assert S.polyhedron is None
    with pytest.raises(InfeasibleIntersection) as exc:
        project(S, [0.0, 0.0])
    _assert_separates(exc.value.certificate, S.bodies[1], S.bodies[0])
    with pytest.raises(InfeasibleIntersection) as exc:
        _dykstra(S.bodies, np.array([0.0, 0.0]))
    assert exc.value.certificate is None


def test_dykstra_hyperplane_pair_and_nonexpansive():
    S = Intersection([Halfspace([-1.0, 0.0], -1.0), Halfspace([1.0, 0.0], 1.0)])
    assert_allclose(_dykstra(S.bodies, np.array([0.0, 5.0])), [1.0, 5.0], atol=1e-10)
    rng = np.random.default_rng(9)
    S = Intersection([Box([-2.0, -2.0], [2.0, 2.0]), Ball([0.5, 0.0], 1.5),
                      Halfspace([1.0, 1.0], 1.0)])
    assert S.polyhedron is None
    for _ in range(300):
        x = rng.normal(scale=4.0, size=2)
        y = rng.normal(scale=4.0, size=2)
        assert norm(project(S, x) - project(S, y)) <= norm(x - y) + 1e-10
        assert norm(_dykstra(S.bodies, x) - _dykstra(S.bodies, y)) <= norm(x - y) + 1e-10


def _assert_farkas(S, certificate):
    N, b = S.polyhedron
    y = certificate
    assert y.shape == b.shape and np.all(y >= 0.0)
    assert_allclose(y @ N, 0.0, atol=1e-12)
    assert y @ b < 0.0


def test_empty_polyhedron_carries_a_farkas_certificate():
    S = Intersection([Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)])
    with pytest.raises(InfeasibleIntersection) as exc:
        project(S, [0.0, 0.0])
    _assert_farkas(S, exc.value.certificate)
    # the unit cube cut by x + y + z >= 4: the certificate needs three box rows
    S = Intersection([Box([0.0] * 3, [1.0] * 3), Halfspace([-1.0, -1.0, -1.0], -4.0)])
    with pytest.raises(InfeasibleIntersection) as exc:
        project(S, [5.0, -2.0, 0.5])
    _assert_farkas(S, exc.value.certificate)
    assert np.count_nonzero(exc.value.certificate) == 4


def test_row_tolerance_ignores_the_bounds_of_other_rows():
    # a far box bound must not loosen the test of the cut through the origin
    S = Intersection([Box([-1e15] * 2, [1e15] * 2), Halfspace([1.0, 0.0], 0.0)])
    assert_allclose(project(S, [500.0, 0.0]), [0.0, 0.0], atol=1e-12)
    S = Intersection([Box([-1e6] * 3, [1e6] * 3), Halfspace([1.0, 1.0, 0.0], 1.0),
                      Halfspace([0.0, 0.0, -1.0], 0.0)])
    z = project(S, [3.0, 4.0, -1e-7])
    assert_allclose(z, [0.0, 1.0, 0.0], atol=1e-12)


def test_non_finite_members_leave_the_exact_path():
    # an offset of +inf and a radius of +inf are the whole space: no row, no
    # ball; a NaN bound leaves a NaN offset, which makes the projection NaN
    assert Halfspace([1.0, 0.0], np.inf).polyhedron[0].shape == (0, 2)
    assert np.isnan(Box([np.nan, 0.0], [1.0, 1.0]).polyhedron[1]).any()
    S = Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([1.0, 0.0], np.inf)])
    assert_allclose(S.polyhedron[1], [1.0, 1.0, 0.0, 0.0])
    assert_allclose(project(S, [2.0, -1.0]), [1.0, 0.0], atol=1e-12)
    S = Intersection([Box([0.0, 0.0], [1.0, 1.0]), Ball([0.0, 0.0], np.inf)])
    assert S._parts[1] == () and S.polyhedron[1].size == 4
    assert_allclose(project(S, [2.0, -1.0]), [1.0, 0.0], atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("S", [
    Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([1.0, 0.0], np.nan)]),
    Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([np.nan, 0.0], 1.0)]),
    Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([0.0, 0.0], np.nan)]),
    Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([np.inf, 0.0], 1.0)]),
    Intersection([Box([np.nan, 0.0], [1.0, 1.0]), Halfspace([1.0, 1.0], 1.0)]),
    Intersection([Box([0.0, 0.0], [1.0, 1.0]), Ball([np.inf, 0.0], 1.0)]),
    Intersection([Box([0.0, 0.0], [1.0, 1.0]), Ball([np.nan, 0.0], np.inf)]),
    Intersection([Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], np.nan)]),
    Intersection([Intersection([Ball([0.0, 0.0], 2.0), Halfspace([1.0, 0.0], np.nan)]),
                  Ball([1.0, 0.0], 1.0), Ball([0.0, 1.0], 1.0)]),
    Intersection([Halfspace([1.0], 1.0), Box([np.nan], [1.0])]),
    Intersection([Box([-1.0], [1.0]), Halfspace([np.nan], 1.0)]),
    Intersection([Box([-1.0], [1.0]), Halfspace([-np.inf], 1.0)]),
    Intersection([Intersection([Box([-1.0], [1.0]), Ball([np.inf], 1.0)]), WholeSpace(1)]),
    Intersection([Ball([0.0], np.nan), Halfspace([1.0], 1.0)]),
    Ball([np.inf, 0.0], 1.0),
    Halfspace([np.inf, 0.0], 1.0),
    Box([np.nan, 0.0], [1.0, 1.0]),
])
def test_members_whose_numbers_describe_no_set_project_to_nan(S):
    # a NaN, or an infinite normal or centre: all-NaN at once, in 1-D too,
    # alone or inside an intersection
    assert np.isnan(project(S, np.zeros(S.dim))).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("S", [
    Halfspace([np.inf, 0.0], 1.0),
    Halfspace([-np.inf], 1.0),
    Halfspace([1.0, 0.0], np.nan),
    Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([np.inf, np.inf], 1.0)]),
])
def test_undefined_halfspace_has_a_nan_row_and_no_warning(S):
    N, b = S.polyhedron
    assert np.isnan(N[-1]).all() and np.isnan(b[-1])


def test_certificate_bounds_the_radius_it_excludes():
    # nearly parallel rows crossing at z_1 <= -2e13 are taken as empty; the
    # certificate still shows that no point lies within 1e13 of the origin
    S = Intersection([Halfspace([0.0, 1.0], -1.0), Halfspace([1e-13, -1.0], -1.0)])
    with pytest.raises(InfeasibleIntersection) as exc:
        project(S, [0.0, 0.0])
    N, b = S.polyhedron
    y = exc.value.certificate
    assert np.all(y >= 0.0) and y @ b < 0.0
    assert -(y @ b) >= 1e13 * norm(y @ N)


def test_polyhedron_rows():
    S = Intersection([
        Intersection([Box([0.0, -np.inf], [np.inf, 3.0]), WholeSpace(2)]),
        Halfspace([3.0, 4.0], 10.0),
        Halfspace([0.0, 0.0], 1.0),
    ])
    N, b = S.polyhedron
    assert_allclose(N, [[0.0, 1.0], [-1.0, 0.0], [0.6, 0.8]])
    assert_allclose(b, [3.0, 0.0, 2.0])
    assert not N.flags.writeable and not b.flags.writeable
    assert Intersection([Box([0.0, 0.0], [1.0, 1.0]), Ball([0.0, 0.0], 1.0)]).polyhedron is None
    assert Intersection([S, Ball([0.0, 0.0], 1.0)]).polyhedron is None


def test_polyhedral_projection_passes_nan_through():
    S = Intersection([Box([0.0, 0.0], [1.0, 1.0]), Halfspace([1.0, 1.0], 1.5)])
    assert np.isnan(project(S, [np.nan, 0.5])).any()


def _seeded_polyhedra(seed, count):
    """Box (some sides open) cut by 1-4 halfspaces around an interior point."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        dim = 2 + k % 2
        lower = rng.uniform(-3.0, -0.5, dim)
        upper = rng.uniform(0.5, 3.0, dim)
        lower[rng.random(dim) < 0.2] = -np.inf
        upper[rng.random(dim) < 0.2] = np.inf
        center = rng.uniform(-0.4, 0.4, dim)
        cuts = []
        for _ in range(rng.integers(1, 5)):
            a = rng.normal(size=dim)
            cuts.append(Halfspace(a, a @ center + rng.uniform(0.05, 1.0)))
        yield Intersection([Box(lower, upper), *cuts]), rng.normal(scale=4.0, size=(5, dim))


def test_polyhedral_projection_satisfies_kkt():
    for S, points in _seeded_polyhedra(21, 200):
        N, b = S.polyhedron
        for x in points:
            z = project(S, x)
            slack = N @ z - b
            assert slack.max() <= 1e-9
            for body in S.bodies:
                assert contains(body, z, tol=1e-9)
            active = slack > -1e-9
            u = np.linalg.lstsq(N[active].T, x - z, rcond=None)[0]
            assert np.all(u >= -1e-9)
            assert norm(x - z - N[active].T @ u) <= 1e-9 * (1.0 + norm(x))


def test_polyhedral_projection_agrees_with_dykstra():
    compared = 0
    for S, points in _seeded_polyhedra(34, 200):
        for x in points:
            try:
                reference = _dykstra(S.bodies, x)
            except (InfeasibleIntersection, DykstraNoConvergence):
                continue
            assert norm(project(S, x) - reference) <= 1e-9 * (1.0 + norm(x))
            compared += 1
    assert compared >= 950


def _ball_sets(seed, count):
    """1-4 balls, cut on two sets in three by a box (some sides open) and
    1-3 halfspaces, all around an interior point; 5 points each."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        dim = 2 + k % 2
        center = rng.uniform(-0.4, 0.4, dim)
        balls = []
        for _ in range(1 + k // 2 % 4):
            radius = rng.uniform(0.2, 2.5)
            balls.append(Ball(center + rng.uniform(-0.5, 0.5, dim) * radius, radius))
        members = balls
        if k % 3:
            lower = rng.uniform(-3.0, -0.5, dim)
            upper = rng.uniform(0.5, 3.0, dim)
            lower[rng.random(dim) < 0.2] = -np.inf
            upper[rng.random(dim) < 0.2] = np.inf
            cuts = []
            for _ in range(rng.integers(1, 4)):
                a = rng.normal(size=dim)
                cuts.append(Halfspace(a, a @ center + rng.uniform(0.05, 1.0)))
            # nested every other time, as C ∩ cuts is built
            polyhedral = [Box(lower, upper), *cuts]
            members = ([Intersection(polyhedral)] if k // 3 % 2 else polyhedral) + balls
        yield Intersection(members), rng.normal(scale=4.0, size=(5, dim))


def test_ball_projection_satisfies_kkt():
    for S, points in _ball_sets(41, 200):
        (N, b), balls = S._parts
        for x in points:
            z = project(S, x)
            slack = N @ z - b
            assert slack.size == 0 or slack.max() <= 1e-9
            for ball in balls:
                assert norm(z - ball.center) <= ball.radius + 1e-9
            active = slack > -1e-9
            on_sphere = [ball for ball in balls
                         if norm(z - ball.center) >= ball.radius - 1e-9]
            columns = np.column_stack([N[active].T]
                                      + [z - ball.center for ball in on_sphere])
            u = np.linalg.lstsq(columns, x - z, rcond=None)[0]
            assert np.all(u >= -1e-9)
            assert norm(x - z - columns @ u) <= 1e-9 * (1.0 + norm(x))


def test_ball_projection_agrees_with_dykstra():
    compared = 0
    for S, points in _ball_sets(52, 100):
        for x in points:
            try:
                reference = _dykstra(S.bodies, x)
            except (InfeasibleIntersection, DykstraNoConvergence):
                continue
            assert norm(project(S, x) - reference) <= 1e-9 * (1.0 + norm(x))
            compared += 1
    assert compared >= 450


def test_ball_projection_nonexpansive():
    rng = np.random.default_rng(63)
    for S, _ in _ball_sets(63, 40):
        for _ in range(50):
            x = rng.normal(scale=4.0, size=S.dim)
            y = x + rng.normal(scale=10.0 ** rng.uniform(-6.0, 0.0), size=S.dim)
            assert norm(project(S, x) - project(S, y)) <= norm(x - y) * (1.0 + 1e-9) + 1e-12


def test_ball_projections_pass_nan_through():
    for S in (Intersection([Box([0.0, 0.0], [1.0, 1.0]), Ball([0.0, 0.0], 1.2)]),
              Intersection([Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)])):
        assert np.isnan(project(S, [np.nan, 0.5])).any()


def _assert_separates(certificate, first, second):
    """Every point of ``first`` lies at or below the hyperplane, every point
    of ``second`` (a ball) at or above it, with a gap between."""
    assert isinstance(certificate, SeparatingHyperplane)
    normal, offset = certificate.normal, certificate.offset
    assert norm(normal) == pytest.approx(1.0, abs=1e-15)
    assert not normal.flags.writeable and certificate.gap > 0.0
    assert normal @ second.center - second.radius >= offset + certificate.gap - 1e-12
    if isinstance(first, Ball):
        assert normal @ first.center + first.radius <= offset + 1e-12
    else:   # sample the polyhedron through its own projection
        rng = np.random.default_rng(0)
        for x in rng.normal(scale=10.0, size=(200, first.dim)):
            assert normal @ project(first, x) <= offset + 1e-12


def test_empty_ball_intersections_carry_a_separating_hyperplane():
    box = Box([0.0, 0.0], [1.0, 1.0])
    ball = Ball([3.0, 2.5], 2.0)
    with pytest.raises(InfeasibleIntersection) as exc:
        project(Intersection([box, ball]), [0.5, 0.5])
    _assert_separates(exc.value.certificate, box, ball)
    first, second = Ball([0.0, 0.0, 0.0], 1.0), Ball([1.0, 2.0, 2.0], 1.9)
    with pytest.raises(InfeasibleIntersection) as exc:
        project(Intersection([first, second]), [0.0, 0.0, 5.0])
    _assert_separates(exc.value.certificate, first, second)
    # an empty polyhedral part keeps its Farkas vector
    S = Intersection([Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)])
    with pytest.raises(InfeasibleIntersection) as exc:
        project(Intersection([S, Ball([0.0, 0.0], 5.0)]), [0.0, 0.0])
    _assert_farkas(S, exc.value.certificate)


def test_lens_projection_is_not_declared_empty():
    lens = [Ball([0.0, 0.0], 1.0), Ball([2.0, 0.0], 1.01)]
    # a halfspace that does not bind used to send the lens back to Dykstra,
    # whose patience rule called it empty
    for S in (Intersection(lens), Intersection(lens + [Halfspace([0.0, 1.0], 5.0)])):
        x = np.array([1.0, 3.0])
        z = project(S, x)
        assert norm(z) <= 1.0 + 1e-9 and norm(z - [2.0, 0.0]) <= 1.01 + 1e-9
        assert z[1] <= 5.0
        assert norm(z - x) <= norm(np.array([1.0, 0.0]) - x)


def _three_discs(radius):
    # centres with circumradius about 1.066
    return Intersection([Ball([0.0, 0.0], radius), Ball([1.9, 0.0], radius),
                         Ball([0.95, 1.55], radius)])


@pytest.mark.parametrize("S, x", [
    # demo 02's cut_lens
    (Intersection([Ball([0.0, 0.0], 1.5), Ball([1.0, 0.0], 1.5),
                   Halfspace([0.0, 1.0], 0.5)]), [3.0, 1.0]),
    (_three_discs(1.1), [5.0, 5.0]),
    (_three_discs(1.1), [0.95, -4.0]),
    # concentric balls, with and without rows, and equal ones
    (Intersection([Ball([1.0, 1.0], 2.0), Ball([1.0, 1.0], 1.0)]), [4.0, -3.0]),
    (Intersection([Ball([1.0, 1.0], 1.0), Ball([1.0, 1.0], 2.0),
                   Halfspace([1.0, 1.0], 2.5)]), [4.0, 3.0]),
    (Intersection([Ball([0.0, 0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0),
                   Ball([1.5, 0.0, 0.0], 1.0)]), [0.7, 3.0, -1.0]),
])
def test_fixed_ball_sets_agree_with_dykstra(S, x):
    x = np.array(x)
    assert norm(project(S, x) - _dykstra(S.bodies, x)) <= 1e-9 * (1.0 + norm(x))


def test_three_discs_without_a_common_point_are_empty():
    # each pair meets, all three do not: only the all-active step sees it,
    # through rows that are not the set's, so there is no certificate
    with pytest.raises(InfeasibleIntersection) as exc:
        project(_three_discs(1.0), [5.0, 5.0])
    assert exc.value.certificate is None
    assert "Ball(center=[0.95, 1.55], radius=1.0)" in str(exc.value)


# ---------------------------------------------------------------------------
# stacks of points


@pytest.mark.parametrize("S", [
    Halfspace([1.0, -2.0], 0.5),
    Intersection([Ball([0.0, 0.0], 4.0), Box([-1.0, -5.0], [5.0, 5.0])]),
    CutSet(Box([-1.0], [2.0])).add(Halfspace([1.0], 1.5), Halfspace([-1.0], 0.5)),
    CutSet(Ball([0.0, 0.0], 3.0)).add(Halfspace([1.0, 1.0], 1.0), Box([-2.0, -5.0],
                                                                     [5.0, 5.0])),
    Halfspace([math.nan, 1.0], 0.0),   # no set: every row projects to NaN
    Ball([0.0, math.nan], 1.0),
], ids=repr)
def test_a_stack_projects_as_its_rows_do(S):
    # a body that does not stack is projected row by row, each row with the
    # bits of its own projection
    X = np.random.default_rng(29).uniform(-8.0, 8.0, (60, S.dim))
    X = np.concatenate([X, np.zeros((1, S.dim)), -X[:1], np.full((1, S.dim), math.nan)])
    got = project(S, X)
    assert got.shape == X.shape
    assert got.tobytes() == np.array([project(S, x) for x in X]).tobytes()
    assert project(S, X[:0]).shape == (0, S.dim)


@pytest.mark.parametrize("x", [[math.inf, 0.0], [-math.inf, 2.0], [math.inf, -math.inf],
                               [math.nan, math.inf]])
def test_a_point_with_an_infinite_entry_projects_onto_a_ball_as_its_stack_row(x):
    # 0 * inf is NaN for one point as for a stack, and neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project(Ball([0.0, 0.0], 1.0), x)
        assert got.tobytes() == project(Ball([0.0, 0.0], 1.0), [x])[0].tobytes()
    assert np.isnan(got[np.isinf(x) | np.isnan(x)]).all()


def test_a_finite_point_whose_difference_from_the_centre_overflows_projects_onto_a_ball():
    # x - c overflows to inf; the halves 0.5 x - 0.5 c do not, and give the
    # direction, for one point as for a stack row, and neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        B = Ball([-1e308, 0.0], 1.0)
        assert project(B, [1e308, 0.0]).tolist() == [-1e308, 0.0]
        X = np.array([[1e308, 0.0], [1e308, 1e308], [0.0, 0.0], [-1e308, 0.5],
                      [math.inf, 0.0]])
        for S in (B, Ball([-1e308, 0.0], 1e307), Ball([-1e308, 0.0], math.inf)):
            got = project(S, X)
            assert got.tobytes() == np.array([project(S, x) for x in X]).tobytes()
        assert_allclose(got[:2], X[:2])   # no point lies outside an infinite radius
        assert_allclose(project(Ball([-1e308, 0.0], 1e307), X[:2]),
                        [[-9e307, 0.0], [-1e308 + 2e307 / 5 ** 0.5, 1e307 / 5 ** 0.5]],
                        rtol=1e-15)
    assert np.isnan(project(B, X[4])[0])


def test_a_ball_whose_difference_from_the_point_overflows_projects_inside_an_intersection():
    # with rows beside the ball, z - c and c - x overflow as for the ball
    # alone; the search takes their halves, and neither warns nor stops short
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = Intersection([Ball([-1e308, 0.0], 1.0), Halfspace([0.0, 1.0], 5.0)])
        assert_allclose(project(S, [1e308, 0.0]), [-1e308, 0.0], rtol=1e-11)
        S = Intersection([Ball([-1e308, 0.0], 1e307), Halfspace([0.0, 1.0], 5.0)])
        assert_allclose(project(S, [1e308, 1e308]), [-9e307, 0.0], rtol=1e-11, atol=5.0)
        assert_allclose(project(S, [1e308, -1e307]),
                        project(Ball([-1e308, 0.0], 1e307), [1e308, -1e307]), rtol=1e-11)
        S = Intersection([Ball([-1e308, 0.0], 1e306), Halfspace([0.0, -1.0], -1e307)])
        with pytest.raises(InfeasibleIntersection, match="9.000e[+]306 beyond") as err:
            project(S, [1e308, 0.0])
    assert err.value.certificate.normal.tolist() == [0.0, -1.0]


def test_a_row_violation_that_overflows_is_solved_on_halves():
    # a finite point whose N z - b overflows was read as lying beyond a
    # dependent row, so the set looked empty, and one whose norm overflows
    # looked inside every row; the halves, P_K(x) = 2 P_{K/2}(x / 2),
    # overflow in neither
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = Intersection([Halfspace([1.0, 0.0], -1e308), Halfspace([0.0, 1.0], 0.0)])
        assert project(S, [1e308, 0.0]).tolist() == [-1e308, 0.0]
        S = Intersection([Halfspace([1.0, 1.0], 0.0), Halfspace([0.0, 1.0], 1.0)])
        assert project(S, [1.7e308, 1.7e308]).tolist() == [0.0, 0.0]
        assert project(S, [1.7e308, -1.7e308]).tolist() == [1.7e308, -1.7e308]


def test_balls_too_far_apart_to_subtract_carry_a_finite_certificate():
    # c_2 - c_1 overflows; its halves give the normal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = Intersection([Ball([-1e308, 0.0], 1.0), Ball([1e308, 0.0], 1.0)])
        with pytest.raises(InfeasibleIntersection, match="the balls lie inf apart") as err:
            project(S, [0.0, 1.0])
    certificate = err.value.certificate
    assert certificate.normal.tolist() == [1.0, 0.0]
    assert math.isfinite(certificate.offset) and certificate.gap > 0.0


@pytest.mark.parametrize("R", [1e154, 1e155, 1e160, 1e300])
def test_a_lens_of_balls_whose_radii_square_past_the_largest_double(R):
    # the radical hyperplane's offset squares the radii and the distance of
    # the centres; at R = 1e155 and 1e160 a square overflowed (a bare
    # OverflowError), and at R = 1e154 their sum did (a point outside B2)
    S = Intersection([Ball([0.0, 0.0], R), Ball([R, 0.0], R)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = project(S, [0.5 * R, 10.0 * R])
    # the same lens at unit scale: its top corner (1/2, sqrt(3)/2)
    unit = project(Intersection([Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)]), [0.5, 10.0])
    assert_allclose(z / R, unit, rtol=1e-9)
    for c in ([0.0, 0.0], [1.0, 0.0]):
        assert norm(z / R - c) <= 1.0 + 1e-9


def test_a_square_stack_projects_row_by_row():
    # a (2, 2) stack is two points of the disc's plane, not one point
    assert project(Ball([0, 0], 1), [[3, 0], [0, 0.5]]).tolist() == [[1.0, 0.0],
                                                                      [0.0, 0.5]]
    assert project(Ball([0, 0], 1), [[3, 0], [0, 0.5], [0, -2]]).tolist() == [
        [1.0, 0.0], [0.0, 0.5], [0.0, -1.0]]


def test_a_stack_must_end_in_the_sets_dimension():
    with pytest.raises(DimensionMismatch, match=r"^expected a point or an \(S, d\) stack"):
        project(Ball([0, 0], 1), np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch,
                       match="^point dimension 3 does not match set dimension 2$"):
        project(Halfspace([1.0, 0.0], 0.0), np.zeros((2, 3)))


def test_contains_takes_one_point_only():
    # a pair of points is refused, not read as one point
    with pytest.raises(DimensionMismatch, match=r"^expected one point, got shape \(2, 2\)$"):
        contains(WholeSpace(2), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionMismatch, match=r"^expected one point"):
        contains(Ball([0, 0], 1), [[3, 0], [0, 0.5]])
    assert contains(Ball([0, 0], 1), [0, 0.5]) and not contains(Ball([0, 0], 1), [3, 0])


# ---------------------------------------------------------------------------
# the bits of every exact path


def _digest_cases():
    """Sets and points over every path of the exact projection: box ∩ ball ∩
    halfspace sets with stratified points as the bench builds them, rows
    alone, the lens, two to four balls with and without rows, empty rows
    next to a ball, a ball beyond its rows, and stacks."""
    rng = np.random.default_rng(71)
    for box, ball, cut in ((([-1.0, -1.0], [2.0, 2.0]), ([0.5, 0.5], 2.0),
                            ([1.0, 1.0], 2.0)),
                           (([-1.0] * 3, [1.0] * 3), ([0.0] * 3, 1.3),
                            ([1.0, -1.0, 1.0], 1.0))):
        S = Intersection([Box(*box), Ball(*ball), Halfspace(*cut)])
        directions = rng.normal(size=(150, S.dim))
        radii = rng.uniform(0.5, 5.0, (150, 1))
        for x in ball[0] + radii * directions / np.linalg.norm(directions, axis=1)[:, None]:
            yield S, x
    for S, points in _seeded_polyhedra(83, 60):
        for x in points:
            yield S, x
    for S, points in _ball_sets(84, 60):
        for x in points:
            yield S, x
    lens = [Ball([0.0, 0.0], 1.0), Ball([2.0, 0.0], 1.01)]
    for S in (Intersection(lens), Intersection(lens + [Halfspace([0.0, 1.0], 0.5)]),
              _three_discs(1.1), _three_discs(1.0)):
        for x in ([1.0, 3.0], [1.0, -3.0], [-4.0, 0.5], [1.0, 0.0], [np.nan, 1.0]):
            yield S, np.array(x)
    strip = [Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)]
    far = [Box([0.0, 0.0], [1.0, 1.0]), Ball([3.0, 2.5], 2.0)]
    for S in (Intersection(strip + [Ball([0.0, 0.0], 5.0)]),
              Intersection(strip + [Ball([0.0, 0.0], 5.0), Ball([1.0, 0.0], 5.0)]),
              Intersection(far), Intersection(far + [Ball([3.0, 2.5], 2.5)])):
        for x in ([0.0, 0.0], [0.5, 0.5], [9.0, -7.0], [3.0, 2.5]):
            yield S, np.array(x)
    yield Intersection([Ball([0.0, 0.0, 0.0], 1.0), Ball([1.0, 2.0, 2.0], 1.9)]), \
        np.array([0.0, 0.0, 5.0])
    X = rng.uniform(-4.0, 4.0, (40, 2))
    for S in (Intersection([Box([-1.0, -1.0], [2.0, 2.0]), Ball([0.5, 0.5], 2.0),
                            Halfspace([1.0, 1.0], 2.0)]),
              Intersection(lens), Ball([0.5, 0.5], 2.0), Box([-1.0, -1.0], [2.0, 2.0]),
              CutSet(Ball([0.0, 0.0], 3.0)).add(Halfspace([1.0, 1.0], 1.0))):
        yield S, X


def _outcome_bytes(S, x):
    """The bits of project(S, x), or the error's type, message and
    certificate."""
    try:
        out = project(S, x)
    except InfeasibleIntersection as err:
        cert = err.certificate
        if isinstance(cert, SeparatingHyperplane):
            cert = np.concatenate([cert.normal, [cert.offset, cert.gap]])
        return b"|".join([type(err).__name__.encode(), str(err).encode(),
                          b"" if cert is None else cert.tobytes()])
    return str(out.shape).encode() + out.tobytes()


def test_every_exact_path_keeps_its_bits():
    # the digest of the outputs at the commit before the projections held
    # their sets' constants; any change to a projected bit, an error or a
    # certificate changes it
    digest = hashlib.sha256()
    for S, x in _digest_cases():
        digest.update(_outcome_bytes(S, x))
    assert digest.hexdigest() == (
        "524c51d2666a4d56aaf502720e4777087348465bb8e7d562a101d55ece56a187")


def _strided(x):
    """``x``'s values in a view that steps two entries along its last axis."""
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
    wide[..., ::2] = x
    return wide[..., ::2]


def test_a_strided_point_keeps_the_bits_of_its_copy():
    for S, x in _digest_cases():
        assert _outcome_bytes(S, _strided(x)) == _outcome_bytes(S, x)


_KERNEL_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300,
                   1e300, -1e300, 1.0, -1.0]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_kernels_products_have_the_bits_of_matmul(d):
    # the active-set kernel takes N z, N_p z and, over two or more active
    # rows, N_A^T w as ndarray.dot: each contracts two or more entries of
    # C-contiguous rows or their transpose, where dot has the bits of @
    rng = np.random.default_rng(d)
    with np.errstate(all="ignore"):
        for _ in range(4000):
            m = int(rng.integers(1, 129))
            N, z = rng.normal(size=(m, d)), rng.normal(size=d)
            for a in (N, z):
                special = rng.random(a.shape) < 0.4
                a[special] = rng.choice(_KERNEL_SPECIAL, int(special.sum()))
            assert N.dot(z).tobytes() == (N @ z).tobytes()
            p = int(rng.integers(m))
            assert np.float64(N[p].dot(z)).tobytes() == (N[p] @ z).tobytes()
            if m > 1:
                k = int(rng.integers(2, min(m, d) + 1))
                rows = N[list(rng.choice(m, k, replace=False))].T
                w = z[:k]
                assert rows.dot(w).tobytes() == (rows @ w).tobytes()


# ---------------------------------------------------------------------------
# what a set keeps between points


def _bench_3d_set():
    """The box ∩ ball ∩ halfspace set of the bench's 3-D projections, and 300
    points 0.5 to 5 from the ball's centre."""
    S = Intersection([Box([-1.0] * 3, [1.0] * 3), Ball([0.0] * 3, 1.3),
                      Halfspace([1.0, -1.0, 1.0], 1.0)])
    rng = np.random.default_rng(37)
    directions = rng.normal(size=(300, 3))
    radii = rng.uniform(0.5, 5.0, (300, 1))
    return S, radii * directions / np.linalg.norm(directions, axis=1)[:, None]


def test_a_set_solves_each_active_set_step_once(monkeypatch):
    # a step's solve N_A^T r = N_p depends on the set's rows alone; the ball
    # search's solve for its rate depends on the point, and is not counted
    S, X = _bench_3d_set()
    N = S._K.N
    solves = []
    lstsq = np.linalg.lstsq

    def counted(a, b, rcond=None):
        if any(np.array_equal(b, row) for row in N):
            solves.append((a.tobytes(), b.tobytes()))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    first = np.array([project(S, x) for x in X])
    assert solves and len(solves) == len(set(solves))
    assert len(solves) == sum(1 for active, _ in S._K._steps if active)
    solves.clear()
    again = np.array([project(S, x) for x in X])
    assert solves == []
    assert again.tobytes() == first.tobytes()


def test_a_kept_step_is_read_only_with_the_bits_of_a_fresh_solve():
    S, X = _bench_3d_set()
    for x in X:
        project(S, x)
    K = S._K
    assert sum(1 for active, _ in K._steps if len(active) > 1)
    for (active, p), (r, d, dd) in K._steps.items():
        assert not r.flags.writeable and not d.flags.writeable
        columns = K.N[list(active)].T
        fresh = np.linalg.lstsq(columns, K.N[p], rcond=None)[0] if active else np.zeros(0)
        assert r.tobytes() == fresh.tobytes()
        assert d.tobytes() == (K.N[p] - columns @ fresh if active else K.N[p]).tobytes()
        assert dd == float(d @ d)


def test_the_lens_builds_its_radical_rows_once(monkeypatch):
    balls = ([0.0, 0.0], 1.0), ([2.0, 0.0], 1.01)
    points = [[1.0, 3.0], [1.0, -3.0], [0.8, 4.0], [1.3, -6.0], [1.0, 3.0]]
    fresh = [project(Intersection([Ball(*b) for b in balls]), x) for x in points]
    built = []
    init = projections._Polyhedron.__init__

    def counted(self, N, b):
        built.append(N.shape)
        init(self, N, b)

    monkeypatch.setattr(projections._Polyhedron, "__init__", counted)
    lens = Intersection([Ball(*b) for b in balls])
    got = [project(lens, x) for x in points]
    # the set's (empty) rows, and one radical hyperplane as two rows
    assert built == [(0, 2), (2, 2)]
    assert np.array(got).tobytes() == np.array(fresh).tobytes()
    for z in got:   # every point reached the all-active step: on both spheres
        assert abs(norm(z) - 1.0) <= 1e-12 and abs(norm(z - [2.0, 0.0]) - 1.01) <= 1e-12
    # balls that lie apart raise their certificate for every point
    apart = Intersection([Ball([0.0, 0.0], 1.0), Ball([3.0, 0.0], 1.0)])
    for x in ([1.5, 2.0], [1.5, -2.0]):
        with pytest.raises(InfeasibleIntersection, match="the balls lie 1.000e[+]00 apart") \
                as exc:
            project(apart, x)
        assert (exc.value.certificate.normal.tolist(), exc.value.certificate.offset,
                exc.value.certificate.gap) == ([1.0, 0.0], 1.0, 1.0)


def test_a_grown_cut_set_solves_no_step_its_parent_solved(monkeypatch):
    # the bench's orthant extra-gradient run, taken to 80 steps: a grown
    # fold's rows begin with its parent's, at the same indices, so it takes
    # over the parent's step solves and no solve is made twice (else 28 of
    # 134 would be); each projection keeps the bits of the cold
    # Intersection([C, *cuts])
    shift = np.array([1.0, 2.0])
    plane, orthant = WholeSpace(2), Box([0.0, 0.0], [np.inf, np.inf])
    spec = ProblemSpec(
        family=EXTRAGRADIENT_SFFPP,
        T=FixedPointMap(lambda x: (x + shift) / 2.0, plane, QuasiNonexpansive(),
                        known_fixed_points=([1.0, 2.0],)),
        G=FixedPointMap(lambda x: x, plane, Nonexpansive(),
                        known_fixed_points=([0.0, 0.0],)),
        A=LinearMap(np.eye(2)), C=orthant, Q=plane, alpha=SequenceSpec.const(0.5),
        beta=SequenceSpec.const(0.5), gamma_seq=SequenceSpec.const(0.5))
    solves, made, projected = [], [], []
    lstsq, cut = np.linalg.lstsq, solvers.halfspace_from_distance_dominance
    real_project = solvers.project

    def counted(a, b, rcond=None):
        solves.append((a.tobytes(), b.tobytes()))
        return lstsq(a, b, rcond=rcond)

    def recording_cut(near, far):
        made.append(cut(near, far))
        return made[-1]

    def recording_project(S, x):
        out = real_project(S, x)
        if isinstance(S, CutSet):
            projected.append((len(made), x, out))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    monkeypatch.setattr(solvers, "halfspace_from_distance_dominance", recording_cut)
    monkeypatch.setattr(solvers, "project", recording_project)
    trace = run(spec, [10.0, -3.0], rule=StoppingRule(max_iters=80))
    monkeypatch.undo()
    assert trace.stop_reason == "max_iters" and len(projected) == 80
    assert len(solves) == len(set(solves)) == 106
    for count, x, out in projected:
        assert project(Intersection([orthant, *made[:count]]), x).tobytes() == out.tobytes()
