"""Inner products, linear maps, adjoints, and the spectral estimator."""

import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfp.spaces import (
    DimensionMismatch,
    LinearMap,
    PowerIterationError,
    _vector,
    estimate_norm_squared,
    inner,
    norm,
    point,
)

from lemmas import polarization_check


def test_point_validation():
    p = point([1.0, 2.0])
    assert p.shape == (2,)
    assert not p.flags.writeable
    assert point(3.0).shape == (1,)
    with pytest.raises(ValueError):
        point([])
    with pytest.raises(ValueError):
        point([1.0, np.nan])
    with pytest.raises(ValueError):
        point([np.inf])


def test_inner_basic():
    assert inner([1, 0], [0, 1]) == 0.0
    assert inner([1, 2], [3, 4]) == 11.0
    a = [3.0, 4.0]
    assert inner(a, a) == 25.0
    with pytest.raises(DimensionMismatch):
        inner([1, 2], [1, 2, 3])


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, c = rng.normal(size=(3, 4))
        s, t = rng.normal(size=2)
        assert_allclose(inner(a, b), inner(b, a), rtol=1e-14)
        assert_allclose(
            inner(s * a + t * b, c), s * inner(a, c) + t * inner(b, c),
            rtol=1e-12, atol=1e-12,
        )


def test_norm_has_the_bits_of_numpy_norm():
    # magnitudes 1e-200 .. 1e200, so squares underflow to subnormals or
    # zero and overflow to inf; strided and reversed views, lists, scalars
    rng = np.random.default_rng(17)
    cases = [0.0, -0.0, [0.0, -0.0], 5e-324, [3.0, 4.0], 7]
    for dim in range(1, 6):
        for _ in range(300):
            v = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(-200.0, 200.0, dim)
            cases += [v, v.tolist()]
        wide = rng.normal(size=2 * dim) * 10.0 ** rng.uniform(-200.0, 200.0, 2 * dim)
        cases += [wide[::2], wide[::-1], wide.reshape(2, dim)]
    # long strided views: numpy sums a copied contiguous vector, and a dot
    # over the strided view itself can round differently
    long = rng.normal(size=400)
    cases += [long[::2], long[::-1], long[1::3]]
    with np.errstate(over="ignore"):
        for v in cases:
            want = float(np.linalg.norm(np.atleast_1d(np.asarray(v, dtype=float))))
            assert struct.pack("d", norm(v)) == struct.pack("d", want), v


class _Subclass(np.ndarray):
    pass


def test_vector_returns_a_float64_array_itself_and_converts_the_rest():
    base = np.arange(12.0) - 5.5
    frozen = base.copy()
    frozen.flags.writeable = False
    same = [base, base[::2], base[::-1], base[1::3], frozen, frozen[2:5],
            base.reshape(3, 4), base.reshape(3, 4).T, np.array([-0.0]),
            np.array([np.nan, np.inf])]
    for x in same:
        assert _vector(x) is x
    converted = [[1.0, -0.0], [3], 7, -0.0, np.float64(2.5), np.array(4.0),
                 np.array(-0.0), base.astype(np.float32),
                 np.array([1, 2], dtype=np.int64), base.view(_Subclass),
                 base.astype(">f8"), [[1.0, 2.0], [3.0, 4.0]]]
    for x in converted:
        got, want = _vector(x), np.atleast_1d(np.asarray(x, dtype=float))
        assert type(got) is np.ndarray and got.dtype == want.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_polarization_trivial_cases():
    (l1, r1), _ = polarization_check([1, 0], [0, 1], 0.5)
    assert l1 == 2.0 and r1 == 2.0
    _, (l2, r2) = polarization_check([1, 0], [0, 1], 0.0)
    # alpha = 0 collapses the combination identity to ||y||^2
    assert l2 == 1.0 and r2 == 1.0


def test_polarization_derived_exact():
    # hand expansion with exact rationals: x = (2,1), y = (1,3), alpha = 1/2
    # ||x+y||^2 = 25 = 5 + 2*5 + 10; ||x/2+y/2||^2 = 6.25 = 2.5 + 5 - 1.25
    (l1, r1), (l2, r2) = polarization_check([2, 1], [1, 3], 0.5)
    assert_allclose([l1, r1], [25.0, 25.0], rtol=0)
    assert_allclose([l2, r2], [6.25, 6.25], rtol=0)
    assert abs(l1 - r1) <= 1e-10 * (1 + abs(l1))
    assert abs(l2 - r2) <= 1e-10 * (1 + abs(l2))


def test_polarization_alpha_range():
    with pytest.raises(ValueError):
        polarization_check([1.0], [2.0], 1.5)


def test_apply_identity_and_scalar():
    I = LinearMap(np.eye(3))
    x = np.array([1.0, -2.0, 0.5])
    assert_allclose(I.apply(x), x)
    A = LinearMap([[2.0]])
    assert A.apply([5.0])[0] == 10.0
    assert A.apply_adjoint([7.0])[0] == 14.0


def test_apply_derived_matrix():
    A = LinearMap([[1.0, 1.0], [0.0, 1.0]])
    assert_allclose(A.apply([1.0, 2.0]), [3.0, 2.0])
    assert_allclose(A.apply_adjoint([1.0, 0.0]), [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        A.apply([1.0, 2.0, 3.0])


def test_estimate_norm_squared_values():
    assert_allclose(estimate_norm_squared(LinearMap([[1.0]])), 1.0, rtol=1e-9)
    assert_allclose(
        estimate_norm_squared(LinearMap(np.diag([3.0, 4.0]))), 16.0, rtol=1e-9
    )
    # char. polynomial of A^T A for [[1,1],[0,1]]: t^2 - 3t + 1 = 0
    expected = (3.0 + np.sqrt(5.0)) / 2.0
    A = LinearMap([[1.0, 1.0], [0.0, 1.0]])
    assert_allclose(estimate_norm_squared(A), expected, rtol=1e-9)
    # cached and surfaced as a norm bound
    assert A.norm_bound == pytest.approx(np.sqrt(expected), rel=1e-9)


def test_estimate_norm_squared_errors():
    with pytest.raises(ValueError):
        estimate_norm_squared(LinearMap([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        estimate_norm_squared(LinearMap([[1.0]]), tol=0.0)
    with pytest.raises(PowerIterationError) as exc:
        estimate_norm_squared(LinearMap(np.diag([1.0, 1.0 + 1e-3])), tol=1e-30,
                              max_iters=3)
    assert exc.value.best_estimate > 0


@pytest.mark.parametrize("dim", [1, 2, 5, 20])
def test_cauchy_schwarz(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(1000):
        x = rng.normal(size=dim)
        z = rng.normal(size=dim)
        assert abs(inner(x, z)) <= norm(x) * norm(z) + 1e-12


def test_adjoint_identity_sampled():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        rows, cols = rng.integers(1, 6, size=2)
        A = LinearMap(rng.normal(size=(rows, cols)))
        x = rng.normal(size=cols)
        z = rng.normal(size=rows)
        lhs = inner(A.apply(x), z)
        rhs = inner(x, A.apply_adjoint(z))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_estimate_dominates_rayleigh_quotients():
    rng = np.random.default_rng(21)
    A = LinearMap(rng.normal(size=(5, 4)))
    lam = estimate_norm_squared(A)
    for _ in range(500):
        x = rng.normal(size=4)
        assert norm(A.apply(x)) ** 2 / norm(x) ** 2 <= lam * (1 + 1e-8)


def test_gram_norm_is_square_of_norm():
    # ||A* A|| = ||A||^2: spectral estimate of the Gram map vs the square
    rng = np.random.default_rng(31)
    A = LinearMap(rng.normal(size=(6, 4)))
    gram = LinearMap(A.matrix.T @ A.matrix)
    est_a = estimate_norm_squared(A)
    est_gram = estimate_norm_squared(gram)
    assert_allclose(np.sqrt(est_gram), est_a, rtol=1e-7)
