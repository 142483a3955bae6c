"""Inner products, linear maps, adjoints, and the spectral estimator."""

import math
import struct
import warnings

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
    row_norms,
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
    scaled = 0
    with np.errstate(over="ignore"):
        for v in cases:
            a = np.atleast_1d(np.asarray(v, dtype=float))
            want = float(np.linalg.norm(a))
            if want == math.inf and np.isfinite(a).all():
                # a.a overflows for a finite a: numpy's norm of a / max|a_i|,
                # scaled back, which is finite
                m = float(np.abs(a).max())
                want = m * float(np.linalg.norm(a / m))
                assert math.isfinite(want), v
                scaled += 1
            assert struct.pack("d", norm(v)) == struct.pack("d", want), v
    assert scaled > 100


def test_norm_scales_an_overflowing_square_without_a_warning():
    # a.a used to warn "overflow encountered in dot" before the norm scaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(np.array([1e200])) == 1e200
        assert norm(np.array([-1e300, 0.0])) == 1e300


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
    # a scalar is a 1x1 matrix, and a vector one row
    assert LinearMap(2.0).matrix.tolist() == [[2.0]]
    assert LinearMap([1.0, 2.0]).matrix.tolist() == [[1.0, 2.0]]


def test_apply_derived_matrix():
    A = LinearMap([[1.0, 1.0], [0.0, 1.0]])
    assert_allclose(A.apply([1.0, 2.0]), [3.0, 2.0])
    assert_allclose(A.apply_adjoint([1.0, 0.0]), [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        A.apply([1.0, 2.0, 3.0])


def test_a_linear_map_names_both_dimensions_it_expects():
    A = LinearMap(np.arange(6.0).reshape(2, 3))
    assert (A.rows, A.cols) == (2, 3) and repr(A) == "LinearMap(2x3)"
    assert A.apply([1.0, 0.0, 0.0]).tolist() == [0.0, 3.0]
    assert A.apply_adjoint([1.0, 0.0]).tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(DimensionMismatch, match=r"^map expects dimension 3, got 2$"):
        A.apply([1.0, 2.0])
    with pytest.raises(DimensionMismatch, match=r"^adjoint expects dimension 2, got 3$"):
        A.apply_adjoint([1.0, 2.0, 3.0])


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300, 1e308, -1e308]


def _bits_and_warnings(product):
    """The product's bytes and its warnings, each without the "in dot" or
    "in matmul" that names numpy's function."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = product()
    return out.tobytes(), sorted(str(w.message).rsplit(" in ", 1)[0] for w in caught)


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
@pytest.mark.parametrize("cols", [1, 2, 3, 4])
def test_apply_and_its_adjoint_have_the_bits_of_matmul(rows, cols):
    # a product over two or more entries is ndarray.dot on the map's own
    # contiguous copy, over one entry it is @, whose sum from +0.0 turns a
    # -0.0 product into +0.0; either way the bits and the warnings of
    # matrix @ x and matrix.T @ z, on special entries, strided vectors and
    # a map built from a strided matrix
    rng = np.random.default_rng(10 * rows + cols)
    finite = [v for v in _SPECIAL if math.isfinite(v)]
    for _ in range(200):
        wide = rng.choice(finite, size=(rows, 2 * cols))
        A = LinearMap(wide[:, ::2])
        matrix = wide[:, ::2].copy()
        x = rng.choice(_SPECIAL, size=2 * cols)[::2]
        z = rng.choice(_SPECIAL, size=2 * rows)[::2]
        assert _bits_and_warnings(lambda: A.apply(x)) == _bits_and_warnings(lambda: matrix @ x)
        assert (_bits_and_warnings(lambda: A.apply_adjoint(z))
                == _bits_and_warnings(lambda: matrix.T @ z))


def test_estimate_norm_squared_values():
    assert_allclose(estimate_norm_squared(LinearMap([[1.0]])), 1.0, rtol=1e-9)
    assert_allclose(
        estimate_norm_squared(LinearMap(np.diag([3.0, 4.0]))), 16.0, rtol=1e-9
    )
    # char. polynomial of A^T A for [[1,1],[0,1]]: t^2 - 3t + 1 = 0
    expected = (3.0 + np.sqrt(5.0)) / 2.0
    A = LinearMap([[1.0, 1.0], [0.0, 1.0]])
    assert_allclose(estimate_norm_squared(A), expected, rtol=1e-9)
    # a coarse tolerance stops early, at 13.0769..., short of the largest
    # eigenvalue (15 + 5 sqrt(5))/2 = 13.0902 of A^T A
    A = LinearMap([[2.0, 1.0], [1.0, 3.0]])
    assert estimate_norm_squared(A, tol=0.5) == pytest.approx(13.0769, abs=1e-4)
    assert estimate_norm_squared(A) == pytest.approx((15.0 + 5.0 * np.sqrt(5.0)) / 2.0,
                                                     rel=1e-9)
    # the all-ones start lies in the kernel of A^T A = [[1, -1], [-1, 1]]:
    # the iteration restarts along the first axis
    assert estimate_norm_squared(LinearMap([[1.0, -1.0]])) == 2.0000000000000004


def test_estimate_norm_squared_errors():
    with pytest.raises(ValueError):
        estimate_norm_squared(LinearMap([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        estimate_norm_squared(LinearMap([[1.0]]), tol=0.0)
    with pytest.raises(PowerIterationError) as exc:
        estimate_norm_squared(LinearMap(np.diag([1.0, 1.0 + 1e-3])), tol=1e-30,
                              max_iters=3)
    assert exc.value.best_estimate > 0
    with pytest.raises(PowerIterationError):
        estimate_norm_squared(LinearMap([[2.0, 1.0], [1.0, 3.0]]), max_iters=1)


def test_row_norms_of_zero_overflowing_and_nan_rows_raise_no_warning():
    # the overflow of a.a and the scaled form's 0/0 and inf/inf stay inside
    A = np.array([[0.0, 0.0], [1e200, 1e200], [math.nan, 1.0], [math.inf, 0.0],
                  [-0.0, 1e-320], [1.7976931348623157e308, -1.7976931348623157e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = row_norms(A)
    assert got.tobytes() == np.array([norm(a) for a in A]).tobytes()
    assert got[1] == norm(A[1]) == 1.4142135623730951e200


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
