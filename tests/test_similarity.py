import numpy as np
import pytest

from cftmal.numeric import ShapeError
from cftmal.similarity import ZeroNormWarning, cosine_similarity, normalize_rows


def test_cosine_known_values():
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([1, 1], [1, 1]) == pytest.approx(1.0)
    assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)
    assert cosine_similarity([2, 0], [5, 0]) == pytest.approx(1.0)


def test_cosine_zero_norm_warns_and_returns_zero():
    with pytest.warns(ZeroNormWarning):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0


def test_cosine_shape_mismatch():
    with pytest.raises(ShapeError):
        cosine_similarity([1, 2], [1, 2, 3])


def test_normalize_rows_flags_zero_rows():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    normed, norms, zero = normalize_rows(m)
    np.testing.assert_allclose(normed[0], [0.6, 0.8])
    np.testing.assert_array_equal(normed[1], [0.0, 0.0])
    np.testing.assert_array_equal(norms, [[5.0], [0.0]])
    assert zero.tolist() == [False, True]


def test_normalize_rows_last_axis_and_cosine_gram():
    m = np.random.default_rng(0).standard_normal((3, 4, 5))
    m[1, 2] = 0.0
    normed, norms, zero = normalize_rows(m)
    for i in range(3):
        want = normalize_rows(m[i])
        np.testing.assert_array_equal(normed[i], want[0])
        np.testing.assert_array_equal(norms[i], want[1])
        np.testing.assert_array_equal(zero[i], want[2])
    # the cosine Gram of unit rows, the brute-force reference of the metrics tests
    with pytest.warns(ZeroNormWarning):
        want = [[cosine_similarity(a, b) for b in m[1]] for a in m[1]]
    np.testing.assert_allclose(normed[1] @ normed[1].T, want, atol=1e-12)

