"""The Hadamard entry oracle, membership sets, and the fast transform."""

import numpy as np
import pytest

from oracles import entry, in_column_set
from sparse_dist_lab.hadamard import dense_matrix, fwht, hadamard_dim, membership_parity


def sylvester(K):
    """Independent oracle: H_K by the textbook block recursion."""
    H = np.array([[1]], dtype=np.int64)
    while H.shape[0] < K:
        H = np.block([[H, H], [H, -H]])
    return H


def textbook_fwht(v):
    """Reference butterfly: strides 1, 2, ..., K/2 over blocks of 2h, in place."""
    v = np.array(v, dtype=np.float64, copy=True)
    K = v.size
    h = 1
    while h < K:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        v[:, :h] += v[:, h:]
        v[:, h:] = left - v[:, h:]
        h *= 2
    return v.reshape(-1)


def test_hadamard_dim_bounds():
    for k in range(1, 300):
        K = hadamard_dim(k)
        assert K & (K - 1) == 0  # power of two
        assert k + 1 <= K < 2 * (k + 1)


def test_hadamard_dim_known_points():
    assert hadamard_dim(1) == 2
    assert hadamard_dim(7) == 8
    assert hadamard_dim(8) == 16
    assert hadamard_dim(100) == 128
    assert hadamard_dim(1000) == 1024


def test_entry_first_row_and_column():
    for i in range(16):
        assert entry(16, 0, i) == 1
        assert entry(16, i, 0) == 1


def test_entry_k2_sign():
    assert entry(2, 1, 1) == -1


def test_entry_matches_recursion_exhaustively():
    for K in (2, 4, 8, 16, 32, 64):
        H = sylvester(K)
        got = np.array([[entry(K, x, y) for y in range(K)] for x in range(K)])
        assert np.array_equal(got, H)


def test_entry_range_check():
    with pytest.raises(IndexError):
        entry(8, 8, 0)
    with pytest.raises(IndexError):
        entry(8, 0, -1)
    with pytest.raises(ValueError):
        entry(6, 0, 0)  # not a power of two


def test_dense_matrix_matches_recursion():
    for K in (2, 8, 64):
        assert np.array_equal(dense_matrix(K), sylvester(K))


def test_gram_is_scaled_identity_small():
    for K in (2, 4, 8, 16):
        H = dense_matrix(K)
        assert np.array_equal(H.T @ H, K * np.eye(K, dtype=np.int64))


def test_in_column_set_y0_everything():
    assert all(in_column_set(8, 0, x) for x in range(8))


def test_in_column_set_k2():
    # H_2 column 1 is (1, -1): only row 0 belongs.
    assert in_column_set(2, 1, 0)
    assert not in_column_set(2, 1, 1)


def test_column_sets_have_half_size():
    for K in (2, 4, 8, 16, 32, 64):
        for y in range(1, K):
            size = sum(in_column_set(K, y, x) for x in range(K))
            assert size == K // 2


def test_membership_parity_pairs():
    K = 16
    xs = np.array([3, 7, 11, 15])
    ys = np.array([1, 2, 4, 8])
    got = membership_parity(K, ys, xs)
    want = np.array([in_column_set(K, y, x) for y, x in zip(ys, xs)])
    assert np.array_equal(got, want)


def test_column_membership_batch_agrees_with_scalar():
    # every row against one broadcast column, as the channel matrix asks
    K = 32
    xs = np.arange(K)
    for y in (0, 1, 5, 17, 31):
        got = membership_parity(K, np.full(K, y), xs)
        want = np.array([in_column_set(K, y, x) for x in range(K)])
        assert np.array_equal(got, want)


def test_fwht_of_basis_vector():
    v = np.zeros(8)
    v[0] = 1.0
    assert np.array_equal(fwht(v), np.ones(8))


def test_fwht_all_ones():
    assert np.array_equal(fwht(np.ones(4)), [4.0, 0.0, 0.0, 0.0])


def test_fwht_involution_up_to_K():
    gen = np.random.default_rng(2)
    for K in (2, 16, 256):
        v = gen.standard_normal(K)
        back = fwht(fwht(v)) / K
        assert np.allclose(back, v, rtol=1e-9, atol=1e-12)


def test_fwht_matches_naive_product():
    gen = np.random.default_rng(3)
    for K in (2, 8, 64, 512):
        H = dense_matrix(K).astype(np.float64)
        v = gen.standard_normal(K)
        want = H @ v
        got = fwht(v)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_fwht_bit_identical_to_textbook_butterfly():
    # Seeded results depend on every rounding of the transform, so the
    # fast layout must add exactly the textbook pairs in the textbook order.
    # A (B, K) stack must transform each row exactly as the vector form.
    gen = np.random.default_rng(4)
    for m in range(14):
        K = 1 << m
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            v = gen.standard_normal(K) * scale * 10.0 ** gen.uniform(-2, 2, K)
            assert np.array_equal(fwht(v), textbook_fwht(v)), (K, scale)
        for B in (1, 3):
            stack = gen.standard_normal((B, K)) * 10.0 ** gen.uniform(-10, 10, (B, K))
            want = np.array([textbook_fwht(row) for row in stack])
            assert np.array_equal(fwht(stack), want), (K, B)


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fwht(np.ones(6))
    with pytest.raises(ValueError):
        fwht(np.ones(0))
    with pytest.raises(ValueError):
        fwht(np.ones((2, 6)))
    with pytest.raises(ValueError):
        fwht(np.ones((2, 2, 4)))


def test_fwht_does_not_mutate_input():
    v = np.arange(8.0)
    keep = v.copy()
    fwht(v)
    assert np.array_equal(v, keep)
