import numpy as np
import pytest
import scipy.sparse as sp

from fockband import (CapacityError, InputError, MatrixTuple, band_operator,
                      band_operator_sparse, compress, coupling_operator_sparse,
                      cuntz_isometries, fock_dim, make_fock)
from fockband.fock import capped_dim

from support import random_tuple


def test_fock_dim_values():
    assert fock_dim(2, 3) == 15
    assert fock_dim(1, 4) == 5
    assert fock_dim(3, 2) == 13
    assert fock_dim(2, 0) == 1


def test_make_fock_levels():
    f = make_fock(2, 3)
    assert f.dim == 15
    assert list(f.levels[:7]) == [0, 1, 1, 2, 2, 2, 2]
    assert list(f.level_indices(3)) == list(range(7, 15))
    assert f.inner_dim() == 7


def test_make_fock_capacity():
    with pytest.raises(CapacityError):
        make_fock(3, 20)


def test_capped_dim_counts_words_up_to_the_cap():
    for n in (1, 2, 3, 5):
        for depth in range(12):
            for p in (1, 2, 7):
                if fock_dim(n, depth) * p <= 20_000:
                    assert capped_dim(n, depth, 20_000, p) == fock_dim(n, depth)
                else:
                    with pytest.raises(CapacityError):
                        capped_dim(n, depth, 20_000, p)
    assert capped_dim(1, 19_999, 20_000) == 20_000
    assert capped_dim(2, 3, 60, 4) == 15
    for n, depth, max_rows, p in ((1, 20_000, 20_000, 1), (2, 3, 60, 5), (1, 9_999, 20_000, 3)):
        with pytest.raises(CapacityError):
            capped_dim(n, depth, max_rows, p)


def test_capped_dim_refuses_deep_requests_without_the_power():
    # fock_dim(2, 10**9) has 3e8 digits; neither its value nor its text is formed.
    for n, p in ((1, 3), (2, 1), (3, 2)):
        with pytest.raises(CapacityError) as exc:
            capped_dim(n, 10**9, 20_000, p)
        assert len(str(exc.value)) < 100
    with pytest.raises(InputError):
        capped_dim(2, -1, 20_000)


def test_isometry_relations_exact():
    for n in (1, 2, 3):
        for depth in (1, 2, 3):
            f = make_fock(n, depth)
            iso = cuntz_isometries(f)
            proj = np.zeros((f.dim, f.dim))
            inner = f.inner_dim()
            proj[:inner, :inner] = np.eye(inner)
            for i in range(n):
                for j in range(n):
                    prod = (iso.ops[i].T @ iso.ops[j]).toarray()
                    target = proj if i == j else np.zeros_like(proj)
                    assert np.array_equal(prod, target)


def test_range_sum_is_level_projection():
    f = make_fock(2, 3)
    iso = cuntz_isometries(f)
    total = sum((s @ s.T).toarray() for s in iso.ops)
    expected = np.diag((f.levels >= 1).astype(float))
    assert np.array_equal(total, expected)


def test_band_operator_scalar_layout():
    f = make_fock(2, 1)
    t = MatrixTuple.from_arrays([np.array([[0.3]]), np.array([[0.4j]])])
    band = band_operator(f, t)
    expected = np.array([[1.0, 0.3, 0.4j],
                         [0.3, 1.0, 0.0],
                         [-0.4j, 0.0, 1.0]])
    assert np.array_equal(band, expected)


def test_band_dense_matches_sparse(rng):
    f = make_fock(2, 3)
    t = random_tuple(rng, 2, 2, scale=0.3)
    dense = band_operator(f, t)
    assert np.array_equal(dense, band_operator_sparse(f, t).toarray())
    assert np.array_equal(dense, dense.conj().T)


def test_band_is_identity_plus_coupling(rng):
    f = make_fock(2, 2)
    t = random_tuple(rng, 2, 2, scale=0.3)
    c = coupling_operator_sparse(f, t)
    total = sp.identity(f.dim * 2, format="csr") + c + c.conj().T
    assert np.array_equal(total.toarray(), band_operator(f, t))


def test_compress_recovers_shallow_band(rng):
    t = random_tuple(rng, 2, 2, scale=0.4)
    deep = band_operator(make_fock(2, 3), t)
    shallow = band_operator(make_fock(2, 1), t)
    assert np.array_equal(compress(deep, make_fock(2, 3), 1), shallow)


def test_band_accepts_plain_lists():
    f = make_fock(2, 1)
    a = band_operator(f, [np.array([[0.5]]), np.array([[0.5]])])
    b = band_operator(f, MatrixTuple.from_arrays([np.array([[0.5]]), np.array([[0.5]])]))
    assert np.array_equal(a, b)


def test_band_rejects_wrong_arm_count():
    f = make_fock(2, 1)
    with pytest.raises(InputError):
        band_operator(f, [np.array([[0.5]])])


def test_band_rejects_rectangular_arms():
    f = make_fock(1, 1)
    with pytest.raises(InputError):
        band_operator(f, [np.zeros((2, 3))])
