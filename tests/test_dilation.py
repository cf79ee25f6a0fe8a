import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import fockband.dilation as dilation_mod
import fockband.fock as fock_mod
from fockband import (CapacityError, DilationResult, DomainError, InputError,
                      MatrixTuple, bunce_dilate, cuntz_isometries,
                      joint_numerical_radius, lift_tuple, make_fock,
                      project_tuple, quotient_algebra, verify_dilation)

from support import random_matrix, random_row_contraction, reference_tower, reference_verify


def scalars(*values):
    return MatrixTuple.from_arrays([np.array([[v]], dtype=complex) for v in values])


class TestBunceDilate:
    def test_zero_tuple_gives_the_isometries_exactly(self):
        for n in (1, 2):
            t = scalars(*([0.0] * n))
            r = bunce_dilate(t, depth=3)
            iso = cuntz_isometries(make_fock(n, 3))
            for v, s in zip(r.V, iso.ops):
                assert np.array_equal(v.toarray(), s.toarray().astype(complex))
            assert r.defect_rank == n

    def test_unit_row_has_defect_rank_drop(self):
        r = bunce_dilate(scalars(0.6, 0.8), depth=2)
        assert r.defect_rank == 1

    def test_strict_contraction_has_full_defect_rank(self):
        r = bunce_dilate(scalars(0.3, 0.4), depth=2)
        assert r.defect_rank == 2

    def test_random_contraction_relations(self, rng):
        for _ in range(3):
            t = random_row_contraction(rng, 2, 2, norm=0.9)
            r = bunce_dilate(t, depth=4)
            rep = verify_dilation(r, t, max_word=3)
            assert rep.isometry_deviation <= 1e-10
            assert rep.compression_deviation <= 1e-9
            assert rep.words_checked == 2 + 4 + 8

    def test_word_compression_is_exact_for_scalars(self):
        t = scalars(0.3, 0.4)
        rep = verify_dilation(bunce_dilate(t, depth=3), t, max_word=3)
        assert rep.compression_deviation <= 1e-15

    def test_rejects_non_contraction(self):
        with pytest.raises(DomainError):
            bunce_dilate(scalars(1.0, 1.0), depth=2)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            bunce_dilate(scalars(0.1, 0.1), depth=30)

    def test_rejects_depth_zero(self):
        # The defect enters at word level 1, which a depth-0 tower lacks.
        with pytest.raises(InputError):
            bunce_dilate(scalars(0.3, 0.4), depth=0)

    def test_negative_max_word_is_rejected(self):
        # Checking no word at all must not pass as a verification.
        t = scalars(0.3, 0.4)
        with pytest.raises(InputError):
            verify_dilation(bunce_dilate(t, depth=3), t, max_word=-1)

    def test_max_word_zero_checks_isometries_only(self):
        t = scalars(0.3, 0.4)
        rep = verify_dilation(bunce_dilate(t, depth=3), t, max_word=0)
        assert rep.words_checked == 0
        assert rep.compression_deviation == 0.0
        assert rep.isometry_deviation <= 1e-10

    def test_deep_verification_stays_sparse(self):
        # 16,383 rows: a dense gram deviation would take 4.3 GB.
        t = scalars(0.3, 0.4)
        rep = verify_dilation(bunce_dilate(t, depth=13), t)
        assert rep.isometry_deviation <= 1e-10
        assert rep.compression_deviation <= 1e-10

    def test_verification_builds_no_word_space_and_no_dense_gram(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_dilation built the word space")
        monkeypatch.setattr(fock_mod, "make_fock", refuse)
        monkeypatch.setattr(dilation_mod, "make_fock", refuse, raising=False)
        t = scalars(0.3, 0.4)
        r = bunce_dilate(t, depth=8)
        dim = r.V[0].shape[0]  # 511 rows: a dense (n dim)^2 gram takes 16.7 MB, dim^2 4.2 MB
        tracemalloc.start()
        try:
            rep = verify_dilation(r, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim * dim * 16 // 4
        assert rep.isometry_deviation <= 1e-10

    def test_isometry_deviation_matches_dense_norm(self, rng):
        t = random_row_contraction(rng, 3, 2, norm=0.9)
        r = bunce_dilate(t, depth=3)
        # Corrupt deep columns so the deviation leaves the vacuum block.
        bad = [v.tolil() for v in r.V]
        bad[1][20, 5] += 0.3
        bad[2][7, 9] += 0.2j
        r = DilationResult(V=tuple(v.tocsr() for v in bad), depth=r.depth,
                           defect_rank=r.defect_rank, p=r.p)
        inner = make_fock(3, 3).inner_dim() * 2
        proj = np.diag((np.arange(r.V[0].shape[0]) < inner).astype(float))
        dense = max(np.linalg.norm((vi.conj().T @ vj).toarray() - (i == j) * proj, 2)
                    for i, vi in enumerate(r.V) for j, vj in enumerate(r.V))
        assert dense > 0.1
        assert verify_dilation(r, t).isometry_deviation == pytest.approx(dense, rel=1e-12)

    def test_corrupted_dilation_is_flagged(self, rng):
        t = random_row_contraction(rng, 2, 2, norm=0.8)
        r = bunce_dilate(t, depth=3)
        bad = [v.tolil() for v in r.V]
        bad[0][0, 0] += 0.5
        corrupted = DilationResult(V=tuple(v.tocsr() for v in bad), depth=r.depth,
                                   defect_rank=r.defect_rank, p=r.p)
        rep = verify_dilation(corrupted, t)
        assert rep.compression_deviation > 0.1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tower_and_report_equal_the_reference(self, n):
        """The CSR arrays of every V_i and every report float, against the block-by-block
        build and the per-pair, per-word verification, at norms inside, near and on 1."""
        for p in (1, 2, 3):
            for depth in range(1, 6):
                rng = np.random.default_rng([n, p, depth])
                norm = (0.3, 0.9, 1.0)[depth % 3]
                t = random_row_contraction(rng, n, p, norm=norm)
                r, ref = bunce_dilate(t, depth), reference_tower(t, depth)
                assert r.defect_rank == ref.defect_rank
                for v, u in zip(r.V, ref.V, strict=True):
                    assert_same_csr(v, u)
                for max_word in range(5):
                    assert verify_dilation(r, t, max_word) == reference_verify(r, t, max_word)

    def test_corrupted_tower_reports_equal_the_reference(self, rng):
        t = random_row_contraction(rng, 3, 2, norm=0.9)
        r = bunce_dilate(t, depth=3)
        dim = r.V[0].shape[0]

        def corrupted(*edits):
            bad = [v.tolil() for v in r.V]
            for i, row, col, value in edits:
                bad[i][row, col] = value
            return DilationResult(V=tuple(v.tocsr() for v in bad), depth=r.depth,
                                  defect_rank=r.defect_rank, p=r.p)
        for edits in (
                [(1, 20, 5, r.V[1][20, 5] + 0.3), (2, 7, 9, r.V[2][7, 9] + 0.2j)],
                # The shift entry from word 1 to word 1 1 gone: V_1* V_1 has no entry
                # where P has its 1.
                [(0, (1 * 3 + 1) * 2, 1 * 2, 0.0)],
                # A top-level column of V_1, outside P, meeting the shift from word 1
                # in row 8: V_1* V_1 gets 4 on its diagonal there, which must stay.
                [(0, 8, dim - 1, 2.0)],
                # A vacuum entry.
                [(1, 0, 1, 2.0)],
        ):
            bad = corrupted(*edits)
            for max_word in range(4):
                assert verify_dilation(bad, t, max_word) == reference_verify(bad, t, max_word)
            assert verify_dilation(bad, t).isometry_deviation > 0.1

    def test_shape_mismatch(self, rng):
        t = random_row_contraction(rng, 2, 2, norm=0.8)
        r = bunce_dilate(t, depth=2)
        with pytest.raises(InputError):
            verify_dilation(r, scalars(0.1, 0.1))


class TestQuotientAlgebra:
    def test_sizes(self):
        q = quotient_algebra([2, 3, 1], [1])
        assert q.total_size == 6
        assert q.quotient_size == 3

    def test_rejects_bad_blocks(self):
        with pytest.raises(InputError):
            quotient_algebra([2, 0], [0])
        with pytest.raises(InputError):
            quotient_algebra([], [])

    def test_rejects_bad_ideal(self):
        with pytest.raises(InputError):
            quotient_algebra([2, 2], [2])
        with pytest.raises(InputError):
            quotient_algebra([2, 2], [0, 0])
        with pytest.raises(InputError):
            quotient_algebra([2, 2], [0, 1])


class TestLift:
    def test_zero_tuple_lifts_to_zero(self):
        q = quotient_algebra([1, 1], [1])
        res = lift_tuple(q, scalars(0.0, 0.0), depth=3, theta_points=16)
        assert res.max_gap == 0.0
        for m in res.lifted.a:
            assert np.array_equal(m, np.zeros((2, 2), dtype=complex))

    def test_scalar_lift_preserves_radius(self):
        q = quotient_algebra([1, 2], [1])
        res = lift_tuple(q, scalars(0.3, 0.4), depth=4, theta_points=16)
        assert res.depths == (1, 2, 3, 4)
        assert res.max_gap <= 1e-10
        assert res.lifted.p == 3

    def test_block_tuple_lift(self, rng):
        q = quotient_algebra([2, 2, 1], [1])
        mats = []
        for _ in range(2):
            m = np.zeros((3, 3), dtype=np.complex128)
            m[:2, :2] = random_matrix(rng, 2, scale=0.2)
            m[2, 2] = 0.1
            mats.append(m)
        t = MatrixTuple.from_arrays(mats)
        res = lift_tuple(q, t, depth=3, theta_points=16)
        assert res.max_gap <= 1e-10
        for m, big in zip(t.a, res.lifted.a):
            assert np.array_equal(big[:2, :2], m[:2, :2])
            assert np.array_equal(big[2:4, 2:4], np.zeros((2, 2)))
            assert big[4, 4] == m[2, 2]

    def test_lifted_radius_matches_direct_estimate(self):
        q = quotient_algebra([1, 1], [0])
        res = lift_tuple(q, scalars(0.2, 0.3), depth=3, theta_points=16)
        direct = joint_numerical_radius(res.lifted, 3, theta_points=16).lower
        assert res.lifted_lower[-1] == pytest.approx(direct, abs=1e-12)

    def test_rejects_off_block_support(self):
        q = quotient_algebra([1, 1, 1], [2])
        m = np.array([[0.1, 0.2], [0.0, 0.1]], dtype=complex)
        with pytest.raises(InputError):
            lift_tuple(q, MatrixTuple.from_arrays([m]), depth=2)

    def test_rejects_size_mismatch(self):
        q = quotient_algebra([2, 2], [1])
        with pytest.raises(InputError):
            lift_tuple(q, scalars(0.1), depth=2)


class TestProject:
    def test_roundtrip_is_identity_on_quotient(self, rng):
        q = quotient_algebra([2, 1, 2], [1])
        mats = []
        for _ in range(2):
            m = np.zeros((4, 4), dtype=np.complex128)
            m[:2, :2] = random_matrix(rng, 2, scale=0.3)
            m[2:, 2:] = random_matrix(rng, 2, scale=0.3)
            mats.append(m)
        t = MatrixTuple.from_arrays(mats)
        res = lift_tuple(q, t, depth=1, theta_points=16)
        back = project_tuple(q, res.lifted)
        for m, m2 in zip(t.a, back.a):
            assert np.array_equal(m, m2)

    def test_drops_ideal_blocks(self):
        q = quotient_algebra([1, 1], [0])
        t = MatrixTuple.from_arrays([np.diag([5.0, 7.0])])
        out = project_tuple(q, t)
        assert out.p == 1
        assert out.a[0][0, 0] == 7.0

    def test_rejects_size_mismatch(self):
        q = quotient_algebra([1, 1], [0])
        with pytest.raises(InputError):
            project_tuple(q, scalars(0.1))


def assert_same_csr(v, u):
    assert v.format == u.format == "csr" and v.shape == u.shape and v.dtype == u.dtype
    for name in ("data", "indices", "indptr"):
        a, b = getattr(v, name), getattr(u, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
