import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockband import (CERTIFIED_NO, CERTIFIED_YES, DomainError,
                      DualElement, InputError, dual_cp_check, dual_element,
                      dual_map, dual_positive, en_decompose, en_element,
                      image_operator, kernel_membership, lam_min,
                      pattern_matrix, phi_apply, psd_margin, theta_embed)

from support import random_matrix, random_psd_arrowhead, unitary


def one(v):
    return np.array([[v]], dtype=complex)


class TestPhi:
    def test_scalar_coefficients(self):
        e = en_element(one(2.0), one(4.0), [one(6.0)])
        img = phi_apply(e)
        assert img.unit == pytest.approx(one(3.0))
        assert img.s[0] == pytest.approx(one(3.0))
        assert img.s_adj[0] == pytest.approx(one(3.0))

    def test_adjoint_side_is_conjugated(self):
        e = en_element(one(0.0), one(0.0), [one(2.0j)])
        img = phi_apply(e)
        assert img.s[0] == pytest.approx(one(1.0j))
        assert img.s_adj[0] == pytest.approx(one(-1.0j))

    def test_image_operator_layout(self):
        e = en_element(one(1.0), one(1.0), [one(0.6), one(0.8)])
        op = image_operator(phi_apply(e), depth=1).toarray()
        expected = np.array([[1.0, 0.3, 0.4],
                             [0.3, 1.0, 0.0],
                             [0.4, 0.0, 1.0]])
        assert op == pytest.approx(expected, abs=1e-15)

    def test_positive_elements_have_positive_images(self, rng):
        for _ in range(5):
            e = random_psd_arrowhead(rng, 2, 2)
            assert float(np.linalg.eigvalsh(e.matrix())[0]) >= -1e-10
            for depth in (1, 2, 3):
                assert lam_min(image_operator(phi_apply(e), depth)) >= -1e-8


class TestKernel:
    def test_difference_of_units_is_in_kernel(self):
        assert kernel_membership(en_element(one(1.0), one(-1.0), [one(0.0)]))

    def test_unit_is_not_in_kernel(self):
        assert not kernel_membership(en_element(one(1.0), one(1.0), [one(0.0)]))

    def test_arm_blocks_membership(self):
        assert not kernel_membership(en_element(one(1.0), one(-1.0), [one(0.5)]))

    def test_tolerance_is_respected(self):
        e = en_element(one(1.0), one(-1.0 + 1e-12), [one(1e-12)])
        assert kernel_membership(e, tol=1e-8)
        assert not kernel_membership(e, tol=1e-14)


class TestPattern:
    def test_single_letter_pattern_frozen(self):
        expected = np.array([[0.0, 0.0, 0.0, 0.0],
                             [0.0, 1.0, 1.0, 0.0],
                             [0.0, 1.0, 1.0, 0.0],
                             [0.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(pattern_matrix(1), expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pattern_is_psd_with_rank_n(self, n):
        p = pattern_matrix(n)
        assert np.array_equal(p, p.T)
        w = np.linalg.eigvalsh(p)
        assert w[0] >= -1e-12
        assert int(np.sum(w > 1e-8)) == n

    def test_rejects_nonpositive_n(self):
        with pytest.raises(InputError):
            pattern_matrix(0)


class TestDecompose:
    def test_scalar_example_frozen(self):
        e = en_element(one(1.0), one(1.0), [one(0.5), one(0.5)])
        dec = en_decompose(e, epsilon=0.0)
        assert dec.D == pytest.approx(one(0.5))
        expected_q = np.array([[1.0, 0.5, 0.5],
                               [0.5, 0.25, 0.25],
                               [0.5, 0.25, 0.25]])
        assert dec.Q == pytest.approx(expected_q, abs=1e-15)
        assert np.linalg.norm(dec.reconstruction() - e.matrix(), 2) == 0.0

    def test_zero_arms(self):
        e = en_element(np.eye(2), np.eye(2), [np.zeros((2, 2))])
        dec = en_decompose(e, epsilon=1e-6)
        shifted = e.matrix() + 1e-6 * np.eye(4)
        assert np.linalg.norm(dec.reconstruction() - shifted, 2) <= 1e-12

    def test_random_invariants(self, rng):
        for _ in range(5):
            e = random_psd_arrowhead(rng, 2, 2)
            dec = en_decompose(e, epsilon=1e-6)
            scale = max(1.0, float(np.linalg.norm(e.matrix(), 2)))
            assert psd_margin(dec.Q).min_eigenvalue >= -1e-10 * scale
            assert psd_margin(dec.D).min_eigenvalue >= -1e-10 * scale
            shifted = e.matrix() + 1e-6 * np.eye((e.n + 1) * e.p)
            gap = float(np.linalg.norm(dec.reconstruction() - shifted, 2))
            assert gap <= 1e-10 * scale

    def test_pattern_is_element_independent(self, rng):
        e1 = random_psd_arrowhead(rng, 3, 2)
        e2 = random_psd_arrowhead(rng, 3, 2)
        d1 = en_decompose(e1, epsilon=1e-6)
        d2 = en_decompose(e2, epsilon=1e-6)
        assert np.array_equal(d1.P, d2.P)

    def test_rejects_indefinite_element(self):
        e = en_element(one(0.0), one(1.0), [one(1.0)])
        with pytest.raises(DomainError):
            en_decompose(e, epsilon=0.0)

    def test_rejects_singular_tail_without_shift(self):
        e = en_element(one(1.0), one(0.0), [one(0.0)])
        with pytest.raises(DomainError):
            en_decompose(e, epsilon=0.0)

    def test_rejects_negative_epsilon(self):
        e = en_element(one(1.0), one(1.0), [one(0.0)])
        with pytest.raises(InputError):
            en_decompose(e, epsilon=-1e-3)


class TestDualPositive:
    def test_identity_diagonal_boundary(self):
        v = dual_positive(dual_element(np.eye(1), [one(0.6), one(0.8)]))
        assert v.status == CERTIFIED_YES
        assert v.witness == pytest.approx(1.0, abs=1e-12)

    def test_identity_diagonal_refuted(self):
        v = dual_positive(dual_element(np.eye(1), [one(1.1)]))
        assert v.status == CERTIFIED_NO
        assert v.witness == pytest.approx(1.21, abs=1e-12)

    def test_general_diagonal_positive(self):
        v = dual_positive(dual_element(2.0 * np.eye(1), [one(1.9)]))
        assert v.status == CERTIFIED_YES
        assert v.witness <= 1.0

    def test_general_diagonal_refuted(self):
        v = dual_positive(dual_element(0.25 * np.eye(1), [one(1.0)]))
        assert v.status == CERTIFIED_NO
        assert v.witness > 1.0

    def test_negative_diagonal_refuted_directly(self):
        v = dual_positive(dual_element(-np.eye(1), [one(0.0)]))
        assert v.status == CERTIFIED_NO
        assert v.witness == pytest.approx(-1.0, abs=1e-12)

    def test_singular_diagonal_arm_off_range_refuted(self):
        # The arrowhead's 2 x 2 block [[0, 1e-3], [1e-3, 0]] has eigenvalue -1e-3.
        d = dual_element(np.diag([0.0, 1.0]),
                         [np.array([[1e-3, 0.0], [0.0, 0.0]])])
        v = dual_positive(d)
        assert v.status == CERTIFIED_NO

    def test_rejects_non_hermitian_diagonal(self):
        with pytest.raises(InputError):
            dual_positive(dual_element(np.array([[0.0, 1.0], [0.0, 0.0]]), [one(0.0)]))

    def test_matches_arrowhead_eigenfloor(self, rng):
        agree = 0
        for _ in range(20):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            target = float(rng.choice([0.3, 0.8, 1.2, 2.0]))
            arms = [random_matrix(rng, p) for _ in range(n)]
            g = sum(m @ m.conj().T for m in arms)
            top = float(np.sqrt(np.linalg.eigvalsh(g)[-1].real))
            arms = [m * (target / top) for m in arms]
            d = dual_element(np.eye(p), arms)
            v = dual_positive(d)
            embed_psd = psd_margin(theta_embed(d)).min_eigenvalue >= -1e-9
            assert (v.status == CERTIFIED_YES) == embed_psd
            agree += 1
        assert agree == 20

    @pytest.mark.parametrize("tol", [1e-8, 0.0])
    @pytest.mark.parametrize("b0, arm, status", [
        # The arrowhead's least eigenvalue is -1e-7 and -1e-5: B0's small
        # eigenvalue is half the arm's, however far below 1 it sits.
        (np.diag([1.0, 1e-7]), np.diag([0.0, 2e-7]), CERTIFIED_NO),
        (np.diag([1.0, 1e-5]), np.diag([0.0, 2e-5]), CERTIFIED_NO),
        # Singular B0 with the arm on its range.
        (np.diag([0.0, 1.0]), np.diag([0.0, 0.9]), CERTIFIED_YES),
    ], ids=["small-eig-1e-7", "small-eig-1e-5", "singular-on-range"])
    @pytest.mark.filterwarnings("error")
    def test_small_and_zero_eigenvalues(self, b0, arm, status, tol):
        v = dual_positive(dual_element(b0, [arm]), tol=tol)
        assert v.status == status
        assert np.isfinite(v.witness)

    @pytest.mark.parametrize("tol", [1e-8, 0.0])
    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8])
    @pytest.mark.parametrize("arm, status, witness", [
        (5.0, CERTIFIED_NO, 1.5625),
        (3.9, CERTIFIED_YES, 0.950625),
    ], ids=["refuted", "positive"])
    def test_scale_invariant_above_the_floor(self, arm, status, witness, scale, tol):
        """Positivity is invariant under scaling.

        Every eigenvalue of B0 here is at or above the floor, so the congruated arms,
        and the witness, must not move with the scale: B0 is floored, never shifted.
        """
        d = dual_element(scale * np.diag([2.0, 4.0]), [scale * np.diag([0.0, arm])])
        v = dual_positive(d, tol=tol)
        assert v.status == status
        assert v.witness == pytest.approx(witness, rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3), p=st.integers(1, 4), rank_drop=st.integers(0, 2),
           low=st.integers(-7, 0), diagonal=st.booleans(), row=st.floats(0.2, 2.0),
           leak=st.booleans(), tol=st.sampled_from([1e-8, 0.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_arrowhead_sign(self, n, p, rank_drop, low, diagonal, row, leak, tol,
                                    seed):
        """General psd B0, arms B0^{1/2} K_i B0^{1/2} on its range, with or without a leak off it.

        B0's nonzero eigenvalues lie in [10^low, 10]; K has row norm ``row``.  A diagonal
        B0 keeps its zero eigenvalues exactly zero, which tol = 0 must survive.
        """
        rng = np.random.default_rng(seed)
        rank = max(1, p - rank_drop)
        w = np.zeros(p)
        w[:rank] = 10.0 ** rng.uniform(low, 1.0, size=rank)
        u = np.eye(p) if diagonal else unitary(rng, p)
        half = (u * np.sqrt(w)) @ u.conj().T
        ks = [random_matrix(rng, p) for _ in range(n)]
        top = float(np.sqrt(np.linalg.eigvalsh(sum(k @ k.conj().T for k in ks))[-1]))
        scale = 10.0 ** rng.uniform(-4.0, 0.0) if leak else 0.0
        arms = [half @ (k * (row / top)) @ half + scale * random_matrix(rng, p) for k in ks]
        d = dual_element((u * w) @ u.conj().T, arms)
        lam = float(np.linalg.eigvalsh(theta_embed(d))[0])
        assume(abs(lam) > 1e-6 * max(1.0, float(w.max())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = dual_positive(d, tol=tol)
        assert v.status == (CERTIFIED_YES if lam > 0 else CERTIFIED_NO)


class TestThetaEmbed:
    def test_layout(self):
        d = dual_element(one(7.0), [one(2.0), one(3.0)])
        expected = np.array([[7.0, 2.0, 3.0],
                             [2.0, 7.0, 0.0],
                             [3.0, 0.0, 7.0]])
        assert np.array_equal(theta_embed(d), expected)

    def test_identity_floor_is_one_minus_row_norm(self, rng):
        for _ in range(5):
            p = int(rng.integers(1, 4))
            arms = [random_matrix(rng, p, scale=0.4) for _ in range(2)]
            d = dual_element(np.eye(p), arms)
            g = sum(m @ m.conj().T for m in arms)
            row = float(np.sqrt(np.linalg.eigvalsh(g)[-1].real))
            floor = float(np.linalg.eigvalsh(theta_embed(d))[0])
            assert floor == pytest.approx(1.0 - row, abs=1e-12)


class TestDualMap:
    def test_requires_unital(self):
        with pytest.raises(InputError):
            dual_map(2.0 * np.eye(2), [np.zeros((2, 2))])

    def test_zero_map_is_cp(self):
        v = dual_cp_check(dual_map(np.eye(1), [one(0.0)]))
        assert v.status == CERTIFIED_YES
        assert v.margin == pytest.approx(1.0, abs=1e-12)

    def test_expanding_map_is_not_cp(self):
        v = dual_cp_check(dual_map(np.eye(1), [one(0.6)]))
        assert v.status == CERTIFIED_NO
        assert v.depth == 4

    def test_contractive_map_is_cp_with_certificate(self):
        v = dual_cp_check(dual_map(np.eye(1), [one(0.45)]))
        assert v.status == CERTIFIED_YES
        assert v.certificate is not None
        assert v.certificate.strictly_valid(1e-8)
