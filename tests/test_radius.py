import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockband import (CERTIFIED_NO, CERTIFIED_YES, UNDECIDED, ContractionVerdict,
                      ConvergenceError, DomainError, MatrixTuple, ando_complete,
                      band_operator, coupling_operator_sparse,
                      is_dual_row_contraction, is_row_contraction,
                      joint_numerical_radius, lam_min, make_fock,
                      numerical_radius, radius, shorted)
from fockband.shorted import band_lower_bound, band_min_eig, first_nonpositive_depth

from support import random_row_contraction, random_tuple, unitary


def scalars(*values):
    return MatrixTuple.from_arrays([np.array([[v]], dtype=complex) for v in values])


def jordan(k):
    return np.diag(np.ones(k - 1), 1)


class TestNumericalRadius:
    def test_identity(self):
        est = numerical_radius(np.eye(3), theta_points=8)
        assert est.lower == pytest.approx(1.0, abs=1e-12)
        assert est.grid_upper >= est.lower

    def test_hermitian_is_spectral_extent(self):
        est = numerical_radius(np.diag([-2.0, 1.0]), theta_points=8)
        assert est.lower == pytest.approx(2.0, abs=1e-12)

    def test_rank_one_nilpotent_is_half(self):
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        est = numerical_radius(e12, theta_points=16)
        assert est.lower == pytest.approx(0.5, abs=1e-9)
        assert est.grid_upper - est.lower <= math.pi / 16 + 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_jordan_block_cosine(self, k):
        est = numerical_radius(jordan(k), theta_points=16)
        assert est.lower == pytest.approx(math.cos(math.pi / (k + 1)), abs=1e-9)

    def test_bracket_contains_refined_value(self, rng):
        for _ in range(5):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            coarse = numerical_radius(m, theta_points=16)
            fine = numerical_radius(m, theta_points=128)
            assert coarse.lower <= fine.lower + 1e-12
            assert fine.lower <= coarse.grid_upper + 1e-12
            assert coarse.lower <= coarse.grid_upper

    def test_rejects_rectangular(self):
        with pytest.raises(Exception):
            numerical_radius(np.zeros((2, 3)))


class TestJointRadius:
    def test_zero_tuple(self):
        est = joint_numerical_radius(scalars(0.0, 0.0), depth=4, theta_points=8)
        assert est.lower == 0.0
        assert est.depth == 4

    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_scalar_truncation_law(self, depth):
        est = joint_numerical_radius(scalars(0.3, 0.4), depth=depth, theta_points=8)
        assert est.lower == pytest.approx(0.5 * math.cos(math.pi / (depth + 2)), abs=1e-9)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_single_letter_law(self, depth):
        est = joint_numerical_radius(scalars(0.7), depth=depth, theta_points=8)
        assert est.lower == pytest.approx(0.7 * math.cos(math.pi / (depth + 2)), abs=1e-9)

    def test_scaling_homogeneity(self, rng):
        t = random_tuple(rng, 2, 2, scale=0.3)
        base = joint_numerical_radius(t, depth=2, theta_points=120)
        for s in (0.37, 2.0, 0.5j, -0.8 + 0.6j):
            scaled = joint_numerical_radius(t.scale(s), depth=2, theta_points=120)
            assert scaled.lower == pytest.approx(abs(s) * base.lower, abs=1e-9)

    def test_depth_monotone_on_fixed_grid(self, rng):
        t = random_tuple(rng, 2, 2, scale=0.4)
        lowers = [joint_numerical_radius(t, depth=d, theta_points=32).lower
                  for d in range(6)]
        for a, b in zip(lowers, lowers[1:]):
            assert b >= a - 1e-12

    def test_band_floor_matches_radius_for_scalars(self):
        t = scalars(0.3, 0.4)
        for depth in (2, 4):
            est = joint_numerical_radius(t, depth=depth, theta_points=8)
            band = band_operator(make_fock(2, depth), t)
            assert lam_min(band) == pytest.approx(1.0 - 2.0 * est.lower, abs=1e-9)

    def test_direct_sum_takes_max(self):
        t1 = scalars(0.3, 0.4)
        t2 = scalars(0.25, 0.1)
        joined = MatrixTuple.from_arrays(
            [np.diag([a[0, 0], b[0, 0]]) for a, b in zip(t1.a, t2.a)])
        w1 = joint_numerical_radius(t1, depth=3, theta_points=64).lower
        w2 = joint_numerical_radius(t2, depth=3, theta_points=64).lower
        w = joint_numerical_radius(joined, depth=3, theta_points=64).lower
        assert w == pytest.approx(max(w1, w2), abs=1e-10)

    def test_deep_truncation_closed_form(self):
        # 1.6e10 band rows; the level recursion never builds them.
        est = joint_numerical_radius(scalars(0.3, 0.4), depth=30)
        assert est.lower == pytest.approx(0.5 * math.cos(math.pi / 32), abs=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3), p=st.integers(1, 3), depth=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 2.0),
           phi=st.floats(0.0, 2.0 * math.pi))
    def test_one_eigensolve_matches_angle_sweep(self, n, p, depth, seed, scale, phi):
        t = random_tuple(np.random.default_rng(seed), n, p, scale=scale)
        est = joint_numerical_radius(t, depth)
        assert est.grid_upper == est.lower
        op = coupling_operator_sparse(make_fock(n, depth), t).toarray()
        sweep = numerical_radius(op, theta_points=720)
        assert est.lower == pytest.approx(sweep.lower, abs=1e-9)
        assert est.lower <= sweep.grid_upper
        rotated = joint_numerical_radius(t.scale(np.exp(1j * phi)), depth)
        assert rotated.lower == pytest.approx(est.lower, abs=1e-12)


class TestRowContraction:
    def test_zero_tuple(self):
        v = is_row_contraction(scalars(0.0, 0.0))
        assert v.status == CERTIFIED_YES
        assert v.margin == 1.0

    def test_unit_row_boundary(self):
        v = is_row_contraction(scalars(0.6, 0.8))
        assert v.status == CERTIFIED_YES
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_over_norm(self):
        v = is_row_contraction(scalars(1.0, 1.0))
        assert v.status == CERTIFIED_NO
        assert v.margin == pytest.approx(-1.0, abs=1e-12)


class TestDualRowContraction:
    def test_zero_tuple_certified_with_certificate(self):
        v = is_dual_row_contraction(scalars(0.0, 0.0), max_depth=3)
        assert v.status == CERTIFIED_YES
        assert v.margin == pytest.approx(1.0, abs=1e-12)
        assert v.certificate is not None
        assert v.certificate.strictly_valid(1e-8)

    def test_unit_single_letter_refuted_at_depth_two(self):
        v = is_dual_row_contraction(scalars(1.0))
        assert v.status == CERTIFIED_NO
        assert v.depth == 2
        assert v.margin == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-10)

    def test_boundary_tuple_certified(self):
        v = is_dual_row_contraction(scalars(0.3, 0.4))
        assert v.status == CERTIFIED_YES
        cert = v.certificate
        assert cert is not None
        assert cert.strictly_valid(1e-8)
        assert cert.epsilon_used == 0.0
        assert cert.depth_used == 6
        assert cert.b[0, 0].real == pytest.approx(0.5000610426077509, abs=1e-10)

    def test_just_over_boundary_is_undecided(self):
        v = is_dual_row_contraction(scalars(0.5002))
        assert v.status == UNDECIDED
        assert v.depth == 6
        assert v.margin > 0.0

    def test_certificate_equals_direct_completion(self):
        # The verdict's certificate is the one a direct completion at depth 6 returns.
        for t in (scalars(0.3, 0.4), random_tuple(np.random.default_rng(5), 2, 3, scale=0.15)):
            v = is_dual_row_contraction(t)
            direct = ando_complete(t, depth=6)
            assert v.status == CERTIFIED_YES
            assert np.array_equal(v.certificate.b, direct.b)
            assert v.certificate.margin == direct.margin
            assert v.certificate.epsilon_used == direct.epsilon_used
            assert v.certificate.depth_used == direct.depth_used

    def test_deep_truncation_certifies(self):
        v = is_dual_row_contraction(scalars(0.3, 0.4), max_depth=30)
        assert v.status == CERTIFIED_YES
        assert v.depth == 30


def two_solve_verdict(t, max_depth, tol):
    """Reference: the verdict with band_min_eig(max_depth) solved before the completion."""
    first_bad = first_nonpositive_depth(t, max_depth, shift=-tol)
    for d in range(max_depth if first_bad is None else first_bad, max_depth + 1):
        margin = band_min_eig(t, d)
        if margin < -tol:
            return ContractionVerdict(status=CERTIFIED_NO, margin=float(margin), depth=d)
    try:
        cert = ando_complete(t, depth=max_depth, tol=tol)
    except (ConvergenceError, DomainError):
        cert = None
    if cert is not None and cert.strictly_valid(tol):
        return ContractionVerdict(status=CERTIFIED_YES, margin=float(margin),
                                  depth=max_depth, certificate=cert)
    return ContractionVerdict(status=UNDECIDED, margin=float(margin), depth=max_depth)


def conjugated_diagonal(rng, n, p, rho):
    """a_j = U diag(c_j) U* with joint radius exactly rho / 2."""
    c = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    c *= 0.5 * rho / np.linalg.norm(c, axis=0).max()
    u = unitary(rng, p)
    return MatrixTuple.from_arrays([u @ np.diag(cj) @ u.conj().T for cj in c])


class TestSingleSolve:
    """A verdict that reaches the completion solves band_min_eig once, at max_depth."""

    @pytest.fixture
    def solves(self, monkeypatch):
        depths = []

        def counting(fn):
            def wrapper(t, depth):
                depths.append(depth)
                return fn(t, depth)
            return wrapper
        monkeypatch.setattr(radius, "band_min_eig", counting(radius.band_min_eig))
        monkeypatch.setattr(shorted, "band_min_eig", counting(shorted.band_min_eig))
        return depths

    def test_interior_yes_solves_once_at_max_depth(self, solves, rng):
        v = is_dual_row_contraction(random_row_contraction(rng, 2, 2, norm=0.3), max_depth=5)
        assert v.status == CERTIFIED_YES
        assert v.certificate.epsilon_used > 0.0
        assert v.margin == 2.0 * v.certificate.epsilon_used
        assert solves == [5]

    def test_refutation_solves_from_first_bad_depth(self, solves):
        t = scalars(0.9, 0.1)
        first_bad = first_nonpositive_depth(t, 6, shift=-1e-8)
        v = is_dual_row_contraction(t)
        assert v.status == CERTIFIED_NO
        assert solves == list(range(first_bad, v.depth + 1))

    def test_fixed_point_certificate_solves_once(self, solves):
        v = is_dual_row_contraction(scalars(0.3, 0.4))
        assert v.status == CERTIFIED_YES
        assert v.certificate.epsilon_used == 0.0
        assert solves == [6]

    def test_undecided_solves_once(self, solves):
        v = is_dual_row_contraction(scalars(0.5002))
        assert v.status == UNDECIDED
        assert solves == [6]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), p=st.integers(1, 3), max_depth=st.integers(0, 6),
       tol=st.sampled_from([0.0, 1e-8]),
       kind=st.sampled_from(["refuted", "interior", "near", "boundary"]),
       seed=st.integers(0, 2**32 - 1))
def test_verdict_matches_two_solve_flow(n, p, max_depth, tol, kind, seed):
    # The arrowhead at the fixed point is singular, so with tol = 0 a fixed-point fallback
    # rarely clears margin >= 0, and both flows then scan the whole level budget (seconds).
    assume(tol > 0.0 or kind in ("refuted", "interior"))
    rng = np.random.default_rng(seed)
    if kind == "refuted":
        t = random_row_contraction(rng, n, p, norm=rng.uniform(1.01, 2.0))
    elif kind == "interior":
        t = random_row_contraction(rng, n, p, norm=rng.uniform(0.05, 0.95))
    else:
        # Draws within 1e-3 of rho = 1 may scan the whole level budget before refuting.
        rho = 1.0 if kind == "boundary" else rng.choice([rng.uniform(0.95, 0.999),
                                                          rng.uniform(1.001, 1.05)])
        t = conjugated_diagonal(rng, n, p, rho)
    got, want = is_dual_row_contraction(t, max_depth, tol), two_solve_verdict(t, max_depth, tol)
    assert (got.status, got.depth, got.margin) == (want.status, want.depth, want.margin)
    assert (got.certificate is None) == (want.certificate is None)
    if want.certificate is not None:
        assert np.array_equal(got.certificate.b, want.certificate.b)
        assert got.certificate.margin == want.certificate.margin
        assert got.certificate.epsilon_used == want.certificate.epsilon_used
        assert got.certificate.depth_used == want.certificate.depth_used


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), p=st.integers(1, 3), max_depth=st.integers(0, 8),
       tol=st.sampled_from([0.0, 1e-8]), frac=st.floats(0.3, 1.3),
       diagonal=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scan_cannot_flag_above_the_lower_bound(n, p, max_depth, tol, frac, diagonal, seed):
    """lo > -tol leaves no depth d <= max_depth for the refutation scan to flag."""
    rng = np.random.default_rng(seed)
    # Row norm r = frac / (2 cos(pi/(max_depth+2))), so lo = 1 - frac; lo is exact for
    # conjugated diagonal tuples, whose depth-d radius is r cos(pi/(d+2)).
    r = 0.5 * frac / math.cos(math.pi / (max_depth + 2))
    t = conjugated_diagonal(rng, n, p, 2.0 * r) if diagonal else \
        random_row_contraction(rng, n, p, norm=r)
    _, lo = band_lower_bound(t, max_depth)
    # Draws with frac > 1 test band_lower_bound itself: a bound set too high would keep them.
    # Within rounding of -tol, the pivot test of the scan is rounding too.
    assume(lo > -tol + 1e-10)
    for d in range(max_depth + 1):
        assert first_nonpositive_depth(t, d, shift=-tol) is None


@pytest.mark.parametrize("make, status", [
    (lambda rng: random_row_contraction(rng, 2, 2, norm=0.4), CERTIFIED_YES),
    (lambda rng: random_row_contraction(rng, 2, 2, norm=1.1), CERTIFIED_NO),
    (lambda rng: conjugated_diagonal(rng, 2, 2, 1.0), CERTIFIED_YES),
    (lambda rng: conjugated_diagonal(rng, 2, 2, 1.03), UNDECIDED),
], ids=["interior", "refuted", "boundary", "just-over"])
def test_verdict_builds_the_level_data_once(monkeypatch, rng, make, status):
    """The row gram and its eigensolve, and the level stacks, once per verdict: the
    bound, the scan, each band eigenvalue and the completion share them."""
    t = make(rng)
    grams = []
    real_gram = MatrixTuple.row_gram

    def counting(self):
        grams.append(self)
        return real_gram(self)
    monkeypatch.setattr(MatrixTuple, "row_gram", counting)
    v = is_dual_row_contraction(t)
    assert v.status == status
    assert len(grams) == 1
    assert shorted._levels(t) is shorted._levels(t)


class TestScanSkip:
    """The refutation scan runs only when the lower bound of band_lower_bound is at most -tol."""

    @pytest.fixture
    def scans(self, monkeypatch):
        depths = []

        def counting(t, max_depth, shift=0.0):
            depths.append(max_depth)
            return first_nonpositive_depth(t, max_depth, shift)
        monkeypatch.setattr(radius, "first_nonpositive_depth", counting)
        return depths

    def test_interior_and_boundary_verdicts_skip_the_scan(self, scans, rng):
        interior = is_dual_row_contraction(random_row_contraction(rng, 2, 2, norm=0.4))
        boundary = is_dual_row_contraction(conjugated_diagonal(rng, 2, 2, 1.0))
        assert interior.status == boundary.status == CERTIFIED_YES
        assert boundary.certificate.epsilon_used == 0.0
        assert scans == []

    @pytest.mark.parametrize("make, depth", [
        (lambda rng: random_row_contraction(rng, 2, 2, norm=1.1), 1),
        # r = 0.55: band_d is positive for d <= 5, and 0.55 cos(pi/8) > 1/2 flags depth 6.
        (lambda rng: conjugated_diagonal(rng, 2, 2, 1.1), 6),
    ], ids=["r=1.1", "diagonal-rho=1.1"])
    def test_refutation_keeps_the_scan(self, scans, rng, make, depth):
        t = make(rng)
        v = is_dual_row_contraction(t)
        assert scans == [6]
        assert v.status == CERTIFIED_NO
        assert v.depth == first_nonpositive_depth(t, 6, shift=-1e-8) == depth


class TestDualImpliesRow:
    """A dual row contraction is a row contraction (||T|| <= 2 w(T)); not conversely."""

    def test_dual_no_row_yes(self):
        t = scalars(0.9, 0.1)
        dual = is_dual_row_contraction(t)
        assert dual.status == CERTIFIED_NO
        assert dual.depth == 2
        assert is_row_contraction(t).status == CERTIFIED_YES

    def test_both_yes(self):
        t = scalars(0.3, 0.4)
        assert is_dual_row_contraction(t, max_depth=4).status == CERTIFIED_YES
        assert is_row_contraction(t).status == CERTIFIED_YES

    def test_both_no(self):
        t = scalars(1.2, 0.0)
        assert is_dual_row_contraction(t).status == CERTIFIED_NO
        assert is_row_contraction(t).status == CERTIFIED_NO
