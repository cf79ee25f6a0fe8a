import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fockband.shorted as shorted_mod
from fockband import (AndoCertificate, BlockSplit, CapacityError, ConvergenceError,
                      DomainError, InputError, MatrixTuple, ando_complete,
                      arrowhead_matrix, block_split, lam_min, psd_margin, short,
                      variational_check)
from fockband.fock import band_operator_sparse, fock_dim, make_fock
from fockband.cli import RunConfig, _verify_certificate
from fockband.serialize import certificate_to_json
from fockband.shorted import (PEEL_BUDGET, _arrowhead_margin, _fixed_point, _row_and_adjoints,
                              _stein, _walk, band_min_eig, first_nonpositive_depth)

from support import random_matrix, random_psd, random_tuple, unitary


def scalars(*values):
    return MatrixTuple.from_arrays([np.array([[v]], dtype=complex) for v in values])


def interior_tuple(rng, n=2, p=2, row_norm=0.38):
    """Random tuple scaled to a row norm well inside the contraction region."""
    t = random_tuple(rng, n, p, scale=0.2)
    norm = float(np.sqrt(np.linalg.eigvalsh(t.row_gram())[-1].real))
    return t.scale(row_norm / norm)


class TestShort:
    def test_identity(self):
        res = short(block_split(np.eye(4), 2))
        assert np.array_equal(res.shorted, np.eye(2))
        assert res.schur_used

    def test_two_by_two(self):
        res = short(block_split(np.array([[2.0, 1.0], [1.0, 1.0]]), 1))
        assert res.shorted == pytest.approx(np.array([[1.0]]))
        assert res.schur_used

    def test_rank_one_shorts_to_zero(self):
        res = short(block_split(np.ones((2, 2)), 1))
        assert res.shorted == pytest.approx(np.array([[0.0]]), abs=1e-15)

    def test_singular_tail_uses_pinv(self):
        a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        res = short(block_split(a, 1))
        assert not res.schur_used
        assert res.shorted == pytest.approx(np.array([[0.0]]), abs=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            short(block_split(np.array([[0.0, 1.0], [1.0, 0.0]]), 1))

    def test_cut_validation(self):
        with pytest.raises(InputError):
            block_split(np.eye(3), 0)
        with pytest.raises(InputError):
            block_split(np.eye(3), 3)

    def test_short_below_matrix(self, rng):
        for _ in range(5):
            a = random_psd(rng, 6)
            cut = int(rng.integers(1, 6))
            s = short(block_split(a, cut)).shorted
            padded = np.zeros_like(a)
            padded[:cut, :cut] = s
            assert psd_margin(a - padded).min_eigenvalue >= -1e-10
            assert psd_margin(a[:cut, :cut] - s).min_eigenvalue >= -1e-10

    def test_short_monotone(self, rng):
        for _ in range(5):
            a = random_psd(rng, 5) + 0.1 * np.eye(5)
            bump = random_psd(rng, 5, rank=2)
            sa = short(block_split(a, 2)).shorted
            sb = short(block_split(a + bump, 2)).shorted
            assert psd_margin(sb - sa).min_eigenvalue >= -1e-10


class TestVariational:
    def test_identity_block(self):
        rep = variational_check(block_split(np.eye(3), 1), [1.0])
        assert rep.short_value == pytest.approx(1.0)
        assert rep.closed_form_min == pytest.approx(1.0)
        assert rep.consistent()

    def test_two_by_two_minimizer(self):
        rep = variational_check(block_split(np.array([[2.0, 1.0], [1.0, 1.0]]), 1), [1.0])
        assert rep.short_value == pytest.approx(1.0)
        assert rep.minimizer == pytest.approx(np.array([-1.0]))
        assert rep.closed_form_min == pytest.approx(1.0)
        assert rep.best_sampled >= rep.short_value - 1e-8
        assert rep.consistent()

    def test_random_psd(self, rng):
        for _ in range(5):
            a = random_psd(rng, 6)
            cut = int(rng.integers(1, 6))
            x = rng.standard_normal(cut) + 1j * rng.standard_normal(cut)
            rep = variational_check(block_split(a, cut), x, trials=100, rng=rng)
            assert rep.consistent(1e-8)

    def test_zero_trials_reports_closed_form(self):
        rep = variational_check(block_split(np.eye(2), 1), [1.0], trials=0)
        assert rep.best_sampled == rep.closed_form_min

    def test_wrong_x_length(self):
        with pytest.raises(InputError):
            variational_check(block_split(np.eye(3), 1), [1.0, 2.0])


def test_arrowhead_layout():
    out = arrowhead_matrix(np.array([[2.0]]), [np.array([[3.0]]), np.array([[4.0]])],
                           np.array([[5.0]]))
    expected = np.array([[2.0, 3.0, 4.0],
                         [3.0, 5.0, 0.0],
                         [4.0, 0.0, 5.0]])
    assert np.array_equal(out, expected)


class TestAndoComplete:
    def test_zero_tuple_explicit_epsilon(self):
        cert = ando_complete(scalars(0.0, 0.0), epsilon=0.1)
        assert cert.b[0, 0].real == pytest.approx(0.9, abs=1e-12)
        assert cert.margin == pytest.approx(0.1, abs=1e-12)
        assert cert.epsilon_used == 0.1
        assert cert.depth_used == 6
        assert cert.strictly_valid()

    def test_interior_scalar_frozen_values(self):
        cert = ando_complete(scalars(0.4))
        assert cert.b[0, 0].real == pytest.approx(0.6061966998013524, abs=1e-12)
        assert cert.margin == pytest.approx(0.08614285188159598, abs=1e-10)
        assert cert.epsilon_used == pytest.approx(0.13044818699548522, abs=1e-10)
        assert cert.depth_used == 6
        assert cert.strictly_valid()

    def test_a_plus_b_is_identity_exactly(self, rng):
        t = interior_tuple(rng)
        cert = ando_complete(t, depth=4)
        assert cert.depth_used == 4
        assert np.array_equal(cert.a + cert.b, np.eye(2, dtype=np.complex128))

    def test_matches_dense_schur(self, rng):
        t = interior_tuple(rng)
        cert = ando_complete(t, depth=3)
        assert cert.depth_used == 3
        f = make_fock(2, 3)
        band = band_operator_sparse(f, t).toarray()
        shrunk = band - cert.epsilon_used * np.eye(band.shape[0])
        p = t.p
        schur = shrunk[:p, :p] - shrunk[:p, p:] @ np.linalg.solve(
            shrunk[p:, p:], shrunk[p:, :p])
        assert cert.b == pytest.approx(schur, abs=1e-12)

    def test_arrowhead_is_reassemblable(self, rng):
        t = interior_tuple(rng)
        cert = ando_complete(t, depth=4)
        rebuilt = arrowhead_matrix(cert.a, cert.arms.a, cert.b)
        assert np.array_equal(rebuilt, cert.arrowhead)
        assert cert.margin == pytest.approx(
            float(np.linalg.eigvalsh(cert.arrowhead)[0]), abs=1e-12)

    def test_explicit_epsilon_falls_back_to_the_fixed_point(self):
        # The epsilon-short misses the margin, so the fixed point is taken as for automatic epsilon.
        cert, auto = ando_complete(scalars(0.3, 0.4), epsilon=0.01), ando_complete(scalars(0.3, 0.4))
        assert np.array_equal(cert.b, auto.b)
        assert cert.margin == auto.margin
        assert cert.epsilon_used == 0.0
        assert cert.depth_used == 6
        assert cert.strictly_valid()

    def test_explicit_epsilon_solves_no_band_eigenvalue(self, monkeypatch):
        def refuse(t, depth):
            raise AssertionError("band_min_eig called")
        monkeypatch.setattr(shorted_mod, "band_min_eig", refuse)
        cert = ando_complete(scalars(0.4), epsilon=0.1)
        assert cert.epsilon_used == 0.1 and cert.strictly_valid()

    def test_epsilon_past_band_margin_fails_in_the_walk(self):
        # lam_min(band_6) of (0.4,) is about 0.261: the shrunk band has a pivot that is not pd.
        with pytest.raises(DomainError, match="not positive definite at depth"):
            ando_complete(scalars(0.4), epsilon=0.5)

    def test_epsilon_out_of_range(self):
        for epsilon in (0.0, 1.0, 1.5, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="epsilon must lie in"):
                ando_complete(scalars(0.4), epsilon=epsilon)

    def test_over_norm_refused(self):
        with pytest.raises(DomainError):
            ando_complete(scalars(0.6, 0.6))

    def test_boundary_tuple_deep_continuation(self):
        cert = ando_complete(scalars(0.3, 0.4))
        assert cert.epsilon_used == 0.0
        assert cert.depth_used == 6
        assert cert.b[0, 0].real == pytest.approx(0.5000610426077509, abs=1e-10)
        assert cert.margin == pytest.approx(-3.726199848674838e-09, abs=1e-12)
        assert abs(cert.b[0, 0] - 0.5) <= 1e-4
        assert cert.strictly_valid()

    def test_just_over_boundary_refuted_in_continuation(self):
        with pytest.raises(DomainError, match="not positive definite at depth"):
            ando_complete(scalars(0.5002))

    def test_deep_completion_keeps_one_pivot(self, monkeypatch):
        # 3000 pivots of 4 x 4 would hold 768 kB; the completion keeps X_depth alone.
        t = interior_tuple(np.random.default_rng(6), p=4)
        margin = band_min_eig(t, 40)
        monkeypatch.setattr(shorted_mod, "band_min_eig", lambda t, depth: margin)
        tracemalloc.start()
        try:
            cert = ando_complete(t, depth=3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.depth_used == 3000 and cert.strictly_valid()
        assert peak < 200_000

    def test_zero_gap_is_not_normed(self, monkeypatch):
        cert = ando_complete(scalars(0.3, 0.4))

        def refuse(*args, **kwargs):
            raise AssertionError("norm taken of an exactly zero gap")
        monkeypatch.setattr(np.linalg, "norm", refuse)
        report = cert.verify()
        assert report["sum_gap"] == 0.0 and report["valid"]

    def test_budget_exhaustion(self, monkeypatch):
        # (0.3, 0.4) needs 12 Newton steps; no depth up to 64 refutes it.
        monkeypatch.setattr(shorted_mod, "NEWTON_BUDGET", 4)
        monkeypatch.setattr(shorted_mod, "PEEL_BUDGET", 64)
        with pytest.raises(ConvergenceError, match="fixed-point iteration"):
            ando_complete(scalars(0.3, 0.4))


@pytest.mark.parametrize("values", [(0.3, 0.4), (0.5,)])
def test_fixed_point_needs_few_newton_steps(monkeypatch, values):
    # The peel took 8,192 level steps here; a linear-rate loop would not fit 16.
    monkeypatch.setattr(shorted_mod, "NEWTON_BUDGET", 16)
    cert = ando_complete(scalars(*values))
    assert cert.epsilon_used == 0.0 and cert.strictly_valid()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stein_matches_kron_sum(n, p, seed):
    """The broadcast assembly has the entries and the summation order of np.kron's."""
    rng = np.random.default_rng(seed)
    k = np.stack([random_matrix(rng, p) for _ in range(n)])
    assert np.array_equal(_stein(k), np.eye(p * p) - sum(np.kron(m.conj().T, m.T) for m in k))


def peel_reference(t: MatrixTuple, tol: float) -> np.ndarray:
    """The retired continuation: shift-free pivots, margin checked at doubling depths."""
    eye = np.eye(t.p, dtype=np.complex128)
    stacks = _row_and_adjoints(t)
    checkpoint = 16
    while checkpoint <= PEEL_BUDGET:
        depth, x, _ = _walk(stacks, checkpoint)
        if depth < checkpoint:
            break
        if _arrowhead_margin(eye - x, t.a, x) >= -tol:
            return x
        checkpoint *= 2
    raise AssertionError("band lost positivity")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), p=st.integers(1, 3), rho=st.floats(0.97, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_fixed_point_of_conjugated_diagonal_tuples(n, p, rho, seed):
    """a_j = U diag(c_j) U*: the maximal solution is U diag((1 + sqrt(1 - 4 |c^(k)|^2)) / 2) U*."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    c *= 0.5 * rho / np.linalg.norm(c, axis=0).max()
    u = unitary(rng, p)
    t = MatrixTuple.from_arrays([u @ np.diag(cj) @ u.conj().T for cj in c])
    roots = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * np.linalg.norm(c, axis=0) ** 2))
    fixed = (u * (0.5 * (1.0 + roots))) @ u.conj().T

    b, margin = _fixed_point(t, 1e-8)
    a = np.eye(p, dtype=np.complex128) - b
    cert = AndoCertificate(a=a, b=b, arrowhead=arrowhead_matrix(a, t.a, b), margin=margin,
                           epsilon_used=0.0, depth_used=6, arms=t)
    code, report = _verify_certificate(certificate_to_json(cert), RunConfig())
    assert code == 0 and report["valid"]
    assert np.array_equal(a + b, np.eye(p))
    # Largest distances seen over 300 such examples: 6.1e-5 to the closed form (at
    # rho = 1, where the stopping rule halts about sqrt(tol) above it), 8.1e-8 to the peel.
    assert np.linalg.norm(b - fixed, 2) <= 1e-4
    if rho < 1.0:
        assert np.linalg.norm(b - peel_reference(t, 1e-8), 2) <= 2e-7


def dense_vacuum_short(band: np.ndarray, p: int) -> np.ndarray:
    """Schur complement of a dense band onto its leading p x p (vacuum) block."""
    if band.shape[0] == p:
        return band
    return band[:p, :p] - band[:p, p:] @ np.linalg.solve(band[p:, p:], band[p:, :p])


def test_peel_matches_global_short(rng):
    t = random_tuple(rng, 2, 2, scale=0.2)
    p = t.p
    stacks = _row_and_adjoints(t)
    for depth in range(1, 6):
        k, x, _ = _walk(stacks, depth)
        assert k == depth
        band = band_operator_sparse(make_fock(t.n, depth), t).toarray()
        b = dense_vacuum_short(band, p)
        assert np.linalg.norm(x - b, 2) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), p=st.integers(1, 3), depth=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 0.6),
       mu=st.floats(-0.5, 0.9))
def test_level_recursion_matches_dense_band(n, p, depth, seed, scale, mu):
    """Pivot positivity and vacuum short of band_d - mu*I against the dense band."""
    t = random_tuple(np.random.default_rng(seed), n, p, scale=scale)
    band = band_operator_sparse(make_fock(n, depth), t).toarray()
    mins = [lam_min(band[:k, :k]) for k in (fock_dim(n, d) * p for d in range(depth + 1))]
    assume(all(abs(m - mu) >= 1e-9 for m in mins))
    expected = next((d for d, m in enumerate(mins) if m < mu), None)
    assert first_nonpositive_depth(t, depth, shift=mu) == expected
    if expected is None:
        k, vacuum, _ = _walk(_row_and_adjoints(t), depth, shift=mu)
        assert k == depth
        shifted = band - mu * np.eye(band.shape[0])
        assert np.linalg.norm(vacuum - dense_vacuum_short(shifted, p), 2) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), p=st.integers(1, 3), depth=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 2.0))
def test_band_min_eig_matches_dense_band(n, p, depth, seed, scale):
    """Newton on the level recursion against the dense band's least eigenvalue."""
    t = random_tuple(np.random.default_rng(seed), n, p, scale=scale)
    band = band_operator_sparse(make_fock(n, depth), t).toarray()
    assert band_min_eig(t, depth) == pytest.approx(lam_min(band), abs=1e-12)


def test_band_min_eig_exact_and_degenerate_cases(rng):
    t = random_tuple(rng, 2, 2, scale=0.3)
    assert band_min_eig(t, 0) == 1.0
    assert band_min_eig(t.scale(0.0), 4) == 1.0
    padded = MatrixTuple.from_arrays([np.pad(m, ((0, 1), (0, 1))) for m in t.a])
    # Nilpotent arms with a_i a_j = 0: lam_min(band_d) = 1 - r at every depth d >= 1,
    # the upper end of the bracket and, for d >= 2, the pole of the recursion too.
    nilpotent = MatrixTuple.from_arrays([np.array([[0.0, c], [0.0, 0.0]]) for c in (0.3, 0.4j)])
    for u in (padded, nilpotent):
        for depth in range(1, 6):
            band = band_operator_sparse(make_fock(u.n, depth), u).toarray()
            assert band_min_eig(u, depth) == pytest.approx(lam_min(band), abs=1e-12)


@pytest.mark.parametrize("entry", [
    band_min_eig, first_nonpositive_depth,
    lambda t, depth: ando_complete(t, depth=depth),
    pytest.param(lambda t, depth: ando_complete(t, depth=depth, epsilon=0.1),
                 id="ando_complete_explicit_epsilon"),
])
def test_recursion_entries_check_depth(entry):
    t = scalars(0.3, 0.4)
    with pytest.raises(InputError):
        entry(t, -5)
    with pytest.raises(CapacityError):
        entry(t, PEEL_BUDGET + 1)
    shorted_mod.check_depth(PEEL_BUDGET)
