import os
import subprocess
import sys

import numpy as np
import pytest

import fockband
from fockband import (InputError, herm_eig, hermitize, kron, lam_max, lam_min, op_norm,
                      pinv, psd_margin)
from fockband.linalg import as_matrix

from support import random_psd


def test_as_matrix_rejects_non_2d():
    with pytest.raises(InputError):
        as_matrix([1.0, 2.0])
    with pytest.raises(InputError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InputError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        as_matrix([[np.nan]])


def test_hermitize_symmetrizes(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitize(a)
    assert np.array_equal(h, h.conj().T)
    assert np.allclose(h, 0.5 * (a + a.conj().T))


def test_hermitize_rejects_rectangular():
    with pytest.raises(InputError):
        hermitize(np.zeros((2, 3)))


def test_psd_margin_reports_min_eigenvalue():
    rep = psd_margin(np.diag([1.0, -0.5]))
    assert rep.min_eigenvalue == pytest.approx(-0.5, abs=1e-14)
    assert not rep.is_psd
    rep = psd_margin(np.eye(3))
    assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-14)
    assert rep.is_psd
    assert rep.dim == 3


def test_psd_margin_tolerance_scales_with_norm():
    rep = psd_margin(1e6 * np.eye(2) - np.diag([0.0, 1e-4]))
    # a 1e-4 dip under a 1e6 norm is far inside the relative tolerance
    assert rep.is_psd


def test_herm_eig_ascending_and_reconstructs(rng):
    h = random_psd(rng, 5) - 0.3 * np.eye(5)
    w, v = herm_eig(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12)


def test_kron_block_placement(rng):
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2))
    k = kron(a, b)
    for i in range(2):
        for j in range(3):
            block = k[i * 3:(i + 1) * 3, j * 2:(j + 1) * 2]
            assert np.allclose(block, a[i, j] * b)


def test_kron_unit_placement():
    e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
    k = kron(e00, e01)
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    assert np.array_equal(k, expected)


def test_op_norm_known_values():
    assert op_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    assert op_norm(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(golden, abs=1e-12)


def test_op_norm_sparse_matches_dense(rng):
    import scipy.sparse as sp
    a = rng.standard_normal((40, 40))
    assert op_norm(sp.csr_matrix(a)) == pytest.approx(op_norm(a), abs=1e-9)
    assert op_norm(sp.csr_matrix((5, 5))) == 0.0


def test_pinv_known_values():
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12)
    assert np.allclose(pinv(np.ones((2, 2))), np.ones((2, 2)) / 4.0, atol=1e-12)


def test_lam_extremes_dense_vs_sparse(rng):
    import scipy.sparse as sp
    h = random_psd(rng, 30) - 0.4 * np.eye(30)
    hs = sp.csr_matrix(h)
    assert lam_max(hs) == pytest.approx(lam_max(h), abs=1e-10)
    assert lam_min(hs) == pytest.approx(lam_min(h), abs=1e-10)


def test_import_loads_no_sparse_eigensolver():
    src = os.path.dirname(os.path.dirname(fockband.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, fockband; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_sparse_to_dilate():
    # Only the word-space builders need scipy.sparse; the verbs that recurse on p x p
    # levels must not pay its import.
    src = os.path.dirname(os.path.dirname(fockband.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, numpy as np, fockband, fockband.cli\n"
            "before = 'scipy.sparse' in sys.modules\n"
            "t = fockband.MatrixTuple.from_arrays([np.array([[0.3]]), np.array([[0.4]])])\n"
            "rep = fockband.verify_dilation(fockband.bunce_dilate(t, 3), t)\n"
            "print(before, 'scipy.sparse' in sys.modules, rep.words_checked,\n"
            "      rep.isometry_deviation <= 1e-10 and rep.compression_deviation <= 1e-10)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["False", "True", "14", "True"]
