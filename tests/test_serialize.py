import numpy as np
import pytest

from fockband import InputError, MatrixTuple, ando_complete, en_decompose, en_element
from fockband.cli import RunConfig, _verify_certificate
from fockband.serialize import (certificate_from_json, certificate_to_json,
                                decomposition_from_json, decomposition_to_json,
                                dual_element_from_json, dual_map_from_json,
                                dumps_canonical, en_element_from_json,
                                en_element_to_json, loads, matrix_from_json,
                                matrix_to_json, tuple_from_json, tuple_to_json)

from support import random_matrix, random_psd_arrowhead, random_tuple


class TestMatrixRoundTrip:
    def test_complex_exact(self, rng):
        m = random_matrix(rng, 3)
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(m, back)

    def test_rectangular(self):
        m = np.arange(6.0).reshape(2, 3) + 1j
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_shape_mismatch_rejected(self):
        bad = {"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(InputError):
            matrix_from_json(bad)

    def test_missing_keys_rejected(self):
        with pytest.raises(InputError):
            matrix_from_json({"rows": 1, "cols": 1, "re": [[1.0]]})
        with pytest.raises(InputError):
            matrix_from_json([1, 2, 3])


class TestTupleRoundTrip:
    def test_exact(self, rng):
        t = random_tuple(rng, 3, 2)
        d = tuple_to_json(t)
        assert d["kind"] == "matrix_tuple"
        back = tuple_from_json(d)
        assert back.n == t.n and back.p == t.p
        for m, m2 in zip(t.a, back.a):
            assert np.array_equal(m, m2)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            tuple_from_json({"a": []})
        with pytest.raises(InputError):
            tuple_from_json({"n": 1})


class TestElementRoundTrips:
    def test_en_element(self, rng):
        e = random_psd_arrowhead(rng, 2, 2)
        back = en_element_from_json(en_element_to_json(e))
        assert np.array_equal(back.a0, e.a0)
        assert np.array_equal(back.b, e.b)
        for m, m2 in zip(e.arms, back.arms):
            assert np.array_equal(m, m2)

    def test_dual_element(self, rng):
        b0, bs = np.eye(2), [random_matrix(rng, 2) for _ in range(2)]
        back = dual_element_from_json({"B0": matrix_to_json(b0),
                                       "B": [matrix_to_json(m) for m in bs]})
        assert np.array_equal(back.B0, b0)
        for m, m2 in zip(bs, back.B):
            assert np.array_equal(m, m2)

    def test_dual_map(self, rng):
        unit, x = np.eye(2), random_matrix(rng, 2, scale=0.3)
        back = dual_map_from_json({"unit": matrix_to_json(unit), "x": [matrix_to_json(x)]})
        assert np.array_equal(back.unit, unit)
        assert np.array_equal(back.x[0], x)

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            en_element_from_json({"a0": {"rows": 1}})
        with pytest.raises(InputError):
            dual_element_from_json("nope")
        with pytest.raises(InputError):
            dual_map_from_json({"unit": None})


class TestCertificateRoundTrip:
    def test_rebuilds_arrowhead(self):
        t = MatrixTuple.from_arrays([np.array([[0.4]], dtype=complex)])
        cert = ando_complete(t)
        back = certificate_from_json(certificate_to_json(cert))
        assert np.array_equal(back.a, cert.a)
        assert np.array_equal(back.b, cert.b)
        assert np.array_equal(back.arrowhead, cert.arrowhead)
        assert back.margin == cert.margin
        assert back.epsilon_used == cert.epsilon_used
        assert back.depth_used == cert.depth_used
        assert back.strictly_valid()

    def test_tampered_margin_is_recomputed(self):
        t = MatrixTuple.from_arrays([np.array([[0.4]], dtype=complex)])
        wire = certificate_to_json(ando_complete(t))
        # a = 0.9, b = 0.1 with arm 0.4: the arrowhead has determinant -0.07.
        wire["a"]["re"][0][0], wire["b"]["re"][0][0] = 0.9, 0.1
        wire["margin"] = 1.0
        back = certificate_from_json(wire)
        assert back.margin == float(np.linalg.eigvalsh(back.arrowhead)[0]) < 0.0
        assert not back.strictly_valid()

    def test_sum_gap_fails_both_checks(self):
        t = MatrixTuple.from_arrays([np.array([[0.4]], dtype=complex)])
        wire = certificate_to_json(ando_complete(t))
        # a = 0.5, b = 0.6 with arm 0.1: a psd arrowhead, but a + b is not I.
        wire["a"]["re"][0][0], wire["b"]["re"][0][0] = 0.5, 0.6
        wire["arms"][0]["re"][0][0] = 0.1
        back = certificate_from_json(wire)
        assert back.margin > 0.0
        assert not back.strictly_valid()
        code, report = _verify_certificate(wire, RunConfig())
        assert code == 1 and report["valid"] is False
        assert report["sum_gap"] == pytest.approx(0.1, abs=1e-15)

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            certificate_from_json({"a": {"rows": 1}})


class TestDecompositionRoundTrip:
    def test_exact(self, rng):
        e = random_psd_arrowhead(rng, 2, 2)
        dec = en_decompose(e, epsilon=1e-6)
        back_dec, back_e = decomposition_from_json(decomposition_to_json(dec, e))
        assert np.array_equal(back_dec.D, dec.D)
        assert np.array_equal(back_dec.P, dec.P)
        assert np.array_equal(back_dec.Q, dec.Q)
        assert back_dec.epsilon == dec.epsilon
        assert np.array_equal(back_e.a0, e.a0)
        recon_gap = np.linalg.norm(back_dec.reconstruction() - dec.reconstruction(), 2)
        assert recon_gap == 0.0

    def test_bad_pattern_shape_rejected(self, rng):
        e = random_psd_arrowhead(rng, 2, 1)
        dec = en_decompose(e, epsilon=1e-6)
        d = decomposition_to_json(dec, e)
        d["P"] = [[0.0]]
        with pytest.raises(InputError):
            decomposition_from_json(d)


class TestCanonicalText:
    def test_sorted_keys_and_determinism(self, rng):
        t = random_tuple(rng, 2, 2)
        s1 = dumps_canonical(tuple_to_json(t))
        s2 = dumps_canonical(tuple_to_json(t))
        assert s1 == s2
        obj = loads(s1)
        assert list(obj.keys()) == sorted(obj.keys())

    def test_roundtrip_through_text(self, rng):
        t = random_tuple(rng, 2, 3)
        back = tuple_from_json(loads(dumps_canonical(tuple_to_json(t))))
        for m, m2 in zip(t.a, back.a):
            assert np.array_equal(m, m2)

    def test_malformed_text_rejected(self):
        with pytest.raises(InputError):
            loads("{not json")
