import io
import json
import math
import sys

import numpy as np
import pytest

from fockband import MatrixTuple, ando_complete, dilation, en_decompose, en_element, radius
from fockband.cli import _COMMANDS, _PARSER, main
from fockband.radius import LADDER_BUDGET
from fockband.serialize import (certificate_to_json, decomposition_to_json, matrix_to_json,
                                tuple_to_json)


def scalar_tuple_json(*values):
    t = MatrixTuple.from_arrays([np.array([[v]], dtype=complex) for v in values])
    return tuple_to_json(t)


def certificate_json(a, b, arms):
    """A wire certificate of (0.4,) with its a, b and arms replaced by the given matrices."""
    cert = certificate_to_json(ando_complete(MatrixTuple.from_arrays([np.array([[0.4]])])))
    cert.update(a=matrix_to_json(a), b=matrix_to_json(b), arms=[matrix_to_json(m) for m in arms])
    return cert


def decomposition_json_with_element(p):
    """The p = 1 decomposition of a two-arm element, carrying a p x p element instead."""
    half = np.array([[0.5]])
    e = en_element(np.eye(1), np.eye(1), [half, half])
    d = decomposition_to_json(en_decompose(e), e)
    d["element"].update(a0=matrix_to_json(np.eye(p)), b=matrix_to_json(np.eye(p)),
                        arms=[matrix_to_json(0.5 * np.eye(p))] * 2)
    return d


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(__import__("os").environ):
        if key.startswith("FOCKBAND_"):
            monkeypatch.delenv(key)


@pytest.fixture
def run(monkeypatch, capsys):
    def _run(argv, payload=None):
        if payload is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    return _run


class TestContractionVerbs:
    def test_zero_tuple_dual_yes(self, run):
        code, out = run(["check-dual-row", "--max-depth", "3"],
                        scalar_tuple_json(0.0, 0.0))
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "certified_yes"
        assert report["margin"] == pytest.approx(1.0, abs=1e-12)
        assert "certificate" in report

    def test_unit_scalar_dual_no(self, run):
        code, out = run(["check-dual-row"], scalar_tuple_json(1.0))
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "certified_no"
        assert report["depth"] == 2
        assert report["margin"] == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-10)

    def test_row_check_exit_codes(self, run):
        code, out = run(["check-row"], scalar_tuple_json(0.3, 0.4))
        assert code == 0
        code, out = run(["check-row"], scalar_tuple_json(1.0, 1.0))
        assert code == 1


class TestRadiusVerbs:
    def test_single_operator(self, run):
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        code, out = run(["radius", "--theta-points", "64"], matrix_to_json(e12))
        assert code == 0
        report = json.loads(out)
        assert report["lower"] == pytest.approx(0.5, abs=1e-6)
        assert report["upper"] >= report["lower"]
        assert report["theta_points"] == 64

    def test_joint_radius(self, run):
        code, out = run(["joint-radius", "--depth", "4", "--theta-points", "16"],
                        scalar_tuple_json(0.3, 0.4))
        assert code == 0
        report = json.loads(out)
        assert report["depth"] == 4
        assert report["lower"] == pytest.approx(0.5 * math.cos(math.pi / 6), abs=1e-9)
        assert report["upper"] == report["lower"]


class TestSweep:
    def test_csv_and_report(self, run, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out = run(["sweep", "--depth", "4", "--theta-points", "16",
                         "--csv", str(path)], scalar_tuple_json(0.3, 0.4))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "depth,radius_lower,band_min_eig"
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        depths = [int(r[0]) for r in rows]
        lowers = [float(r[1]) for r in rows]
        floors = [float(r[2]) for r in rows]
        assert depths == [1, 2, 3, 4]
        for a, b in zip(lowers, lowers[1:]):
            assert b >= a - 1e-12
        for a, b in zip(floors, floors[1:]):
            assert b <= a + 1e-12
        for lo, mn in zip(lowers, floors):
            assert mn == pytest.approx(1.0 - 2.0 * lo, abs=1e-9)
        report = json.loads(out)
        assert report["depths"] == depths
        assert report["radius_lower"] == pytest.approx(lowers)

    def test_byte_determinism(self, run):
        payload = scalar_tuple_json(0.3, 0.4)
        code1, out1 = run(["sweep", "--depth", "3", "--theta-points", "16"], payload)
        code2, out2 = run(["sweep", "--depth", "3", "--theta-points", "16"], payload)
        assert code1 == code2 == 0
        assert out1 == out2


class TestCertificatePipeline:
    def test_complete_then_verify(self, run, tmp_path):
        code, out = run(["ando-complete"], scalar_tuple_json(0.3, 0.4))
        assert code == 0
        cert = json.loads(out)
        assert cert["kind"] == "ando_certificate"
        assert cert["depth"] == 6
        assert cert["epsilon"] == 0.0
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out = run(["verify", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["valid"] is True
        assert report["sum_gap"] == 0.0

    def test_tampered_certificate_fails(self, run, tmp_path):
        code, out = run(["ando-complete"], scalar_tuple_json(0.4))
        assert code == 0
        cert = json.loads(out)
        cert["b"]["re"][0][0] += 0.25
        code, out = run(["verify"], cert)
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_interior_scalar_certificate(self, run):
        code, out = run(["ando-complete"], scalar_tuple_json(0.4))
        assert code == 0
        cert = json.loads(out)
        assert cert["depth"] == 6
        assert cert["b"]["re"][0][0] == pytest.approx(0.6061966998013524, abs=1e-12)

    def test_explicit_epsilon_near_boundary_matches_default(self, run):
        code, out = run(["ando-complete", "--epsilon", "0.01"],
                        scalar_tuple_json(0.3, 0.4))
        assert code == 0
        assert (code, out) == run(["ando-complete"], scalar_tuple_json(0.3, 0.4))
        assert json.loads(out)["epsilon"] == 0.0

    def test_over_norm_is_refused(self, run):
        code, out = run(["ando-complete"], scalar_tuple_json(0.6, 0.6))
        assert code == 1
        assert json.loads(out)["error"] == "DomainError"


class TestDecompositionPipeline:
    def test_decompose_then_verify(self, run, tmp_path):
        element = {
            "kind": "en_element",
            "a0": matrix_to_json(np.eye(1)),
            "b": matrix_to_json(np.eye(1)),
            "arms": [matrix_to_json(np.array([[0.5]])),
                     matrix_to_json(np.array([[0.5]]))],
        }
        code, out = run(["en-decompose"], element)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "en_decomposition"
        assert report["epsilon"] == 1e-6
        path = tmp_path / "dec.json"
        path.write_text(out)
        code, out = run(["verify", "--input", str(path)])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["valid"] is True
        assert verdict["pattern_gap"] == 0.0


class TestDualVerbs:
    def test_dual_positive_yes(self, run):
        payload = {"B0": matrix_to_json(np.eye(1)),
                   "B": [matrix_to_json(np.array([[0.6]])),
                         matrix_to_json(np.array([[0.8]]))]}
        code, out = run(["dual-positive"], payload)
        assert code == 0
        assert json.loads(out)["status"] == "certified_yes"

    def test_dual_positive_no(self, run):
        payload = {"B0": matrix_to_json(np.eye(1)),
                   "B": [matrix_to_json(np.array([[1.1]]))]}
        code, out = run(["dual-positive"], payload)
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "certified_no"
        assert report["witness"] == pytest.approx(1.21, abs=1e-12)

    def test_cp_check(self, run):
        unit = matrix_to_json(np.eye(1))
        code, _ = run(["cp-check"], {"unit": unit,
                                     "x": [matrix_to_json(np.array([[0.6]]))]})
        assert code == 1
        code, out = run(["cp-check"], {"unit": unit,
                                       "x": [matrix_to_json(np.array([[0.45]]))]})
        assert code == 0
        assert "certificate" in json.loads(out)


class TestDilateAndLift:
    def test_dilate(self, run):
        code, out = run(["dilate", "--depth", "3"], scalar_tuple_json(0.3, 0.4))
        assert code == 0
        report = json.loads(out)
        assert report["defect_rank"] == 2
        assert report["isometry_deviation"] <= 1e-10
        assert report["compression_deviation"] <= 1e-9
        assert report["words_checked"] == 14

    def test_dilate_max_word_zero(self, run):
        code, out = run(["dilate", "--depth", "3", "--max-word", "0"],
                        scalar_tuple_json(0.3, 0.4))
        assert code == 0
        report = json.loads(out)
        assert report["words_checked"] == 0
        assert report["isometry_deviation"] <= 1e-10

    def test_lift(self, run):
        payload = {"block_sizes": [1, 1], "ideal": [1],
                   "tuple": scalar_tuple_json(0.3, 0.4)}
        code, out = run(["lift", "--depth", "3", "--theta-points", "16"], payload)
        assert code == 0
        report = json.loads(out)
        assert report["max_gap"] <= 1e-10
        assert report["lifted"]["p"] == 2


#: The flags each verb takes besides --input and --config, among those below.
VERB_FLAGS = {
    "check-row": {"--tol"},
    "check-dual-row": {"--tol", "--max-depth"},
    "radius": {"--theta-points"},
    "joint-radius": {"--depth", "--theta-points"},
    "ando-complete": {"--tol", "--depth", "--epsilon"},
    "en-decompose": {"--epsilon"},
    "dual-positive": {"--tol"},
    "cp-check": {"--tol", "--max-depth"},
    "dilate": {"--tol", "--depth"},
    "lift": {"--theta-points", "--depth"},
    "sweep": {"--depth", "--theta-points"},
    "verify": {"--tol"},
}


class TestVerbFlags:
    def test_table_covers_every_verb(self):
        assert set(VERB_FLAGS) == set(_COMMANDS)

    @pytest.mark.parametrize("flag", ["--tol", "--max-depth", "--depth", "--theta-points",
                                      "--epsilon"])
    @pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
    def test_verb_takes_only_its_flags(self, run, verb, flag):
        if flag in VERB_FLAGS[verb]:
            args = _PARSER.parse_args([verb, flag, "9"])
            assert getattr(args, flag[2:].replace("-", "_")) == 9
        else:
            code, out = run([verb, flag, "9"], {})
            assert code == 3
            assert json.loads(out) == {"error": "InputError",
                                       "message": f"unrecognized arguments: {flag} 9"}

    @pytest.mark.parametrize("argv", [
        ["check-dual-row", "--max-depth", "abc"], ["check-dual-row", "--bogus", "1"], [],
    ], ids=["malformed-value", "unknown-flag", "no-verb"])
    def test_usage_error_exits_3_with_one_report(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(scalar_tuple_json(0.3, 0.4))))
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert err == ""
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "InputError"


class TestErrorsAndConfig:
    def test_back_to_back_calls_leak_no_flags(self, run):
        # The parser is built once, at import; a flag given to one call must not stick.
        t = scalar_tuple_json(0.3, 0.4)
        assert json.loads(run(["dilate", "--depth", "3"], t)[1])["depth"] == 3
        assert json.loads(run(["dilate"], t)[1])["depth"] == 4
        assert json.loads(run(["joint-radius", "--theta-points", "16"], t)[1])["theta_points"] == 16
        assert json.loads(run(["joint-radius"], t)[1])["theta_points"] == 720

    @pytest.mark.parametrize("verb", sorted(_COMMANDS))
    def test_verb_help_exits_0(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        assert f"fockband {verb}" in capsys.readouterr().out

    def test_malformed_json(self, run, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{broken"))
        code = main(["check-row"])
        assert code == 3

    def test_unknown_verify_kind(self, run):
        code, out = run(["verify"], {"kind": "mystery"})
        assert code == 3
        assert json.loads(out)["error"] == "InputError"

    def test_capacity_exit(self, run):
        code, out = run(["joint-radius", "--depth", "1000000"],
                        scalar_tuple_json(0.3, 0.4))
        assert code == 3
        assert json.loads(out)["error"] == "CapacityError"

    def test_word_space_guard_exit(self, run):
        code, out = run(["dilate", "--depth", "15000"], scalar_tuple_json(0.3, 0.4))
        assert code == 3
        assert json.loads(out)["error"] == "CapacityError"

    @pytest.mark.parametrize("argv, payload", [
        (["check-dual-row", "--max-depth", "-1"], scalar_tuple_json(0.3, 0.4)),
        (["joint-radius", "--depth", "-1"], scalar_tuple_json(0.3, 0.4)),
        (["ando-complete", "--depth", "-1"], scalar_tuple_json(0.3, 0.4)),
        (["cp-check", "--max-depth", "-1"],
         {"unit": matrix_to_json(np.eye(1)), "x": [matrix_to_json(np.array([[0.45]]))]}),
        (["dilate", "--depth", "-1"], scalar_tuple_json(0.3, 0.4)),
        (["lift", "--depth", "-1"], {"block_sizes": [1, 1], "ideal": [1],
                                     "tuple": scalar_tuple_json(0.3, 0.4)}),
        (["sweep", "--depth", "-1"], scalar_tuple_json(0.3, 0.4)),
        (["dilate", "--max-word", "-1"], scalar_tuple_json(0.3, 0.4)),
    ])
    def test_negative_depth_exits_3(self, run, argv, payload):
        code, out = run(argv, payload)
        assert code == 3
        assert json.loads(out)["error"] == "InputError"

    @pytest.mark.parametrize("argv, payload", [
        (["sweep", "--depth", str(LADDER_BUDGET + 1)], scalar_tuple_json(0.3, 0.4)),
        (["lift", "--depth", str(LADDER_BUDGET + 1)],
         {"block_sizes": [1, 1], "ideal": [1], "tuple": scalar_tuple_json(0.3, 0.4)}),
    ])
    def test_ladder_past_budget_exits_3_unsolved(self, run, monkeypatch, argv, payload):
        # A ladder costs O(D^2) level steps, so it is refused before any depth is solved.
        def refuse(*args, **kwargs):
            raise AssertionError("a radius was solved")
        monkeypatch.setattr(radius, "joint_numerical_radius", refuse)
        monkeypatch.setattr(dilation, "joint_numerical_radius", refuse)
        code, out = run(argv, payload)
        assert code == 3
        assert json.loads(out)["error"] == "CapacityError"

    def test_deep_request_builds_no_word_space(self, run):
        # n = p = 3 at depth 9 is a band of 88,572 rows; the recursion is 3 x 3.
        mats = 0.1 * np.random.default_rng(3).standard_normal((3, 3, 3))
        t = MatrixTuple.from_arrays(list(mats))
        code, out = run(["joint-radius", "--depth", "9"], tuple_to_json(t))
        assert code == 0
        r = math.sqrt(np.linalg.eigvalsh(t.row_gram())[-1])
        assert r / 2 <= json.loads(out)["lower"] <= r

    def test_no_cap_setting(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 20000}))
        code, out = run(["joint-radius", "--depth", "2", "--config", str(cfg)],
                        scalar_tuple_json(0.1))
        assert code == 3
        assert "cap" in json.loads(out)["message"]
        code, out = run(["joint-radius", "--cap", "100"])
        assert code == 3
        assert json.loads(out)["error"] == "InputError"

    def test_env_depth_and_depth_flag(self, run, monkeypatch):
        # joint-radius has one depth flag; without it the depth is max_depth.
        monkeypatch.setenv("FOCKBAND_MAX_DEPTH", "3")
        t = scalar_tuple_json(0.1, 0.1)
        assert json.loads(run(["joint-radius"], t)[1])["depth"] == 3
        assert json.loads(run(["joint-radius", "--depth", "2"], t)[1])["depth"] == 2

    def test_config_file_applies(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_points": 16}))
        code, out = run(["joint-radius", "--depth", "2", "--config", str(cfg)],
                        scalar_tuple_json(0.1, 0.1))
        assert code == 0
        assert json.loads(out)["theta_points"] == 16

    def test_env_overrides_config(self, run, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_points": 16}))
        monkeypatch.setenv("FOCKBAND_THETA_POINTS", "24")
        code, out = run(["joint-radius", "--depth", "2", "--config", str(cfg)],
                        scalar_tuple_json(0.1, 0.1))
        assert code == 0
        assert json.loads(out)["theta_points"] == 24

    def test_flag_overrides_env(self, run, monkeypatch):
        monkeypatch.setenv("FOCKBAND_THETA_POINTS", "24")
        code, out = run(["joint-radius", "--depth", "2", "--theta-points", "32"],
                        scalar_tuple_json(0.1, 0.1))
        assert code == 0
        assert json.loads(out)["theta_points"] == 32

    def test_bad_env_value(self, run, monkeypatch):
        monkeypatch.setenv("FOCKBAND_THETA_POINTS", "abc")
        code, out = run(["joint-radius", "--depth", "2"], scalar_tuple_json(0.1))
        assert code == 3

    def test_unknown_config_key(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, out = run(["joint-radius", "--depth", "2", "--config", str(cfg)],
                        scalar_tuple_json(0.1))
        assert code == 3

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("key, value", [
        ("tol", "nan"), ("tol", "-1"), ("tol", "inf"), ("epsilon", "nan"), ("epsilon", "-inf"),
    ])
    def test_non_finite_or_negative_setting_exits_3(self, run, tmp_path, monkeypatch,
                                                   source, key, value):
        # (0.52,) has joint radius 0.52 > 1/2: tol nan used to certify it.
        argv = ["ando-complete"]
        if source == "flag":
            argv.append(f"--{key}={value}")
        elif source == "env":
            monkeypatch.setenv(f"FOCKBAND_{key.upper()}", value)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: float(value)}))
            argv += ["--config", str(cfg)]
        code, out = run(argv, scalar_tuple_json(0.52))
        assert code == 3
        report = json.loads(out)
        assert report["error"] == "InputError" and key in report["message"]

    @pytest.mark.parametrize("data", [
        {"tol": "abc"}, {"max_depth": None}, {"theta_points": [1]}, {"max_depth": 2.7},
        {"tol": True}, {"max_depth": True},
    ], ids=["tol-string", "max-depth-null", "theta-points-list", "max-depth-float",
            "tol-bool", "max-depth-bool"])
    def test_malformed_config_value_exits_3(self, run, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code, out = run(["check-dual-row", "--config", str(cfg)], scalar_tuple_json(0.3))
        assert code == 3
        report = json.loads(out)
        assert report["error"] == "InputError" and next(iter(data)) in report["message"]

    def test_config_integer_for_float_key(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 0, "max_depth": 3}))
        code, out = run(["check-dual-row", "--config", str(cfg)], scalar_tuple_json(0.3))
        assert code == 0
        assert json.loads(out)["depth"] == 3

    def test_zero_tol_is_accepted(self, run):
        code, out = run(["check-row", "--tol", "0"], scalar_tuple_json(0.3, 0.4))
        assert code == 0

    @pytest.mark.parametrize("argv, payload", [
        (["verify"], certificate_json(0.5 * np.eye(2), 0.5 * np.eye(2), [np.array([[0.4]])])),
        (["verify"], certificate_json(np.eye(1), 0.5 * np.eye(2), [np.array([[0.4]])])),
        (["verify"], certificate_json(np.ones((1, 2)), np.eye(1), [np.array([[0.4]])])),
        (["verify"], certificate_json(np.eye(1), np.array([[np.nan]]), [np.array([[0.4]])])),
        (["verify"], decomposition_json_with_element(2)),
        (["lift"], {"block_sizes": "ab", "ideal": [1], "tuple": scalar_tuple_json(0.3)}),
        (["lift"], {"block_sizes": [1.5, 1], "ideal": [1], "tuple": scalar_tuple_json(0.3)}),
        (["lift"], {"ideal": [1], "tuple": scalar_tuple_json(0.3)}),
    ], ids=["arms-smaller-than-a-b", "a-smaller-than-b", "a-not-square", "b-not-finite",
            "element-size-disagrees", "block-sizes-string", "block-sizes-float",
            "block-sizes-missing"])
    def test_malformed_wire_object_exits_3(self, run, argv, payload):
        code, out = run(argv, payload)
        assert code == 3
        assert json.loads(out)["error"] == "InputError"

    def test_input_file(self, run, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(scalar_tuple_json(0.3, 0.4)))
        code, out = run(["check-row", "--input", str(path)])
        assert code == 0

    def test_missing_input_file(self, run):
        code, out = run(["check-row", "--input", "/nonexistent/t.json"])
        assert code == 3
