"""Command-line front end.

Every verb reads JSON (stdin or ``--input``), writes one canonical JSON
report to stdout, and exits with a code mirroring the verdict semantics:

* 0: certified_yes, or a successful unconditional computation
* 1: certified_no, or a domain refutation (input fails the predicate)
* 2: undecided, or the computation could not converge at these settings
* 3: malformed input or command line, or a depth past the budget of its verb

Configuration precedence is flags over environment (FOCKBAND_* variables)
over ``--config`` file over defaults.  The ``verify`` verb re-checks an
emitted certificate with plain eigensolves only; it never re-runs the
construction that produced it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from . import dilation, ensys, radius, serialize, shorted
from .errors import ConvergenceError, DomainError, FockbandError, InputError
from .linalg import psd_margin

ENV_PREFIX = "FOCKBAND_"

_STATUS_EXIT = {radius.CERTIFIED_YES: 0, radius.CERTIFIED_NO: 1, radius.UNDECIDED: 2}


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs; epsilon=None is half the margin in ando-complete, 1e-6 in en-decompose."""

    tol: float = 1e-8
    max_depth: int = 6
    theta_points: int = 720
    epsilon: float | None = None


_CONFIG_CASTS = {"tol": float, "max_depth": int, "theta_points": int, "epsilon": float}


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        data = serialize.loads(_read_file(args.config))
        if not isinstance(data, dict):
            raise InputError("config file must hold a JSON object")
        unknown = set(data) - set(_CONFIG_CASTS)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            cast = _CONFIG_CASTS[key]
            if isinstance(val, bool) or not isinstance(val, (int,) if cast is int else (int, float)):
                raise InputError(f"config key {key!r} takes a JSON "
                                 f"{'integer' if cast is int else 'number'}, got {val!r}")
            cfg = replace(cfg, **{key: cast(val)})
    for key, cast in _CONFIG_CASTS.items():
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            try:
                cfg = replace(cfg, **{key: cast(raw)})
            except ValueError:
                raise InputError(f"bad value for {ENV_PREFIX + key.upper()}: {raw!r}")
    for key in _CONFIG_CASTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg = replace(cfg, **{key: val})
    if not 0.0 <= cfg.tol < np.inf:
        raise InputError(f"tol must be finite and nonnegative, got {cfg.tol!r}")
    if cfg.epsilon is not None and not np.isfinite(cfg.epsilon):
        raise InputError(f"epsilon must be finite, got {cfg.epsilon!r}")
    return cfg


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _load_payload(args: argparse.Namespace) -> Any:
    if args.input:
        return serialize.loads(_read_file(args.input))
    return serialize.loads(sys.stdin.read())


def _cmd_check_row(args, cfg: RunConfig) -> tuple[int, dict]:
    t = serialize.tuple_from_json(_load_payload(args))
    v = radius.is_row_contraction(t, tol=cfg.tol)
    return _STATUS_EXIT[v.status], serialize.verdict_to_json(v)


def _cmd_check_dual_row(args, cfg: RunConfig) -> tuple[int, dict]:
    t = serialize.tuple_from_json(_load_payload(args))
    v = radius.is_dual_row_contraction(t, max_depth=cfg.max_depth, tol=cfg.tol)
    return _STATUS_EXIT[v.status], serialize.verdict_to_json(v)


def _cmd_radius(args, cfg: RunConfig) -> tuple[int, dict]:
    m = serialize.matrix_from_json(_load_payload(args))
    est = radius.numerical_radius(m, theta_points=cfg.theta_points)
    return 0, serialize.estimate_to_json(est)


def _cmd_joint_radius(args, cfg: RunConfig) -> tuple[int, dict]:
    t = serialize.tuple_from_json(_load_payload(args))
    depth = args.depth if args.depth is not None else cfg.max_depth
    est = radius.joint_numerical_radius(t, depth, theta_points=cfg.theta_points)
    return 0, serialize.estimate_to_json(est)


def _cmd_ando_complete(args, cfg: RunConfig) -> tuple[int, dict]:
    t = serialize.tuple_from_json(_load_payload(args))
    depth = args.depth if args.depth is not None else cfg.max_depth
    cert = shorted.ando_complete(t, depth=depth, epsilon=cfg.epsilon, tol=cfg.tol)
    code = 0 if cert.strictly_valid(cfg.tol) else 2
    return code, serialize.certificate_to_json(cert)


def _cmd_en_decompose(args, cfg: RunConfig) -> tuple[int, dict]:
    e = serialize.en_element_from_json(_load_payload(args))
    epsilon = cfg.epsilon if cfg.epsilon is not None else 1e-6
    dec = ensys.en_decompose(e, epsilon=epsilon)
    return 0, serialize.decomposition_to_json(dec, e)


def _cmd_dual_positive(args, cfg: RunConfig) -> tuple[int, dict]:
    e = serialize.dual_element_from_json(_load_payload(args))
    v = ensys.dual_positive(e, tol=cfg.tol)
    report = {"status": v.status, "witness": float(v.witness),
              "epsilons": list(v.epsilons), "row_norms": list(v.row_norms)}
    return _STATUS_EXIT[v.status], report


def _cmd_cp_check(args, cfg: RunConfig) -> tuple[int, dict]:
    m = serialize.dual_map_from_json(_load_payload(args))
    v = ensys.dual_cp_check(m, max_depth=cfg.max_depth, tol=cfg.tol)
    return _STATUS_EXIT[v.status], serialize.verdict_to_json(v)


def _cmd_dilate(args, cfg: RunConfig) -> tuple[int, dict]:
    t = serialize.tuple_from_json(_load_payload(args))
    depth = args.depth if args.depth is not None else 4
    max_word = args.max_word if args.max_word is not None else 3
    result = dilation.bunce_dilate(t, depth, tol=cfg.tol)
    report = dilation.verify_dilation(result, t, max_word=max_word)
    return 0, {
        "depth": result.depth,
        "defect_rank": result.defect_rank,
        "isometry_deviation": report.isometry_deviation,
        "compression_deviation": report.compression_deviation,
        "words_checked": report.words_checked,
    }


def _cmd_lift(args, cfg: RunConfig) -> tuple[int, dict]:
    data = _load_payload(args)
    if not isinstance(data, dict) or not {"block_sizes", "tuple"} <= data.keys():
        raise InputError("lift input must hold 'block_sizes', 'ideal', and 'tuple'")
    q = dilation.quotient_algebra(data["block_sizes"], data.get("ideal", []))
    t = serialize.tuple_from_json(data["tuple"])
    depth = args.depth if args.depth is not None else 5
    result = dilation.lift_tuple(q, t, depth, theta_points=cfg.theta_points)
    return 0, {
        "depths": list(result.depths),
        "base_lower": [float(x) for x in result.base_lower],
        "lifted_lower": [float(x) for x in result.lifted_lower],
        "max_gap": float(result.max_gap),
        "lifted": serialize.tuple_to_json(result.lifted),
    }


def _cmd_sweep(args, cfg: RunConfig) -> tuple[int, dict]:
    t = serialize.tuple_from_json(_load_payload(args))
    max_depth = args.depth if args.depth is not None else cfg.max_depth
    shorted.check_depth(max_depth, radius.LADDER_BUDGET)
    depths = list(range(1, max_depth + 1))
    lows = [radius.joint_numerical_radius(t, d, theta_points=cfg.theta_points).lower
            for d in depths]
    mins = [1.0 - 2.0 * lo for lo in lows]
    lines = ["depth,radius_lower,band_min_eig"]
    lines += [f"{d},{lo!r},{mn!r}" for d, lo, mn in zip(depths, lows, mins)]
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}")
    return 0, {"depths": depths, "radius_lower": lows, "band_min_eig": mins}


def _cmd_verify(args, cfg: RunConfig) -> tuple[int, dict]:
    data = _load_payload(args)
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "ando_certificate":
        return _verify_certificate(data, cfg)
    if kind == "en_decomposition":
        return _verify_decomposition(data, cfg)
    raise InputError(f"verify supports ando_certificate and en_decomposition, got {kind!r}")


def _verify_certificate(data: dict, cfg: RunConfig) -> tuple[int, dict]:
    report = serialize.certificate_from_json(data).verify(cfg.tol)
    return (0 if report["valid"] else 1), {"kind": "ando_certificate", **report}


def _verify_decomposition(data: dict, cfg: RunConfig) -> tuple[int, dict]:
    dec, element = serialize.decomposition_from_json(data)
    p_margin = psd_margin(dec.P).min_eigenvalue
    q_margin = psd_margin(dec.Q).min_eigenvalue
    d_margin = psd_margin(dec.D).min_eigenvalue
    pattern_gap = float(np.abs(dec.P - ensys.pattern_matrix(dec.n)).max())
    shifted = element.matrix() + dec.epsilon * np.eye((dec.n + 1) * dec.p)
    recon = dec.reconstruction()
    scale = max(1.0, float(np.linalg.norm(shifted, 2)))
    recon_gap = float(np.linalg.norm(recon - shifted, 2)) / scale
    valid = (p_margin >= -cfg.tol and q_margin >= -cfg.tol and d_margin >= -cfg.tol
             and pattern_gap == 0.0 and recon_gap <= 1e-10)
    report = {"kind": "en_decomposition", "valid": valid, "p_margin": p_margin,
              "q_margin": q_margin, "d_margin": d_margin,
              "pattern_gap": pattern_gap, "reconstruction_gap": recon_gap}
    return (0 if valid else 1), report


#: The type of each flag; its dest is the flag name with '_' for '-'.
_FLAG_TYPES = {"--tol": float, "--epsilon": float, "--max-depth": int, "--depth": int,
               "--theta-points": int, "--max-word": int, "--csv": str}

#: Each verb's handler and the flags it reads, besides --input and --config.
_COMMANDS = {
    "check-row": (_cmd_check_row, ("--tol",)),
    "check-dual-row": (_cmd_check_dual_row, ("--tol", "--max-depth")),
    "radius": (_cmd_radius, ("--theta-points",)),
    "joint-radius": (_cmd_joint_radius, ("--depth", "--theta-points")),
    "ando-complete": (_cmd_ando_complete, ("--tol", "--depth", "--epsilon")),
    "en-decompose": (_cmd_en_decompose, ("--epsilon",)),
    "dual-positive": (_cmd_dual_positive, ("--tol",)),
    "cp-check": (_cmd_cp_check, ("--tol", "--max-depth")),
    "dilate": (_cmd_dilate, ("--tol", "--depth", "--max-word")),
    "lift": (_cmd_lift, ("--theta-points", "--depth")),
    "sweep": (_cmd_sweep, ("--depth", "--theta-points", "--csv")),
    "verify": (_cmd_verify, ("--tol",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)  # a usage error exits 3, not argparse's 2


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockband", allow_abbrev=False,
        description="Positivity certificates for band operators over truncated isometries")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(verb, allow_abbrev=False)
        sp.add_argument("--input", "-i", help="input JSON file (default: stdin)")
        sp.add_argument("--config", help="RunConfig JSON file")
        for flag in flags:
            sp.add_argument(flag, type=_FLAG_TYPES[flag])
    return parser


#: Built once: parse_args leaves the parser unchanged, so calls share it.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = build_config(args)
        code, report = _COMMANDS[args.verb][0](args, cfg)
    except DomainError as exc:
        code, report = 1, {"error": "DomainError", "message": str(exc)}
    except ConvergenceError as exc:
        code, report = 2, {"error": type(exc).__name__, "message": str(exc)}
    except FockbandError as exc:
        code, report = 3, {"error": type(exc).__name__, "message": str(exc)}
    print(serialize.dumps_canonical(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
