"""Tests of the benchmark itself: input determinism, oracles, and tracing.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, run.SRC)

import fockband  # noqa: E402
import fockband.cli as cli  # noqa: E402
import fockband.radius  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402
from reference import NOMINAL_S, Reference, scale  # noqa: E402


def _first(items, kind, pred=lambda it: True):
    return next(it for it in items if it.kind == kind and pred(it))


def _call(item):
    return run.call_cli(cli, item.argv, item.payload)[:2]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_repeat_per_seed(workload):
    gen = W.GENERATORS[workload]
    assert W.digest(gen(7)) == W.digest(gen(7))
    assert W.digest(gen(7)) != W.digest(gen(8))


def test_inputs_repeat_across_processes():
    code = ("import sys; sys.path.insert(0, %r); import workloads as W; "
            "print(*(W.digest(W.GENERATORS[w](3)) for w in %r))" % (HERE, run.WORKLOADS))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    assert out == [W.digest(W.GENERATORS[w](3)) for w in run.WORKLOADS]


def test_same_mix_for_every_seed():
    assert set(W.GENERATORS) == set(run.WORKLOADS)
    for workload, gen in W.GENERATORS.items():
        shapes = {s: [(it.kind, it.argv, it.truth) for it in gen(s)] for s in (1, 2)}
        assert shapes[1] == shapes[2], workload


# ---------------------------------------------------------------- oracles

@pytest.fixture(scope="module")
def certify_yes():
    item = _first(W.certify_items(5), "check", lambda it: it.truth == "yes")
    code, rep = _call(item)
    assert rep["status"] == W.YES
    return item, code, rep


def test_verdict_oracle_accepts_real_output(certify_yes):
    item, code, rep = certify_yes
    assert W.check_verdict(item, code, rep) is None
    vcode, vrep = run.call_cli(cli, ("verify",), json.dumps(rep["certificate"]))[:2]
    assert W.check_verify(vcode, vrep) is None


def test_verdict_oracle_rejects_wrong_verdicts(certify_yes):
    item, code, rep = certify_yes
    wrong = dict(rep, status=W.NO, margin=-0.1)
    assert W.check_verdict(item, 1, wrong) is not None
    assert W.check_verdict(item, 1, dict(rep, status=W.UNDECIDED)) is not None  # exit code
    assert W.check_verdict(item, 2, dict(rep, status=W.UNDECIDED)) is None
    no_item = W.Item("check", item.argv, item.payload, "no", item.oracle)
    assert W.check_verdict(no_item, 0, rep) is not None
    assert W.check_verdict(no_item, 1, dict(rep, status=W.NO, margin=0.2)) is not None


def test_certificate_oracle_rejects_tampering(certify_yes):
    item, code, rep = certify_yes
    bad = copy.deepcopy(rep)
    bad["certificate"]["a"]["re"][0][0] += 1e-12
    assert "a + b" in W.check_verdict(item, code, bad)
    bad = copy.deepcopy(rep)
    bad["certificate"]["arms"][0]["im"][0][0] += 1e-12
    assert "arms" in W.check_verdict(item, code, bad)
    assert W.check_verify(1, {"valid": False, "sum_gap": 0.0}) is not None
    assert W.check_verify(0, {"valid": True, "sum_gap": 2e-16}) is not None


def test_sweep_oracle_rejects_wrong_radius():
    item = _first(W.radius_items(5), "sweep", lambda it: it.oracle["closed"] is not None)
    code, rep = _call(item)
    assert W.check_sweep(item, code, rep) is None
    bad = copy.deepcopy(rep)
    bad["radius_lower"][1] -= 1e-7
    assert "closed form" in W.check_sweep(item, code, bad)
    bad = copy.deepcopy(rep)
    bad["band_min_eig"][-1] += 1e-6
    assert W.check_sweep(item, code, bad) is not None
    free = W.Item(item.kind, item.argv, item.payload, None, dict(item.oracle, closed=None))
    bad = copy.deepcopy(rep)
    bad["radius_lower"][-1] = bad["radius_lower"][0] - 1e-3
    assert "below" in W.check_sweep(free, code, bad)
    bad = copy.deepcopy(rep)
    bad["radius_lower"][0] = 0.5 * (1.0 - bad["band_min_eig"][0]) + 1e-6
    assert "above" in W.check_sweep(free, code, bad)


def test_lift_oracle_rejects_wrong_radius_and_padding():
    item = _first(W.radius_items(5), "lift")
    code, rep = _call(item)
    assert W.check_lift(item, code, rep) is None
    bad = copy.deepcopy(rep)
    bad["lifted_lower"][2] *= 1.0 + 1e-6
    assert "closed form" in W.check_lift(item, code, bad)
    bad = copy.deepcopy(rep)
    bad["lifted"]["a"][0]["re"][-1][0] = 1e-3
    assert "zero padding" in W.check_lift(item, code, bad)


def test_boundary_truth_follows_rho():
    truths = [it.truth for it in W.boundary_items(5)]
    assert truths.count("no") == 3
    item = W.boundary_items(5)[0]
    assert W.check_verdict(item, 1, {"status": W.NO, "margin": -1e-3}) is not None


# ---------------------------------------------------------------- tracing

def test_untraced_run_installs_no_wrapper():
    tracer = Tracer()
    original = fockband.radius.lam_min
    tracer.install()
    try:
        assert fockband.radius.lam_min is not original
        assert fockband.lam_min is fockband.radius.lam_min
    finally:
        tracer.uninstall()
    assert fockband.radius.lam_min is original
    assert not hasattr(fockband.radius.lam_min, "__wrapped__")


def test_traced_self_times_sum_to_wall_time():
    items = W.certify_items(9)[::4] + W.boundary_items(9)[:1] + W.radius_items(9)[:2]
    untraced = [_call(it) for it in items]
    tracer = Tracer()
    tracer.install()
    try:
        wall = 0.0
        traced = []
        for k, it in enumerate(items):
            tracer.rec.item = k
            code, rep, seconds = run.call_cli(cli, it.argv, it.payload)
            wall += seconds
            traced.append((code, rep))
    finally:
        tracer.uninstall()
    rec = tracer.rec
    assert traced == untraced
    assert not rec.stack
    self_total = sum(rec.self_s.values())
    assert abs(self_total - wall) <= 0.03 * wall, (self_total, wall)
    assert rec.calls["cli"] == len(items)
    assert set(rec.calls) == set(LAYERS)
    names = {s[0] for s in rec.spans}
    # The deferred import inside is_dual_row_contraction resolves to the wrapper.
    assert "shorted.ando_complete" in names
    parents = {s[0]: rec.spans[s[3]][0] for s in rec.spans if s[3] >= 0}
    assert parents["shorted.ando_complete"] == "radius.is_dual_row_contraction"
    assert rec.counts["peel_steps"] > 0
    assert rec.counts["joint_calls"] > 0


def test_reference_scale_is_nominal_over_measured():
    ref = Reference()
    assert ref.take() == []
    samples = [ref.run() for _ in range(3)]
    assert all(s > 0 for s in samples) and ref.take() == samples
    assert scale(samples) == pytest.approx(NOMINAL_S * 3 / sum(samples))
    assert "fockband" not in sys.modules["reference"].__dict__
