"""fockband benchmark: drives ``fockband.cli.main`` in-process on seeded inputs.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the exact mix):

* ``certify``  check-dual-row then verify on interior tuples, a few
  cp-check maps; linalg and fock do the work.
* ``radius``   sweep --theta-points 24 ladders and lift at 16 angles;
  the joint-radius angle sweep does the work.
* ``boundary`` check-dual-row then verify on tuples at or just beside
  the boundary; the shorted peeling recursion does the work.

One caller, closed loop: the next item starts when the previous one has
returned.  A run sets up (import, input generation, warm-up; five times
for the generation and warm-up, median reported), then repeats whole
passes over the workload's items until ``--seconds`` have elapsed.

Times are reported in *nominal seconds*: after every item, and between
the steps of the set-up, the runner times a fixed reference computation
that does not touch fockband (reference.py), and scales the run's
timings by the reference's nominal time over its mean measured time.
The host's speed drifts by tens of percent over minutes, and the
reference follows it; wall-clock figures are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same window and reports per-layer
metrics per traced pass, measured by wrapping the package's public
functions from outside (layers.py); spans go to
``perfbench/out/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric by name and unit, the tail percentile used, the
failed share, the input digest and the machine fingerprint.  BLAS is
pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("certify", "radius", "boundary")

#: Generation plus warm-up is repeated this often; setup_s uses the median.
SETUP_REPEATS = 5

#: Reference samples taken after each step of the set-up.
SETUP_REF_SAMPLES = 2

#: item_tail_s is the highest percentile with at least this many items beyond it.
TAIL_ITEMS = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_environment() -> None:
    """One BLAS thread, and no FOCKBAND_* override of the CLI defaults."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("FOCKBAND_")]:
        del os.environ[var]


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fockband")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_digest": _source_digest(),
    }


@dataclass
class Outcome:
    seconds: float
    failure: str | None
    decided: bool
    negative_margin_cert: bool = False


def call_cli(cli, argv, payload: str):
    """One in-process CLI call with ``payload`` on stdin; returns (code, report, seconds)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            code = cli.main(list(argv))
            seconds = perf_counter() - start
    finally:
        sys.stdin = saved
    return code, json.loads(out.getvalue()), seconds


def run_item(cli, W, item) -> Outcome:
    start = perf_counter()
    try:
        code, rep, seconds = call_cli(cli, item.argv, item.payload)
        if item.kind in W.PLAIN_CHECKS:
            return Outcome(seconds, W.PLAIN_CHECKS[item.kind](item, code, rep), True)
        failure = W.check_verdict(item, code, rep)
        status = rep.get("status")
        negative = False
        if failure is None and status == W.YES:
            vcode, vrep, vseconds = call_cli(cli, ("verify",), json.dumps(rep["certificate"]))
            seconds += vseconds
            failure = W.check_verify(vcode, vrep)
            negative = rep["certificate"]["margin"] < 0.0
        return Outcome(seconds, failure, status in (W.YES, W.NO), negative)
    except (Exception, SystemExit) as exc:  # an item that raises is a failed item
        return Outcome(perf_counter() - start, f"raised {type(exc).__name__}: {exc}", False)


def tail_percentile(count: int) -> float:
    """Highest percentile with at least TAIL_ITEMS of ``count`` items beyond it."""
    return max(0.0, 100.0 * (1.0 - TAIL_ITEMS / count))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def item_latencies(outcomes, per_pass: int) -> list[float]:
    """Latency of every sample, each replaced by its item's mean over the passes.

    The host's speed switches between a fast and a slow state every few
    seconds, so the latencies of one item form two clusters, and an order
    statistic of raw samples jumps between them with the share of time
    the run spent in each.  Averaging each item over its repetitions
    first removes that jump; percentiles are then taken over the
    workload's mix, every item weighted by its repetitions.
    """
    lat = [o.seconds for o in outcomes]
    means = [statistics.fmean(lat[k::per_pass]) for k in range(per_pass)]
    return [means[k % per_pass] for k in range(len(lat))]


def end_to_end(outcomes, per_pass: int, elapsed: float, setup_s: float,
               speed: float) -> tuple[dict, dict]:
    """The end-to-end metrics; ``speed`` turns the run's wall seconds into nominal ones."""
    lat = item_latencies(outcomes, per_pass)
    n = len(outcomes)
    failed = sum(o.failure is not None for o in outcomes)
    q = tail_percentile(n)
    p50, tail = statistics.median(lat), percentile(lat, q)
    metrics = {
        "setup_s": (setup_s, "s"),
        "item_p50_s": (p50 * speed, "s"),
        "item_tail_s": (tail * speed, "s"),
        "items_per_s": (n / (elapsed * speed), "1/s"),
        "decided_frac": (sum(o.decided for o in outcomes) / n, "frac"),
        "passed_frac": (1.0 - failed / n, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"item_p50_s": f"wall {p50:.6g} s",
             "item_tail_s": f"p{q:.1f} of {n} items, wall {tail:.6g} s",
             "items_per_s": f"wall {n / elapsed:.6g} 1/s",
             "failed_frac": f"{failed / n} frac ({failed} of {n} items)"}
    return metrics, notes


def per_layer(rec, traced, untraced, per_pass: int, passes: int) -> dict:
    from layers import LAYERS
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (rec.calls[layer] / passes, "count")
        metrics[f"{layer}.self_s"] = (rec.self_s[layer] / passes, "s")
    c = rec.counts
    metrics["radius.joint_calls"] = (c["joint_calls"] / passes, "count")
    metrics["radius.eig_per_joint"] = (
        c["linalg_in_joint"] / c["joint_calls"] if c["joint_calls"] else 0.0, "count")
    metrics["linalg.eig_rows"] = (c["eig_rows"] / passes, "count")
    metrics["fock.band_rows"] = (c["band_rows"] / passes, "count")
    metrics["shorted.peel_steps"] = (c["peel_steps"] / passes, "count")
    metrics["shorted.negative_margin_certs"] = (
        sum(o.negative_margin_cert for o in traced) / passes, "count")
    metrics["serialize.bytes_out"] = (c["bytes_out"] / passes, "B")
    p50_t = statistics.median(item_latencies(traced, per_pass))
    p50_u = statistics.median(item_latencies(untraced, per_pass))
    metrics["trace.overhead_frac"] = ((p50_t - p50_u) / p50_u, "frac")
    return metrics


def set_up(cli, W, workload: str, seed: int, ref):
    """Generate the inputs and warm up on one item of each kind, SETUP_REPEATS times.

    The reference runs after the generation and after every warm-up item;
    its time is not part of the set-up.  Returns the items, the median
    set-up seconds and the warm-up failures.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        spent = 0.0
        t0 = perf_counter()
        items = W.GENERATORS[workload](seed)
        spent += sum(ref.run() for _ in range(SETUP_REF_SAMPLES))
        warm = {}
        for item in items:
            warm.setdefault(item.kind, item)
        failures = []
        for item in warm.values():
            outcome = run_item(cli, W, item)
            if outcome.failure:
                failures.append(outcome.failure)
            spent += sum(ref.run() for _ in range(SETUP_REF_SAMPLES))
        setups.append(perf_counter() - t0 - spent)
    return items, statistics.median(setups), failures


def measure(cli, W, items, seconds: float, tracer, ref):
    """Repeat whole passes over ``items`` until ``seconds`` have elapsed.

    The reference runs after every item, outside the item's time.  With a
    tracer, odd passes run traced and the run ends after a traced pass.
    Returns the untraced and traced outcomes, the seconds spent in
    untraced and traced passes without the reference, the reference
    samples taken in untraced passes, and the number of passes.
    """
    untraced, traced = [], []
    busy = {False: 0.0, True: 0.0}
    ref_samples = []
    passes = 0
    deadline = perf_counter() + seconds
    while True:
        trace_pass = tracer is not None and passes % 2 == 1
        if trace_pass:
            tracer.install()
        t_pass = perf_counter()
        spent = 0.0
        try:
            for k, item in enumerate(items):
                if trace_pass:
                    tracer.rec.item = passes * len(items) + k
                (traced if trace_pass else untraced).append(run_item(cli, W, item))
                spent += ref.run()
        finally:
            busy[trace_pass] += perf_counter() - t_pass - spent
            if trace_pass:
                tracer.uninstall()
            samples = ref.take()
            if not trace_pass:
                ref_samples += samples
        passes += 1
        if perf_counter() >= deadline and (tracer is None or passes % 2 == 0):
            return untraced, traced, busy, ref_samples, passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fockband", "__init__.py")):
        print(f"fockband sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()

    start = perf_counter()
    sys.path.insert(0, SRC)
    import fockband
    import fockband.cli as cli
    import_s = perf_counter() - start
    if os.path.dirname(os.path.abspath(fockband.__file__)) != os.path.join(SRC, "fockband"):
        print(f"imported fockband from {fockband.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads as W
    from reference import Reference, scale

    ref = Reference()
    items, setup_s, warm_failures = set_up(cli, W, args.workload, args.seed, ref)
    setup_speed = scale(ref.take())
    setup_wall = setup_s + import_s
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
    untraced, traced, busy, ref_samples, passes = measure(cli, W, items, args.seconds,
                                                          tracer, ref)
    speed = scale(ref_samples)

    outcomes = untraced + traced
    failures = [o.failure for o in outcomes if o.failure] + warm_failures
    attempted = len(outcomes)
    failed = sum(o.failure is not None for o in outcomes)

    fp = fingerprint()
    print(f"# fockband benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"# inputs {len(items)} items per pass, {passes} passes, "
          f"digest {W.digest(items)}")
    print(f"# reference {len(ref_samples)} samples, nominal/measured {speed:.4f} "
          f"(set-up {setup_speed:.4f})")
    e2e, notes = end_to_end(untraced, len(items), busy[False], setup_wall * setup_speed, speed)
    notes["setup_s"] = f"wall {setup_wall:.6g} s"
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"failed_frac {notes['failed_frac']}")
    if tracer is not None:
        metrics = per_layer(tracer.rec, traced, untraced, len(items), passes // 2)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
        tracer.rec.dump(spans_path)
        print(f"# {len(tracer.rec.spans)} spans written to "
              f"{os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = e2e
    for reason in failures[:5]:
        print(f"FAILED: {reason}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
