"""Run every workload untraced and traced, print the results, optionally record them.

    python3 perfbench/baseline.py                      # seeds 1 (development) and 2 (held out)
    python3 perfbench/baseline.py --output perfbench/baseline.json

Each (workload, seed) runs ``run.py`` twice in a child process, once with
``--trace 0`` for the end-to-end metrics and once with ``--trace 1`` for
the per-layer metrics, and the children run one after another.  For
every workload the table shows the seven end-to-end metrics with their
units (``failed_frac`` from the result's ``failed`` and ``attempted``),
the tail percentile used, the input digest, and each layer's share of
the traced self time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

from layers import LAYERS
from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    text = "\n".join(lines[:-1])
    result["fingerprint"] = json.loads(re.search(r"^# fingerprint (.*)$", text, re.M).group(1))
    result["digest"] = re.search(r"digest (\w+)", text).group(1)
    tail = re.search(r"^item_tail_s .*\((p[\d.]+ of \d+ items)", text, re.M)
    if tail:
        result["tail"] = tail.group(1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--seconds", type=float, default=run_seconds(),
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--output", help="write the collected results to this JSON file")
    args = ap.parse_args(argv)

    record = {"seconds": args.seconds, "seeds": args.seeds, "runs": {}}
    for workload in WORKLOADS:
        for seed in args.seeds:
            plain = run_once(workload, seed, args.seconds, 0)
            traced = run_once(workload, seed, args.seconds, 1)
            record["fingerprint"] = plain.pop("fingerprint")
            traced.pop("fingerprint")
            record["runs"][f"{workload}/{seed}"] = {"end_to_end": plain, "per_layer": traced}
            report(workload, seed, plain, traced)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def report(workload: str, seed: int, plain: dict, traced: dict) -> None:
    print(f"== {workload} seed {seed}  digest {plain['digest'][:16]}  "
          f"correct {plain['correct'] and traced['correct']}")
    for name, m in plain["metrics"].items():
        note = f"  ({plain['tail']})" if name == "item_tail_s" else ""
        print(f"  {name:14s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':14s} {plain['failed'] / plain['attempted']:.6g} frac  "
          f"({plain['failed']} of {plain['attempted']} items)")
    layer = traced["metrics"]
    total = sum(layer[f"{name}.self_s"]["value"] for name in LAYERS)
    shares = sorted(((layer[f"{name}.self_s"]["value"] / total, name) for name in LAYERS),
                    reverse=True)
    print("  self-time share " + ", ".join(f"{name} {share:.1%}" for share, name in shares))
    for name, m in layer.items():
        if not name.endswith(".self_s"):
            print(f"  {name:30s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
