"""Run-to-run spread of the end-to-end metrics, the evidence for their bounds.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--write]

Runs ``perfbench/run.py`` (untraced, BENCHMARK.json's ``run_seconds``) once
per seed and workload, one run at a time, and prints for every end-to-end
metric its median and its spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
A bound holds with margin when the spread is below a third of it.  With
``--write`` the spreads, the input/output digests per seed and the machine
are stored in ``perfbench/baseline.json``, which every result then cites.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--write", action="store_true", help="store perfbench/baseline.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    spread, digests, all_ok = {}, {}, True
    for wl in workloads:
        values = {name: [] for name in bounds}
        digests[wl] = {}
        for seed in seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = json.loads((ROOT / ".perfbench" / "results" / f"{wl}-s{seed}-t0.json")
                                .read_text())
            digests[wl][str(seed)] = record["digests"]
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        spread[wl] = {}
        for name, bound in bounds.items():
            s = spread_of(values[name])
            s["bound"] = bound
            s["values"] = values[name]
            spread[wl][name] = s
            ok = name == "setup_s" or s["spread"] <= bound
            all_ok &= ok
            margin = "" if s["spread"] < bound / 3 else "  (above a third of the bound)"
            print(f"  {wl:15s} {name:16s} median {s['median']:.5g}  spread {s['spread']:.4f}"
                  f"  bound {bound}{'' if ok else '  OVER BOUND'}{margin}")
    if args.write:
        path = BENCH_DIR / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline.update({
            "seeds": args.seeds,
            "run_seconds": spec["run_seconds"],
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
        })
        baseline.setdefault("spread", {}).update(spread)
        baseline.setdefault("digests", {}).update(digests)
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
