"""slopeforge benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload onebend-cubic --seed 1 --seconds 20 --trace 0

One client, no threads, closed loop: each op starts when the previous one
ends.  Set-up builds the workload's inputs from ``--seed`` (three times; the
median is ``setup_s``).  The window then runs whole passes over the inputs,
in a seeded order, until ``--seconds`` have passed; each input's op time is
the median of its ops.  Every output is checked after the window: drawings
must pass their validator profile, a repeated op must give byte-identical
documents, and a drawing with one vertex moved must be rejected.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; their times
are host-speed-normalized (see speed.py) and the raw wall times are printed
and recorded next to them.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: busy time, self time and calls of each wrapped function
(see spans.py), failure counts by cause, output sizes, and the tracing
overhead.  Every metric is printed by name with its unit; the last line of
standard output is the JSON result.  A fuller record, with provenance and
digests of the inputs and outputs, goes to ``.perfbench/results/``.
Exit code 1 means an output was wrong, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
WORKLOAD_NAMES = ("onebend-cubic", "twobend-blocks", "corpus-gen")


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank), as (percentile, value); the median when none has."""
    xs = sorted(samples)
    n = len(xs)
    best = (50.0, statistics.median(xs))
    for pct in TAIL_LADDER:
        rank = max(1, -(-round(pct * 10) * n // 1000))  # ceil(pct / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (pct, xs[rank - 1])
    return best


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, workload, seed: int, seconds: float, work: Path):
        from speed import HostSpeed
        from workloads import digest

        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.in_dir = str(work / "in")
        self.out_dir = str(work / "out")
        self.problems: List[str] = []
        self.repeats = 0
        self.ops_run = 0
        self.digest = digest
        # Probes around every timed interval; entered as a context, it also
        # samples during them (untraced runs only, to keep spans clean).
        self.speed = HostSpeed()

    def setup(self) -> None:
        times, digests = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.in_dir, ignore_errors=True)
            os.makedirs(self.in_dir)
            os.makedirs(self.out_dir, exist_ok=True)
            mark = self.speed.mark()
            start = perf_counter()
            inputs = self.wl.build(self.seed, self.in_dir)
            reference = {}
            if self.wl.reference_in_setup:
                reference = {i: self.wl.run(inp, self.out_dir) for i, inp in enumerate(inputs)}
            seconds = perf_counter() - start
            times.append((seconds, self.speed.normalize(start, seconds, mark)))
            digests.append(self.digest(x for inp in inputs for x in (inp.name, inp.text)))
        if len(set(digests)) != 1:
            self.problems.append("set-up built different inputs from the same seed")
        self.setup_times = times
        self.inputs = inputs
        self.first = reference
        self.inputs_digest = digests[0]
        self.order = list(range(len(inputs)))
        random.Random(f"order/{self.seed}").shuffle(self.order)

    def one_pass(self, samples: List[Tuple[int, float, float, Optional[str]]], tracer=None,
                 order: Optional[List[int]] = None) -> float:
        """Runs each input once; appends (input, raw s, normalized s, cause) and
        returns the normalized time of the pass."""
        total = 0.0
        for idx in order or self.order:
            self.ops_run += 1
            if tracer is not None:
                tracer.op_id = self.ops_run
            mark = self.speed.mark()
            res = self.wl.run(self.inputs[idx], self.out_dir)
            normalized = self.speed.normalize(res.start, res.seconds, mark)
            total += normalized
            samples.append((idx, res.seconds, normalized, res.cause))
            ref = self.first.setdefault(idx, res)
            if ref is not res:
                self.repeats += 1
                if ref.fingerprint() != res.fingerprint():
                    self.problems.append(f"{self.inputs[idx].name}: a repeated op gave other output")
        return total

    def window(self, traced: bool):
        """Whole passes until the window is over.  Traced mode alternates an
        untraced and a traced pass and keeps each pair's normalized pass
        times and layer stats."""
        samples: List[Tuple[int, float, float, Optional[str]]] = []
        pairs = []
        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
        start = perf_counter()
        while True:
            plain_s = self.one_pass(samples)
            if tracer is not None:
                tracer.install()
                try:
                    traced_s = self.one_pass([], tracer)
                finally:
                    tracer.uninstall()
                pairs.append((plain_s, traced_s, tracer.take_stats()))
            if perf_counter() - start >= self.seconds:
                break
        self.wall = perf_counter() - start
        self.samples = samples
        self.pairs = pairs
        self.tracer = tracer
        self.passes = len(samples) // len(self.order)

    def check(self):
        """Checks every input's first output; returns the output sizes."""
        if not self.repeats:
            quickest = min(self.first, key=lambda i: self.first[i].seconds)
            self.one_pass([], order=[quickest])
        sizes = {}
        for idx, inp in enumerate(self.inputs):
            problems, size = self.wl.check(inp, self.first[idx])
            self.problems.extend(problems)
            if size is not None:
                sizes[idx] = size
        first = [(inp, self.first[i]) for i, inp in enumerate(self.inputs)]
        self.problems.extend(self.wl.self_test(first, self.out_dir))
        self.outputs_digest = self.digest(
            x for i, inp in enumerate(self.inputs)
            for x in (inp.name, *self.first[i].fingerprint()))
        return sizes


def op_metrics(samples, column: int) -> Tuple[Dict[str, float], Dict]:
    """Op times are per input: the median of its ops in the window.  Every
    workload has 40 inputs, so the tail is p75 with ten inputs beyond it."""
    per_input: Dict[int, List[float]] = {}
    for sample in samples:
        per_input.setdefault(sample[0], []).append(sample[column])
    times = [statistics.median(v) for v in per_input.values()]
    pct, tail_value = tail(times)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
    }
    info = {"tail_percentile": pct, "tail_samples": len(times),
            "tail_beyond": sum(1 for t in times if t > tail_value)}
    return metrics, info


def end_to_end(b: Bench, sizes, rss_mb: float) -> Tuple[Dict[str, float], Dict]:
    """Host-speed-normalized times (see speed.py), plus the raw ones."""
    metrics, info = op_metrics(b.samples, 2)
    metrics["setup_s"] = statistics.median(norm for _, norm in b.setup_times)
    metrics["peak_rss_mb"] = rss_mb
    metrics["doc_bytes_total"] = float(sum(s.doc_bytes for s in sizes.values()))
    raw, _ = op_metrics(b.samples, 1)
    raw["setup_s"] = statistics.median(wall for wall, _ in b.setup_times)
    info["raw_wall_times"] = raw
    return metrics, info


def failures(b: Bench) -> Dict[str, int]:
    """Failure counts of one pass (every input once), by cause."""
    from workloads import CAUSES

    counts = {c: 0 for c in CAUSES}
    for res in b.first.values():
        if res.cause is not None:
            counts[res.cause] += 1
    return counts


def per_layer(b: Bench, sizes, fails: Dict[str, int]) -> Dict[str, float]:
    stats = [pair[2] for pair in b.pairs]
    out: Dict[str, float] = {}
    for name in stats[0]:
        for key in ("s", "self_s", "calls"):
            out[f"{name}.{key}"] = statistics.median(st[name][key] for st in stats)
    modules = sorted({name.split(".")[0] for name in stats[0]})
    for mod in modules:
        out[f"{mod}.self_s"] = sum(out[f"{n}.self_s"] for n in stats[0] if n.split(".")[0] == mod)
    liu = out["twobend.draw_liu.calls"]
    out["twobend.liu_useful_ratio"] = out["twobend.draw_component.calls"] / liu if liu else 0.0
    out["onebend.fail.dead_end"] = fails["dead_end"]
    out["onebend.fail.invariant"] = fails["invariant"]
    out["verify.fail"] = fails["validation"]
    out["families.fail.generator"] = fails["generator"]
    out["fail.other"] = fails["other"]
    out["fail_ratio"] = sum(fails.values()) / len(b.inputs)
    out["grid_bits_max"] = max((s.grid_bits for s in sizes.values()), default=0)
    out["bends_total"] = sum(s.bends for s in sizes.values())
    out["trace.overhead_ratio"] = statistics.median(t / p for p, t, _ in b.pairs)
    out["trace.spans"] = len(b.tracer.spans) / len(b.pairs)
    return out


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _baseline() -> Dict:
    path = BENCH_DIR / "baseline.json"
    return json.loads(path.read_text()) if path.exists() else {}


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "slopeforge" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a slopeforge checkout (src/slopeforge and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    work = WORK_DIR / f"work-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, work)
    try:
        if args.trace:
            bench.setup()
            bench.window(traced=True)
        else:
            with bench.speed:
                bench.setup()
                bench.window(traced=False)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sizes = bench.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fails = failures(bench)
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(bench, sizes, fails)
    else:
        wanted = spec["end_to_end"]
        values, tail_info = end_to_end(bench, sizes, rss_mb)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = len(bench.samples)
    failed = sum(1 for *_, cause in bench.samples if cause is not None)
    correct = not bench.problems
    baseline = _baseline()
    recorded = baseline.get("digests", {}).get(args.workload, {}).get(str(args.seed))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": _git_sha(),
            "platform": platform.platform(),
        },
        "inputs": len(bench.inputs),
        "passes": bench.passes,
        "window_s": bench.wall,
        "setup_runs_s": bench.setup_times,
        "failures_per_pass": fails,
        "op_seconds": {inp.name: [[round(raw, 6), round(norm, 6)]
                                  for i, raw, norm, _ in bench.samples if i == idx]
                       for idx, inp in enumerate(bench.inputs)},
        "digests": {"inputs": bench.inputs_digest, "outputs": bench.outputs_digest},
        "inputs_vs_baseline": (
            "no baseline for this seed" if recorded is None
            else "same" if recorded["inputs"] == bench.inputs_digest else "inputs changed"),
        "bounds_from": baseline.get("spread", {}).get(args.workload, {}),
        "problems": bench.problems[:20],
        "metrics": metrics,
    }
    if not args.trace:
        record["tail"] = tail_info
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        bench.tracer.write(str(results / f"{stem}.spans.tsv"))

    better = {m["name"]: m["better"] for m in wanted}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(bench.inputs)} inputs, "
          f"{bench.passes} passes, {attempted} ops, {failed} failed "
          f"({', '.join(f'{c} {n}' for c, n in fails.items() if n) or 'none'} per pass)")
    print(f"  inputs {bench.inputs_digest} ({record['inputs_vs_baseline']}), "
          f"outputs {bench.outputs_digest}")
    if not args.trace:
        print(f"  op_tail_s is p{tail_info['tail_percentile']:g} of {tail_info['tail_samples']} "
              f"inputs' median op times, {tail_info['tail_beyond']} beyond it")
        print("  raw wall times: " + ", ".join(
            f"{k} {v:.5g}" for k, v in tail_info["raw_wall_times"].items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} ({better[name]} is better)")
    for p in bench.problems[:20]:
        print(f"  WRONG: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
