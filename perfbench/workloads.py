"""The benchmark's three workloads: inputs, the op, and output checks.

Every op goes through ``slopeforge.cli.main`` in-process, with ``--in`` and
``--out`` files, exactly as a user's pipeline would run the commands.  The
program only ever sees the documents built here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from slopeforge import cli, docio, graphutil
from slopeforge.families import gen_2reg, gen_corpus
from slopeforge.geometry import Point
from slopeforge.model import connectivity
from slopeforge.verify import embedding_from_geometry

# Failure causes.  The first three are known defects of the program and are
# counted, not hidden; the last two mean an output is wrong or the program
# crashed, and make the run incorrect.
DEAD_END = "dead_end"
INVARIANT = "invariant"
GENERATOR = "generator"
VALIDATION = "validation"
OTHER = "other"
KNOWN_CAUSES = (DEAD_END, INVARIANT, GENERATOR)
CAUSES = (DEAD_END, INVARIANT, GENERATOR, VALIDATION, OTHER)


@dataclass
class Input:
    name: str
    text: str                  # the serialized input document (or argv)
    path: str = ""             # file the op reads, for drawer workloads
    argv: List[str] = field(default_factory=list)
    profile: str = ""          # corpus-gen: the profile the graph must have


@dataclass
class OpResult:
    start: float               # perf_counter() when the op began
    seconds: float
    cause: Optional[str]       # None when the op succeeded
    message: str
    outputs: Dict[str, bytes]  # output documents by role

    def fingerprint(self) -> Tuple:
        return (self.cause, self.message, sorted(self.outputs.items()))


@dataclass
class Sizes:
    doc_bytes: int
    grid_bits: int = 0
    bends: int = 0


@dataclass
class Workload:
    name: str
    build: Callable[[int, str], List[Input]]
    run: Callable[[Input, str], OpResult]
    check: Callable[[Input, OpResult], Tuple[List[str], Optional[Sizes]]]
    self_test: Callable[[List[Tuple[Input, OpResult]], str], List[str]]
    # Set-up also runs one reference op per input (corpus-gen only: its
    # inputs are parameters, so the reference outputs are what set-up makes).
    reference_in_setup: bool = False


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def _call(argv: List[str], err: io.StringIO) -> int:
    with contextlib.redirect_stderr(err):
        return cli.main(argv)


def _classify(stage: str, rc: int, message: str) -> str:
    if stage == "draw" and rc == 2:
        if "invariants broken" in message:
            return INVARIANT
        if "could not place" in message or "final dummy" in message:
            return DEAD_END
    if stage == "validate" and rc == 1:
        return VALIDATION
    return OTHER


def _read_outputs(paths: Dict[str, str]) -> Dict[str, bytes]:
    out = {}
    for role, path in paths.items():
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[role] = fh.read()
    return out


def _remove(paths: Dict[str, str]) -> None:
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)


def _drawer_op(mode: str, with_render: bool) -> Callable[[Input, str], OpResult]:
    def run(inp: Input, out_dir: str) -> OpResult:
        base = os.path.join(out_dir, inp.name)
        paths = {"drawing": base + ".drawing.json", "report": base + ".report.json"}
        if with_render:
            paths["svg"] = base + ".svg"
        _remove(paths)
        err = io.StringIO()
        stage, rc = "draw", 0
        start = perf_counter()
        try:
            rc = _call(["draw", "--mode", mode, "--in", inp.path, "--out", paths["drawing"]], err)
            if rc == 0:
                stage = "validate"
                rc = _call(["validate", "--profile", mode, "--in", paths["drawing"],
                            "--out", paths["report"]], err)
            if rc == 0 and with_render:
                stage = "render"
                rc = _call(["render", "--in", paths["drawing"], "--out", paths["svg"]], err)
        except Exception:  # the loop must go on; the crash is reported as "other"
            seconds = perf_counter() - start
            return OpResult(start, seconds, OTHER, traceback.format_exc(limit=3),
                            _read_outputs(paths))
        seconds = perf_counter() - start
        message = err.getvalue().strip()
        cause = None if rc == 0 else _classify(stage, rc, message)
        return OpResult(start, seconds, cause, message, _read_outputs(paths))

    return run


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _rationals(doc: Dict):
    for xy in doc["positions"].values():
        yield from xy
    for pts in doc["polylines"].values():
        for p in pts:
            yield from p


def drawing_sizes(text: bytes) -> Sizes:
    """Grid bits, bends and bytes, computed from the drawing document.

    ``grid_bits`` is the bit length of the largest |coordinate| once the
    drawing's common denominator is cleared.
    """
    doc = json.loads(text)
    rats = [(int(n), int(d)) for n, d in _rationals(doc)]
    den = lcm(*(d for _, d in rats))
    bits = max(abs(n * (den // d)).bit_length() for n, d in rats)
    bends = sum(len(pts) - 2 for pts in doc["polylines"].values())
    return Sizes(doc_bytes=len(text), grid_bits=bits, bends=bends)


def _abstract(doc: Dict) -> Tuple:
    g = docio.graph_from_doc(doc)
    return sorted(g.vertices), sorted((e, tuple(sorted(ab))) for e, ab in g.edges.items())


def _check_drawing(inp: Input, res: OpResult) -> Tuple[List[str], Optional[Sizes]]:
    if res.cause is not None:
        if res.cause in KNOWN_CAUSES:
            return [], None
        return [f"{inp.name}: {res.cause}: {res.message[:300]}"], None
    problems = []
    report = json.loads(res.outputs["report"])
    if not report["passed"]:
        problems.append(f"{inp.name}: validator rejected the drawing: {report['violations'][:3]}")
    drawing = json.loads(res.outputs["drawing"])
    if _abstract(drawing["graph"]) != _abstract(json.loads(inp.text)):
        problems.append(f"{inp.name}: the drawing is of another graph than its input")
    if "svg" in res.outputs and not res.outputs["svg"].startswith(b"<svg"):
        problems.append(f"{inp.name}: render wrote no SVG")
    return problems, drawing_sizes(res.outputs["drawing"])


def _moved_vertex(drawing_text: bytes) -> str:
    """The drawing with one real vertex, and its edge ends, moved off-grid."""
    doc = json.loads(drawing_text)
    real = sorted(v["id"] for v in doc["graph"]["vertices"] if v["real"])
    v = real[len(real) // 2]
    old = doc["positions"][v]
    x, y = (Fraction(int(n), int(d)) for n, d in old)
    new = [[str(q.numerator), str(q.denominator)] for q in (x + Fraction(1, 3), y + Fraction(1, 7))]
    doc["positions"][v] = new
    for pts in doc["polylines"].values():
        for i in (0, -1):
            if pts[i] == old:
                pts[i] = new
    return json.dumps(doc)


def _drawer_self_test(profile: str):
    def self_test(first: List[Tuple[Input, OpResult]], out_dir: str) -> List[str]:
        ok = next(((i, r) for i, r in first if r.cause is None), None)
        if ok is None:
            return ["self-test: no successful drawing to tamper with"]
        path = os.path.join(out_dir, "self-test.drawing.json")
        with open(path, "w") as fh:
            fh.write(_moved_vertex(ok[1].outputs["drawing"]))
        rc = _call(["validate", "--profile", profile, "--in", path,
                    "--out", os.path.join(out_dir, "self-test.report.json")], io.StringIO())
        if rc != 1:
            return [f"self-test: a drawing with one vertex moved passed validation (exit {rc})"]
        return []

    return self_test


# ---------------------------------------------------------------------------
# onebend-cubic
# ---------------------------------------------------------------------------

# (n_target, generator seeds).  The seeds are fixed so that every run meets
# the same known defects: at n_target=90, seed 1024 breaks the per-step P6
# invariant and seed 1029 dead-ends in placement.  The n_target=200 graph
# has 184 vertices, where the full re-sweep after each stretch dominates.
# The n_target=20 tier gives the op-time distribution the 40 samples a
# single pass needs for a p75 tail with ten samples beyond it.
ONEBEND_TIERS = (
    (20, range(1000, 1033)),
    (90, range(1024, 1030)),
    (200, (13,)),
)


def _write_input(inp: Input, in_dir: str) -> Input:
    inp.path = os.path.join(in_dir, inp.name + ".json")
    with open(inp.path, "w") as fh:
        fh.write(inp.text)
    return inp


def build_onebend(seed: int, in_dir: str) -> List[Input]:
    inputs = []
    for n_target, gen_seeds in ONEBEND_TIERS:
        for s in gen_seeds:
            g = gen_corpus(seed=s, n_target=n_target, profile="cubic3con", count=1)[0]
            text = docio.dumps(docio.graph_to_doc(g))
            inputs.append(_write_input(Input(f"cubic-n{n_target}-s{s}", text), in_dir))
    return inputs


# ---------------------------------------------------------------------------
# twobend-blocks
# ---------------------------------------------------------------------------

BRAID_KS = (8, 16, 24, 32, 48, 64)
CHAIN_BLOCKS = (10,) * 22 + (15,) * 6 + (20,) * 3 + (25, 30, 40)


def subcubic_chain(rng: random.Random, blocks: int):
    """A subcubic 1-plane chain of cycle blocks joined by bridges.

    Each block is a 4..9-cycle with its vertices in convex position.  The
    sizes cycle through 4..9 and three in five blocks of six or more get a
    crossing chord pair, two in five of the other blocks of five or more a
    single chord; the seed only decides which blocks.  So a chain's size
    does not depend on the seed.  Built through the public
    geometry-to-embedding path, so the chain has no block cap.
    """
    sizes = [4 + i % 6 for i in range(blocks)]
    rng.shuffle(sizes)
    big = [b for b, m in enumerate(sizes) if m >= 6]
    crossed = set(rng.sample(big, round(0.6 * len(big))))
    mid = [b for b, m in enumerate(sizes) if m >= 5 and b not in crossed]
    chorded = set(rng.sample(mid, round(0.4 * len(mid))))
    pos: Dict[str, Point] = {}
    edges: Dict[str, Tuple[str, str]] = {}
    offset = 0
    prev: Optional[str] = None
    for b, m in enumerate(sizes):
        names = [f"c{b}_{i}" for i in range(m)]
        for i, v in enumerate(names):
            pos[v] = Point(Fraction(offset + i), Fraction(i * i))
        for i in range(m):
            edges[f"cy{b}_{i}"] = (names[i], names[(i + 1) % m])
        if b in crossed or b in chorded:
            edges[f"ch{b}_a"] = (names[1], names[3])
        if b in crossed:
            edges[f"ch{b}_b"] = (names[2], names[4])
        if prev is not None:
            edges[f"br{b}"] = (prev, names[0])
        prev = names[-1]
        offset += m + 3
    return embedding_from_geometry(pos, edges)


def build_twobend(seed: int, in_dir: str) -> List[Input]:
    rng = random.Random(f"twobend-blocks/{seed}")
    graphs = [(f"braid-k{k}", gen_2reg(k)) for k in BRAID_KS]
    graphs += [(f"chain{i}-b{b}", subcubic_chain(rng, b)) for i, b in enumerate(CHAIN_BLOCKS)]
    return [
        _write_input(Input(name, docio.dumps(docio.graph_to_doc(g))), in_dir)
        for name, g in graphs
    ]


# ---------------------------------------------------------------------------
# corpus-gen
# ---------------------------------------------------------------------------

# (profile, n_target, ops): each op is one single-graph gen_corpus call,
# with generator seeds 1000, 1001, ... per tier.  The calls are fixed so
# that every run generates the same corpus; cubic3con reaches n_target=200.
CORPUS_TIERS = (
    ("cubic3con", 20, 14),
    ("cubic3con", 40, 8),
    ("cubic3con", 60, 4),
    ("cubic3con", 120, 1),
    ("cubic3con", 200, 1),
    ("subcubic", 20, 6),
    ("subcubic", 60, 4),
    ("subcubic", 120, 2),
)


def build_corpus(seed: int, in_dir: str) -> List[Input]:
    inputs = []
    for profile, n_target, ops in CORPUS_TIERS:
        for gen_seed in range(1000, 1000 + ops):
            argv = ["--seed", str(gen_seed), "gen", "--family", "corpus", "--profile", profile,
                    "--n", str(n_target), "--count", "1"]
            inputs.append(Input(f"{profile}-n{n_target}-s{gen_seed}", " ".join(argv), argv=argv,
                                profile=profile))
    return inputs


def run_corpus(inp: Input, out_dir: str) -> OpResult:
    paths = {"corpus": os.path.join(out_dir, inp.name + ".jsonl")}
    _remove(paths)
    err = io.StringIO()
    start = perf_counter()
    try:
        rc = _call(inp.argv + ["--out", paths["corpus"]], err)
    except RuntimeError as exc:  # gen_corpus gives up on its own checks
        return OpResult(start, perf_counter() - start, GENERATOR, str(exc), {})
    except Exception:
        return OpResult(start, perf_counter() - start, OTHER, traceback.format_exc(limit=3), {})
    seconds = perf_counter() - start
    message = err.getvalue().strip()
    return OpResult(start, seconds, None if rc == 0 else OTHER, message, _read_outputs(paths))


def corpus_problems(profile: str, text: bytes) -> List[str]:
    """Why a one-graph corpus document is not a valid graph of its profile."""
    lines = text.decode().splitlines()
    if len(lines) != 1:
        return [f"{len(lines)} graphs instead of one"]
    try:
        g = docio.graph_from_doc(docio.loads(lines[0]), strict=True)
    except Exception as exc:  # any rejection is the finding
        return [f"{type(exc).__name__}: {exc}"]
    if profile == "cubic3con":
        if not g.is_cubic() or connectivity(g, cap=3) != 3:
            return ["the graph is not cubic and 3-connected"]
    elif not g.is_subcubic() or not graphutil.is_connected(g.abstract_adjacency()):
        return ["the graph is not subcubic and connected"]
    return []


def _check_corpus(inp: Input, res: OpResult) -> Tuple[List[str], Optional[Sizes]]:
    if res.cause is not None:
        if res.cause in KNOWN_CAUSES:
            return [], None
        return [f"{inp.name}: {res.cause}: {res.message[:300]}"], None
    text = res.outputs["corpus"]
    problems = corpus_problems(inp.profile, text)
    return [f"{inp.name}: {p}" for p in problems], Sizes(doc_bytes=len(text))


def _corpus_self_test(first: List[Tuple[Input, OpResult]], out_dir: str) -> List[str]:
    inp, res = next((i, r) for i, r in first
                    if r.cause is None and i.profile == "cubic3con")
    doc = json.loads(res.outputs["corpus"].decode().splitlines()[0])
    doc["edges"].pop()
    if not corpus_problems("cubic3con", json.dumps(doc).encode()):
        return ["self-test: a cubic corpus graph with one edge removed passed the checks"]
    return []


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "onebend-cubic",
            build_onebend, _drawer_op("onebend", with_render=False), _check_drawing,
            _drawer_self_test("onebend"),
        ),
        Workload(
            "twobend-blocks",
            build_twobend, _drawer_op("twobend", with_render=True), _check_drawing,
            _drawer_self_test("twobend"),
        ),
        Workload(
            "corpus-gen",
            build_corpus, run_corpus, _check_corpus, _corpus_self_test,
            reference_in_setup=True,
        ),
    )
}


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
