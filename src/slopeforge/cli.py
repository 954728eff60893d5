"""Command-line surface.

Subcommands compose through JSON on stdin/stdout:

    slopeforge gen --family k4 | slopeforge draw --mode onebend \\
        | slopeforge validate --profile onebend

Exit codes: 0 success, 1 validation failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import docio, families, render
from .model import EmbeddingError
from .onebend import OneBendError, _run_pipeline, draw_onebend
from .ordering import OrderingError, canonical_order_on_real_edge, st_order
from .reembed import ReembedError, normalize_embedding
from .twobend import TwoBendError, draw_twobend
from .verify import DrawingError, require_sound, validate

ENV_SEED = "SLOPEFORGE_SEED"


class FileAccessError(Exception):
    """An --in file that cannot be read or an --out file that cannot be written."""


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (FileAccessError, docio.DocumentError, EmbeddingError, OrderingError, ReembedError,
            OneBendError, TwoBendError, DrawingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    no option has a mutable default."""
    p = argparse.ArgumentParser(prog="slopeforge")
    p.add_argument("--seed", type=int, default=None, help=f"default from ${ENV_SEED}")
    sub = p.add_subparsers()

    g = sub.add_parser("gen", help="emit a generated graph as JSON")
    g.add_argument("--family", required=True,
                   choices=["k4", "prism", "crossedk4", "2reg", "3reg18", "maxdeg", "corpus"])
    g.add_argument("--k", type=int, default=3, help="braid parameter for 2reg")
    g.add_argument("--delta", type=int, default=4, help="degree for maxdeg")
    g.add_argument("--profile", default="cubic3con", choices=["cubic3con", "subcubic"])
    g.add_argument("--n", type=int, default=16, help="target size for corpus graphs")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen)

    n = sub.add_parser("normalize", help="re-embed so no dummy is a cutvertex")
    _io_args(n)
    n.set_defaults(func=_cmd_normalize)

    c = sub.add_parser("canon", help="canonical ordering of the planarization")
    _io_args(c)
    c.set_defaults(func=_cmd_canon)

    s = sub.add_parser("storder", help="st-ordering of the planarization")
    _io_args(s)
    s.add_argument("--s", dest="s_vertex", default=None)
    s.add_argument("--t", dest="t_vertex", default=None)
    s.set_defaults(func=_cmd_storder)

    d = sub.add_parser("draw", help="compute a drawing")
    _io_args(d)
    d.add_argument("--mode", required=True, choices=["onebend", "twobend"])
    d.add_argument("--trace", default=None, help="directory for per-step SVG dumps")
    d.set_defaults(func=_cmd_draw)

    v = sub.add_parser("validate", help="check a drawing against a profile")
    _io_args(v)
    v.add_argument("--profile", required=True, choices=["onebend", "twobend", "straight"])
    v.set_defaults(func=_cmd_validate)

    r = sub.add_parser("render", help="render a drawing to SVG")
    _io_args(r)
    r.set_defaults(func=_cmd_render)

    return p


def _io_args(sp) -> None:
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--strict", action="store_true", help="reject unknown JSON fields")


def _read(args) -> str:
    path = getattr(args, "infile", None)
    if not path:
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


def _write_file(path: str, text: str) -> None:
    """Every file the CLI writes goes through here."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileAccessError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    return int(env) if env else 0


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "k4":
        graphs = [families.gen_k4_embedded()]
    elif fam == "prism":
        graphs = [families.gen_prism()]
    elif fam == "crossedk4":
        graphs = [families.gen_crossed_k4()]
    elif fam == "2reg":
        graphs = [families.gen_2reg(args.k)]
    elif fam == "3reg18":
        graphs = [families.gen_3reg18()]
    elif fam == "maxdeg":
        graphs = [families.gen_maxdeg(args.delta)]
    else:
        graphs = families.gen_corpus(
            seed=_seed(args), n_target=args.n, profile=args.profile, count=args.count
        )
    text = "".join(docio.dumps(docio.graph_to_doc(g)) for g in graphs)
    _write(args, text)
    return 0


def _cmd_normalize(args) -> int:
    g = docio.graph_from_doc(docio.loads(_read(args)), strict=args.strict)
    out = normalize_embedding(g)
    _write(args, docio.dumps(docio.graph_to_doc(out)))
    return 0


def _cmd_canon(args) -> int:
    g = docio.graph_from_doc(docio.loads(_read(args)), strict=args.strict)
    _, delta = canonical_order_on_real_edge(g.plane)
    doc = {
        "v1": delta.v1,
        "v2": delta.v2,
        "sets": [{"kind": s.kind, "vertices": s.vertices} for s in delta.sets],
    }
    _write(args, docio.dumps(doc))
    return 0


def _cmd_storder(args) -> int:
    g = docio.graph_from_doc(docio.loads(_read(args)), strict=args.strict)
    adj = g.plane.adjacency()
    # No vertex gives None for both, which st_order rejects as for one.
    s = args.s_vertex or min(adj, default=None)
    t = args.t_vertex or max(adj, default=None)
    st = st_order(adj, s, t)
    _write(args, docio.dumps({"s": st.s, "t": st.t, "sigma": st.sigma}))
    return 0


def _cmd_draw(args) -> int:
    g = docio.graph_from_doc(docio.loads(_read(args)), strict=args.strict)
    if args.trace:
        try:
            os.makedirs(args.trace, exist_ok=True)
        except OSError as exc:
            raise FileAccessError(f"cannot write {args.trace}: {exc.strerror or exc}") from exc
    if args.mode == "onebend":
        if args.trace:
            drawing = _traced_onebend(g, args.trace)
        else:
            drawing = draw_onebend(g)
    else:
        drawing = draw_twobend(g)
        if args.trace:
            _write_file(os.path.join(args.trace, "final.svg"), render.render_svg(drawing))
    _write(args, docio.dumps(docio.drawing_to_doc(drawing)))
    return 0


def _traced_onebend(g, trace_dir: str):
    """Run the 1-bend pipeline and dump every intermediate drawing as SVG
    into trace_dir, which exists."""
    drawer, drawing = _run_pipeline(g, trace=True)
    for i, snapshot in enumerate(drawer.trace):
        _write_file(os.path.join(trace_dir, f"step{i:03d}.svg"), render.render_segments_svg(snapshot))
    return drawing


def _cmd_validate(args) -> int:
    d = docio.drawing_from_doc(docio.loads(_read(args)), strict=args.strict)
    report = validate(d, args.profile.upper())
    doc = {
        "profile": report.profile,
        "passed": report.passed,
        "slope_set": sorted(s.value for s in report.slope_set),
        "slope_count": report.slope_count,
        "max_bends": report.max_bends,
        "min_vertex_angle_eighths": report.min_vertex_angle,
        "min_crossing_angle_eighths": report.min_crossing_angle,
        "one_planar": report.one_planar,
        "embedding_preserved": report.embedding_preserved,
        "violations": report.violations,
    }
    _write(args, docio.dumps(doc))
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    d = docio.drawing_from_doc(docio.loads(_read(args)), strict=args.strict)
    require_sound(d)
    _write(args, render.render_svg(d))
    return 0


if __name__ == "__main__":
    sys.exit(main())
