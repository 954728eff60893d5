"""Span tracing for the traced benchmark run.

The tracer wraps a fixed list of slopeforge's public functions in place.
Most modules import their helpers by name (``cli.draw_onebend``,
``onebend.intersect``, ``twobend.st_order`` ...), so a wrapper is installed
under every module attribute that refers to the original function, not only
in the defining module.  Methods are wrapped on their class.

Each call records a span ``(span_id, parent_id, op_id, name, start, end)``.
Spans stay in memory until :meth:`Tracer.write`.  Per-name totals are kept
as the calls close:

* ``calls``  -- every call;
* ``s``      -- busy time, counting only calls not nested in a call of the
  same name, so recursion is not counted twice;
* ``self_s`` -- span time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List, Tuple

# "<module>.<attribute path inside it>"; the per-layer metrics are named
# after these, e.g. "onebend.check_gamma" -> "onebend.check_gamma.s".
TARGETS: Tuple[str, ...] = (
    "cli.main",
    "docio.dumps",
    "docio.loads",
    "families.gen_corpus",
    "graphutil.vertex_connectivity",
    "model.connectivity",
    "model.PlaneGraph.validate",
    "reembed.normalize_embedding",
    "ordering.canonical_order",
    "ordering.st_order",
    "onebend.draw_onebend",
    "onebend.OneBendDrawer.run",
    "onebend.connection_plans",
    "onebend.stretch",
    "onebend.check_gamma",
    "twobend.draw_twobend",
    "twobend.bridge_decomposition",
    "twobend.draw_component",
    "twobend.draw_liu",
    "twobend.check_invariants",
    "twobend.eliminate_cshapes",
    "twobend.stretch_curve",
    "twobend.assemble",
    "geometry.intersect",
    "verify.validate",
    "verify.embedding_of",
    "render.render_svg",
)

PACKAGE = "slopeforge"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = list(TARGETS)
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        self.op_id = -1
        self._next_id = 0
        self._stack: List[list] = []  # [span_id, time covered by children]
        self._depth = [0] * len(self.names)
        self._stats = [[0, 0.0, 0.0] for _ in self.names]  # calls, busy, self
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for idx, target in enumerate(self.names):
            mod_name, *path = target.split(".")
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(idx, original)
            if len(path) > 1:  # a method: patch its class only
                self._patch(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx: int, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            depth = tracer._depth[idx]
            tracer._depth[idx] = depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._depth[idx] = depth
                dur = end - start
                stats = tracer._stats[idx]
                stats[0] += 1
                if depth == 0:
                    stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                tracer.spans.append(
                    (span_id, parent[0] if parent is not None else -1,
                     tracer.op_id, idx, start, end))

        return wrapper

    # -- results ------------------------------------------------------------

    def take_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-name calls, busy and self time since the last call; resets them."""
        out = {name: {"calls": st[0], "s": st[1], "self_s": st[2]}
               for name, st in zip(self.names, self._stats)}
        self._stats = [[0, 0.0, 0.0] for _ in self.names]
        return out

    def write(self, path: str) -> None:
        """Write every recorded span, one per line, as tab-separated fields:
        span id, parent id (-1 for none), op id, name, start, end."""
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart\tend\n")
            names = self.names
            for sid, parent, op, idx, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{names[idx]}\t{start:.9f}\t{end:.9f}\n")
