"""Polyline drawings with exact rational coordinates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .geometry import IntersectKind, Intersection, Point, Segment, strip_collinear
from .model import EmbeddedGraph, PlaneGraph


def join_fragments(plane: PlaneGraph, lines: Dict[str, List[Point]], orig: str) -> Optional[List[Point]]:
    """The drawn part of original edge `orig`, as a new list: its own
    polyline in `lines`, or its two drawn fragments joined at their common
    point, the dummy.  One drawn fragment gives that fragment's points, and
    nothing drawn gives None.  Raises ValueError when two drawn fragments
    do not meet."""
    drawn = [lines[e] for e in plane.fragments_of_original(orig) or [orig] if e in lines]
    if not drawn:
        return None
    if len(drawn) == 1:
        return list(drawn[0])
    pa, pb = drawn
    if pa[-1] not in (pb[0], pb[-1]):
        pa = pa[::-1]
    if pb[0] != pa[-1]:
        pb = pb[::-1]
    if pa[-1] != pb[0]:
        raise ValueError(f"fragments of {orig} do not meet at their crossing")
    return pa + pb[1:]


def finished_polylines(
    graph: EmbeddedGraph, lines: Dict[str, List[Point]], pos: Dict[str, Point]
) -> Dict[str, List[Point]]:
    """The polyline of each original edge of graph, in edge order: its
    fragments in `lines`, drawn over graph's plane, joined, oriented from
    the position in `pos` of the edge's first end and stripped of collinear
    points.  Raises ValueError for an edge never drawn."""
    out: Dict[str, List[Point]] = {}
    for orig, (a, _) in sorted(graph.edges.items()):
        pts = join_fragments(graph.plane, lines, orig)
        if pts is None:
            raise ValueError(f"edge {orig} never drawn")
        if pts[0] != pos[a]:
            pts.reverse()
        out[orig] = strip_collinear(pts)
    return out


def improper_hits(
    hits: Iterable[Tuple[int, int, Intersection]],
    labels: Sequence[str],
    ends: Mapping[str, Tuple[str, str]],
    pos: Mapping[str, Point],
) -> Iterator[Tuple[int, int, Intersection]]:
    """The improper meetings among `hits`, in their order.

    hits are meetings (i, j, res) of segments i and j of a drawing, where
    segment k lies on the edge labels[k] and each edge's segments are
    listed one after another along it; ends maps each edge to its end
    vertices and pos places them.  Two segments may meet only at the joint
    of consecutive segments of one edge, or at a common end vertex's
    position.
    """
    for i, j, res in hits:
        e1, e2 = labels[i], labels[j]
        if res.kind is IntersectKind.SHARED_ENDPOINT:
            if e1 == e2:
                if abs(i - j) == 1:
                    continue
            elif any(pos.get(v) == res.point for v in set(ends[e1]) & set(ends[e2])):
                continue
        yield i, j, res


@dataclass
class PolylineDrawing:
    """Vertex positions plus a polyline (with optional bends) per edge.

    Polyline keys are the original edge ids of the source graph; each
    polyline runs from one endpoint's position to the other's, with the
    interior points being bends.  Consecutive points must be distinct.
    """

    graph: EmbeddedGraph
    positions: Dict[str, Point]
    polylines: Dict[str, List[Point]]

    def segments_of(self, edge_id: str) -> List[Segment]:
        pts = self.polylines[edge_id]
        return [Segment(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]

    def all_segments(self) -> List[Tuple[str, int, Segment]]:
        out: List[Tuple[str, int, Segment]] = []
        for e in sorted(self.polylines):
            for i, seg in enumerate(self.segments_of(e)):
                out.append((e, i, seg))
        return out

    def check_structure(self) -> List[str]:
        """Structural problems: missing endpoints, repeated points, polylines
        of edges and positions of vertices the graph lacks, etc."""
        problems: List[str] = []
        for v in self.graph.vertices:
            if v not in self.positions:
                problems.append(f"vertex {v} has no position")
        for e, (a, b) in sorted(self.graph.edges.items()):
            pts = self.polylines.get(e)
            if not pts or len(pts) < 2:
                problems.append(f"edge {e} has no polyline")
                continue
            if a in self.positions and b in self.positions:
                pa, pb = self.positions[a], self.positions[b]
                if (pts[0], pts[-1]) not in ((pa, pb), (pb, pa)):
                    problems.append(f"polyline of {e} does not join its endpoints")
            for i in range(len(pts) - 1):
                if pts[i] == pts[i + 1]:
                    problems.append(f"edge {e} has a zero-length segment")
                    break
        for e in sorted(set(self.polylines) - set(self.graph.edges)):
            problems.append(f"polyline of unknown edge {e}")
        for v in sorted(set(self.positions) - set(self.graph.vertices)):
            problems.append(f"position of unknown vertex {v}")
        pos_list = sorted(self.positions.items())
        seen: Dict[Point, str] = {}
        for v, p in pos_list:
            if p in seen:
                problems.append(f"vertices {seen[p]} and {v} coincide at {p}")
            seen[p] = v
        return problems
