"""JSON documents: graphs (planarization form) and drawings.

Rationals serialize as [numerator, denominator] pairs and read back as
coordinates: an int when integral, else a Fraction.  Integers beyond
2**53 - 1 become base-10 strings so the values survive any JSON reader.
Serialization is canonical (sorted keys, fixed separators), so identical
objects produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .drawing import PolylineDrawing
from .geometry import Coord, Point, quotient
from .model import EmbeddedGraph, PlaneGraph

_BIG = 2**53 - 1
_STR = {str}
_DICT = {dict}


class DocumentError(Exception):
    pass


def _int_out(v: int):
    return v if abs(v) <= _BIG else str(v)


def _int_in(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise DocumentError(f"expected integer or string, got {v!r}")
    try:
        return int(v)
    except ValueError:
        raise DocumentError(f"expected an integer, got {v!r}") from None


def _rat_out(q: Coord):
    return [_int_out(q.numerator), _int_out(q.denominator)]


def _point_out(p: Point):
    """p written as [x, y].  The common form, int x and y within +-_BIG,
    is written inline as [[x, 1], [y, 1]]; every other one goes through
    _rat_out."""
    x, y = p
    if type(x) is int and type(y) is int and -_BIG <= x <= _BIG and -_BIG <= y <= _BIG:
        return [[x, 1], [y, 1]]
    return [_rat_out(x), _rat_out(y)]


def _point_in(v) -> Point:
    if not isinstance(v, list) or len(v) != 2:
        raise DocumentError(f"expected [x, y], got {v!r}")
    return Point(_rat_in(v[0]), _rat_in(v[1]))


def _points_in(values) -> List[Point]:
    """Each of values read as a point.  The common form, [[x, 1], [y, 1]]
    with int x and y, is read inline; every other one goes to _point_in."""
    out = []
    for v in values:
        if type(v) is list and len(v) == 2:
            px, py = v
            if type(px) is list and type(py) is list and len(px) == 2 and len(py) == 2:
                x, dx = px
                y, dy = py
                if type(x) is int and type(y) is int and type(dx) is int and type(dy) is int:
                    if dx == 1 and dy == 1:
                        out.append(Point(x, y))
                        continue
        out.append(_point_in(v))
    return out


def _list_in(v) -> List[Any]:
    if not isinstance(v, list):
        raise DocumentError(f"expected a list, got {v!r}")
    return v


def _rat_in(v) -> Coord:
    """A rational read as a coordinate: an int when it is integral."""
    if not isinstance(v, list) or len(v) != 2:
        raise DocumentError(f"expected [numerator, denominator], got {v!r}")
    num, den = v
    if type(num) is not int or type(den) is not int:
        num, den = _int_in(num), _int_in(den)
    if den == 1:
        return num
    if den == 0:
        raise DocumentError(f"zero denominator in {v!r}")
    return quotient(num, den)


# ---------------------------------------------------------------------------
# GraphDocument
# ---------------------------------------------------------------------------

GRAPH_FIELDS = {"version", "vertices", "edges", "rotations", "fragment_map", "outer_face"}


def graph_to_doc(g: EmbeddedGraph) -> Dict[str, Any]:
    plane = g.plane
    return {
        "version": 1,
        "vertices": [
            {"id": v, "real": v in plane.real} for v in sorted(plane.vertices)
        ],
        "edges": [
            {"id": e, "endpoints": list(plane.edges[e])} for e in sorted(plane.edges)
        ],
        "rotations": {v: list(plane.rotation[v]) for v in sorted(plane.vertices)},
        "fragment_map": _fragment_map_out(plane),
        "outer_face": [] if plane.outer is None else [[e, tail] for e, tail in plane.outer_face().darts],
    }


def _fragment_map_out(plane: PlaneGraph) -> Dict[str, List[List[str]]]:
    out: Dict[str, List[List[str]]] = {}
    for x in sorted(plane.dummies()):
        out[x] = [
            [e, plane.fragment_of[e]]
            for e in plane.rotation[x]
        ]
    return out


def graph_from_doc(doc: Dict[str, Any], strict: bool = False) -> EmbeddedGraph:
    if not isinstance(doc, dict):
        raise DocumentError("graph document must be an object")
    if strict:
        unknown = set(doc) - GRAPH_FIELDS
        if unknown:
            raise DocumentError(f"unknown fields: {sorted(unknown)}")
    if doc.get("version") != 1:
        raise DocumentError("unsupported graph document version")
    try:
        vertices = [(_id_in(v["id"]), v["real"]) for v in _objects_in(doc["vertices"], "vertices")]
        edges = {_id_in(e["id"]): _pair_in(e["endpoints"]) for e in _objects_in(doc["edges"], "edges")}
        rotations = {_id_in(v): _ids_in(r) for v, r in _object_in(doc["rotations"], "rotations").items()}
        fragment_of = dict(_pair_in(pair)
                           for pairs in _object_in(doc.get("fragment_map", {}), "fragment_map").values()
                           for pair in pairs)
        outer = [_pair_in(d) for d in doc.get("outer_face", [])]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed graph document: {exc}")
    for v, is_real in vertices:
        if type(is_real) is not bool:
            raise DocumentError(f"vertex {v}: real must be true or false, got {is_real!r}")
    plane = PlaneGraph(
        vertices=[v for v, _ in vertices],
        real={v for v, is_real in vertices if is_real},
        edges=edges,
        rotation=rotations,
        fragment_of=fragment_of,
    )
    g = EmbeddedGraph.from_plane(plane)
    if outer:
        for e, tail in outer:
            if tail not in edges.get(e, ()):
                raise DocumentError(f"outer_face dart ({e}, {tail}) is not a dart of the graph")
        if set(outer) != set(plane.trace_face(outer[0]).darts):
            raise DocumentError("outer_face does not describe a face of the rotation system")
        plane.outer = outer[0]
    return g


def _id_in(v) -> str:
    if not isinstance(v, str):
        raise DocumentError(f"expected a string id, got {v!r}")
    return v


def _ids_in(values) -> List[str]:
    """Each of values read as an id.  The common form, a list of str, is
    copied inline; every other one goes to _id_in item by item."""
    if type(values) is list and {*map(type, values)} <= _STR:
        return list(values)
    return [_id_in(v) for v in values]


def _pair_in(v) -> Tuple[str, str]:
    """v read as a pair of ids.  The common form, a list of two str, is
    read inline; every other one goes to _id_in item by item."""
    if type(v) is list and len(v) == 2:
        a, b = v
        if type(a) is str and type(b) is str:
            return a, b
    if not isinstance(v, list) or len(v) != 2:
        raise DocumentError(f"expected a pair of ids, got {v!r}")
    return _id_in(v[0]), _id_in(v[1])


def _object_in(v, key: str) -> Dict[str, Any]:
    """v, an object, the value of or an entry under document key `key`."""
    if not isinstance(v, dict):
        raise DocumentError(f"{key}: expected an object, got {v!r}")
    return v


def _objects_in(values, key: str) -> List[Dict[str, Any]]:
    """values, the list of objects under document key `key`.  The common
    form, a list of dicts, is checked inline; every other one goes to
    _object_in item by item."""
    values = _list_in(values)
    if {*map(type, values)} <= _DICT:
        return values
    return [_object_in(v, key) for v in values]


# ---------------------------------------------------------------------------
# DrawingDocument
# ---------------------------------------------------------------------------

DRAWING_FIELDS = {"version", "graph", "positions", "polylines"}


def drawing_to_doc(d: PolylineDrawing) -> Dict[str, Any]:
    return {
        "version": 1,
        "graph": graph_to_doc(d.graph),
        "positions": {v: _point_out(p) for v, p in sorted(d.positions.items())},
        "polylines": {e: [_point_out(p) for p in pts] for e, pts in sorted(d.polylines.items())},
    }


def drawing_from_doc(doc: Dict[str, Any], strict: bool = False) -> PolylineDrawing:
    if not isinstance(doc, dict):
        raise DocumentError("drawing document must be an object")
    if strict:
        unknown = set(doc) - DRAWING_FIELDS
        if unknown:
            raise DocumentError(f"unknown fields: {sorted(unknown)}")
    if doc.get("version") != 1:
        raise DocumentError("unsupported drawing document version")
    for key in ("graph", "positions", "polylines"):
        if not isinstance(doc.get(key), dict):
            raise DocumentError(f"drawing document needs an object {key!r}")
    graph = graph_from_doc(doc["graph"], strict=strict)
    positions = dict(zip(doc["positions"], _points_in(doc["positions"].values())))
    polylines = {e: _points_in(_list_in(pts)) for e, pts in doc["polylines"].items()}
    return PolylineDrawing(graph=graph, positions=positions, polylines=polylines)


def dumps(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> Dict[str, Any]:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}")
