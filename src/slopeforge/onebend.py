"""Incremental 1-bend drawings of 3-connected cubic 1-plane graphs.

The planarization is consumed bottom-up along a canonical ordering.  The
base edge dips to the lowest point of the drawing; every later set attaches
to the contour through ports on the four canonical slopes, with new
vertices placed at exact line intersections.  Horizontal segments injected
at the base and along chains are what make stretching possible: a stretch
cuts the drawing along edges that all carry a horizontal piece, translates
the right part, and lengthens those horizontals, which is how blocked
connection rays and alignment constraints (apex over a middle predecessor,
final-vertex lines) are resolved.

Dummy vertices carry slot bookkeeping: each undrawn fragment is a slot
whose natural port is the opposite of its partner fragment's port; using
any other port spends the edge's single bend as a corner at the crossing.
After each step only P4(a), P4(b) and P6 are checked, on the contour
span the step replaced (see check_step): the placement search can break
them, and known inputs do.  The construction keeps the rest (slopes, bend
budget, base-edge geometry, P4(c), free ports, the rotations and
simplicity) at every step, so check_gamma checks them, with P4 and P6,
once on the finished drawing.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .drawing import PolylineDrawing, finished_polylines, improper_hits, join_fragments
from .geometry import (
    Coord,
    Intersection,
    Point,
    Prepared,
    Segment,
    bend_count,
    hits_across,
    line_intersection,
    prepare,
    prepare_shifted,
    prepared_octant,
    quotient,
    sweep_hits,
)
from .model import EmbeddedGraph, PlaneGraph, connectivity, cyclic_key, is_cubic
from .ordering import CanonicalOrdering, canonical_order_on_real_edge
from .reembed import normalize_embedding

# Port directions on the four canonical slopes.
DIRS: Dict[str, Tuple[int, int]] = {
    "E": (1, 0), "NE": (1, 1), "N": (0, 1), "NW": (-1, 1),
    "W": (-1, 0), "SW": (-1, -1), "S": (0, -1), "SE": (1, -1),
}
PORTS = tuple(DIRS)  # counter-clockwise from E, indexed by geometry.octant
OPP = {"E": "W", "W": "E", "N": "S", "S": "N", "NE": "SW", "SW": "NE", "NW": "SE", "SE": "NW"}
UP_PORTS = ("NE", "N", "NW")

# Successor-slot port preferences, keyed by the natural (straight-through)
# port of the slot and the side the new vertex attaches from.
SLOT_PREFS = {
    "L": {"NE": ["NE", "N"], "N": ["N"], "NW": ["N", "NW"], "E": ["NE", "N"], "W": ["N", "NW"]},
    "R": {"NW": ["NW", "N"], "N": ["N"], "NE": ["N", "NE"], "W": ["NW", "N"], "E": ["N", "NE"]},
    "M": {"NE": ["NE", "N"], "N": ["N"], "NW": ["NW", "N"], "E": ["N", "NE"], "W": ["N", "NW"]},
}

LEGAL_DUMMY_BASES = ({"SW", "SE"}, {"SW", "E"}, {"W", "SE"}, {"W", "E"}, {"SW", "S", "SE"})


class OneBendError(Exception):
    pass


# The octants of segment directions, named by their ports.
_E, _NE, _N, _NW, _W, _SW, _S, _SE = range(8)
_TURNED = {o: (o + 4) % 8 for o in range(8)}
_TURNED[None] = None


class EdgeRecord(NamedTuple):
    """What Gamma knows of one drawn edge."""

    segs: List[Prepared]  # its segments, prepared for the pair queries
    # The edge's shape: the octant of each segment in the orientation of
    # its polyline, None for a segment off the canonical slopes.
    shape: Tuple[Optional[int], ...]
    start: str  # the end vertex its polyline starts at


# The headroom of a rescale, in bits: when a value falls off Gamma's grid,
# the drawing is rescaled by the missing factor times 2**_HEADROOM.
_HEADROOM = 16


def _reversed_shape(shape: Tuple[Optional[int], ...]) -> Tuple[Optional[int], ...]:
    """The shape of the reversed polyline: each octant turned by 4."""
    return tuple(_TURNED[o] for o in reversed(shape))


@dataclass
class Gamma:
    """The incremental drawing of the planarization.

    Every coordinate Gamma stores is an int: the true value times `unit`,
    one denominator for the whole drawing, which starts at 1.  That covers
    the positions, the polylines and each record's prepared segments, with
    their boxes.  The four slopes meet at rational points, so a new point
    or a stretch amount can fall off this grid: the drawer computes it
    exactly, in Gamma's units, and writes it through `grid_ints` or
    `on_grid`, which first rescale every stored int by the missing factor
    times 2**_HEADROOM; a placement is put on the grid before its blockers
    are sought, so the segment queries only ever see ints.  The headroom
    makes every stored int a multiple of 2**_HEADROOM after a rescale, so
    the halvings that most off-grid values need (the base edge's low
    point, an apex between two anchors) land on the grid for a while and
    rescale nothing.  Only the constants tied to length scale with `unit`;
    every check is homogeneous in the coordinates and reads them as they
    are.  `unscaled` gives the true point, for the output, the step trace
    and messages.  So no output, trace or message depends on `unit`, only
    the size of the ints does.  The headroom is a constant and not a power
    of `unit`: a rescale by lcm(k, unit) would square `unit`, and a drawing
    that goes off the grid at every stretch would grow doubly
    exponentially; with a constant, a rescale adds at most
    _HEADROOM + log2(k) bits to each int.  The placed vertices are the
    keys of `pos`.

    `_index` holds a record per drawn edge (see EdgeRecord).  Its
    invariant: a record is written with its polyline.  `draw` builds it
    from the points, each segment prepared, each segment's octant (the
    shape) and the end vertex the polyline starts at; a stretch, which
    keeps every shape (the shift lemma of de Fraysseix, Pach and Pollack,
    Combinatorica 1990), installs through `redraw` the record it carried,
    a split edge's shape reversed when it is redrawn from its other end
    and a translated edge's prepared segments and boxes shifted (see
    stretch); `_scale` multiplies the segments and the boxes by its factor
    with every other coordinate.  Ports, bends, horizontal segments and
    the P1 to P4 tests read the shapes.

    Since no stretch changes a shape and no edge is ever undrawn, what
    depends only on which edges are drawn and on their shapes is kept as
    the edges are drawn, and written only through `draw` and `redraw`:
    - the unabsorbing ends: a pair (a, b) for each drawn edge other than
      the base edge that has a horizontal segment, and so is cut by every
      stretch, but no segment running east when read from its end a: a
      stretch that keeps a and moves b cannot lengthen it (see
      stretch_cut);
    - the cut forest: the components of the placed vertices over the
      drawn edges that no stretch cuts, all but the base edge and the
      horizontal-bearing ones (`_comp` maps a vertex to its component's
      label, `_members` a label to its vertices).  `draw` joins the two
      components a new such edge connects.  A placed vertex that no
      drawn edge reaches is a component of its own;
    - the flat segment index: the drawn edges in order (`_edges`), their
      segments in that order, prepared, the edge of each, and where each
      edge's segments start (`_slot`).  `redraw` writes a record into its
      edge's slot, which holds as many segments, so a stretch or a
      rescale keeps the index current; a new edge first opens its slot
      at its place in edge order, and the slots after it move.
    """

    plane: PlaneGraph
    v1: str
    v2: str
    pos: Dict[str, Point] = field(default_factory=dict)
    polylines: Dict[str, List[Point]] = field(default_factory=dict)  # plane-edge id
    contour: List[str] = field(default_factory=list)
    unit: int = 1
    base_edge: str = field(init=False)  # the plane edge v1-v2
    _index: Dict[str, EdgeRecord] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _unabsorbing: List[Tuple[str, str]] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _comp: Dict[str, str] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _members: Dict[str, List[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _edges: List[str] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _labels: List[str] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _flat: List[Prepared] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _slot: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.base_edge = _edge_between(self.plane, self.v1, self.v2)
        for e, pts in self.polylines.items():
            self.draw(e, pts)

    # -- units ----------------------------------------------------------------

    def grid_ints(self, values: Sequence[Coord]) -> List[int]:
        """`values`, exact in Gamma's units, as ints in its units after the
        call.  When one of them is off the grid, the drawing is first
        rescaled by k * 2**_HEADROOM, k the least factor that puts every
        one of them on it, and then every stored int and every int returned
        is a multiple of 2**_HEADROOM.  Values already on the grid rescale
        nothing.  The extra factor changes no output, since every output
        divides by `unit` and every check is homogeneous; and it never
        depends on `unit`, which would square it, so `unit` gains at most
        _HEADROOM + log2(k) bits per rescale (see Gamma)."""
        k = 1
        for c in values:
            if type(c) is not int:
                k = math.lcm(k, c.denominator)
        if k != 1:
            k <<= _HEADROOM
            self._scale(k)
        return [c * k if type(c) is int else c.numerator * (k // c.denominator) for c in values]

    def on_grid(self, points: Sequence[Point]) -> List[Point]:
        """`grid_ints` for points."""
        flat = self.grid_ints([c for p in points for c in (p.x, p.y)])
        return [Point(x, y) for x, y in zip(flat[::2], flat[1::2])]

    def _scale(self, k: int) -> None:
        """Hold the drawing over unit * k instead: every stored int, the
        records' boxes included, is multiplied by k."""
        pos, index = self.pos, self._index
        for v, p in pos.items():
            pos[v] = Point(p.x * k, p.y * k)
        for e, pts in self.polylines.items():
            new = [Point(p.x * k, p.y * k) for p in pts]
            rec = index[e]
            segs = [(Segment(p, q), tuple(c * k for c in s[1]))
                    for s, p, q in zip(rec.segs, new, new[1:])]
            self.redraw(e, new, EdgeRecord(segs, rec.shape, rec.start))
        self.unit *= k

    def unscaled(self, p: Point) -> Point:
        """p, exact in Gamma's units, as a point in true coordinates."""
        return Point(quotient(p.x, self.unit), quotient(p.y, self.unit))

    # -- edge records -------------------------------------------------------

    def draw(self, e: str, pts: List[Point]) -> None:
        """Draw edge e along pts, with the record built from them; both ends
        of e are placed.  A new edge puts its ends in the cut forest, as
        components of their own if they were not, and then, other than the
        base edge, joins them, or, with a horizontal segment, enters the
        unabsorbing ends where it cannot absorb."""
        segs = [prepare(Segment(p, q)) for p, q in zip(pts, pts[1:])]
        a, b = self.plane.edges[e]
        start, end = (a, b) if pts[0] == self.pos.get(a) else (b, a)
        shape = tuple(map(prepared_octant, segs))
        if e not in self._index:
            for v in (a, b):
                if v not in self._comp:
                    self._comp[v] = v
                    self._members[v] = [v]
            if e != self.base_edge:
                if any(p.y == q.y for p, q in zip(pts, pts[1:])):
                    if _E not in shape:
                        self._unabsorbing.append((start, end))
                    if _W not in shape:
                        self._unabsorbing.append((end, start))
                else:
                    self._join(start, end)
        self.redraw(e, pts, EdgeRecord(segs, shape, start))

    def redraw(self, e: str, pts: List[Point], rec: EdgeRecord) -> None:
        """Draw e along pts, with rec, a record of pts of e's shape, as its
        record: how a stretch installs the record it carried.  rec's
        segments go into e's slot of the flat index, which a new edge first
        opens at its place in edge order."""
        self.polylines[e] = pts
        self._index[e] = rec
        at = self._slot.get(e)
        if at is None:
            self._open_slot(e, rec.segs)
        else:
            self._flat[at : at + len(rec.segs)] = rec.segs

    def _open_slot(self, e: str, segs: List[Prepared]) -> None:
        """Insert the segments of new edge e into the flat index after those
        of the edges before it, and move the slots of the edges after it."""
        edges, slot, n = self._edges, self._slot, len(segs)
        k = bisect.bisect(edges, e)
        edges.insert(k, e)
        at = slot[edges[k + 1]] if k + 1 < len(edges) else len(self._flat)
        for f in itertools.islice(edges, k + 1, None):
            slot[f] += n
        slot[e] = at
        self._labels[at:at] = [e] * n
        self._flat[at:at] = segs

    def _join(self, a: str, b: str) -> None:
        """Merge the cut-forest components of a and b, relabelling the
        smaller one."""
        comp, members = self._comp, self._members
        small, big = comp[a], comp[b]
        if small == big:
            return
        if len(members[small]) > len(members[big]):
            small, big = big, small
        for v in members[small]:
            comp[v] = big
        members[big] += members.pop(small)

    def shape_from(self, e: str, v: str) -> Tuple[Optional[int], ...]:
        """The shape of drawn edge e read from its end v."""
        rec = self._index[e]
        return rec.shape if rec.start == v else _reversed_shape(rec.shape)

    # -- drawn geometry queries -------------------------------------------

    def drawn_edges(self) -> List[str]:
        return sorted(self.polylines)

    def indexed(self) -> Tuple[List[str], List[Prepared]]:
        """The segments of the drawn edges in edge order, prepared, and the
        edge of each: the lists Gamma keeps, not copies."""
        return self._labels, self._flat

    def component(self, v: str) -> str:
        """The label of placed vertex v's component in the cut forest."""
        return self._comp.get(v, v)

    def cut_components(self) -> Tuple[Dict[str, str], Dict[str, List[str]]]:
        """The cut forest's components as a map from each placed vertex to
        its component's label and one from each label to its vertices: new
        dicts, but the vertex lists are the ones Gamma keeps, so a caller
        that merges components must build new lists."""
        root, members = dict(self._comp), dict(self._members)
        if len(root) < len(self.pos):  # a placed vertex with no drawn edge
            for v in self.pos:
                if v not in root:
                    root[v] = v
                    members[v] = [v]
        return root, members

    def unabsorbing_ends(self) -> List[Tuple[str, str]]:
        """The ends (a, b) of each drawn edge other than the base edge that
        has a horizontal segment but none running east read from a, so
        that a stretch keeping a and moving b cannot lengthen it.  The list
        Gamma keeps, not a copy."""
        return self._unabsorbing

    def port_dirs(self, v: str) -> Dict[str, str]:
        """Drawn edge id -> port name at v."""
        out = {}
        for e in self.plane.rotation[v]:
            if e not in self.polylines:
                continue
            rec = self._index[e]
            o = rec.shape[0] if rec.start == v else _TURNED[rec.shape[-1]]
            if o is None:
                raise OneBendError(f"edge {e} leaves {v} off the canonical slopes")
            out[e] = PORTS[o]
        return out

    def used_ports(self, v: str) -> Set[str]:
        return set(self.port_dirs(v).values())

    def undrawn_at(self, v: str) -> List[str]:
        return [e for e in self.plane.rotation[v] if e not in self.polylines]

    def attachable(self, v: str) -> bool:
        return v in self.pos and bool(self.undrawn_at(v)) and v in self.contour

    def edge_bend_count(self, plane_edge: str) -> int:
        """Bends of the original edge drawn so far (corners at dummies count)."""
        return self._bends(self.plane.original_edge_of(plane_edge))

    def _bends(self, orig: str) -> int:
        """Bends of the drawn part of an original edge: changes of slope
        between consecutive segments, a reversal being none.  A shape names
        no slope off the canonical ones, so an edge with such a segment is
        counted on its points by geometry.bend_count, as the validator
        counts: there a turn and a fold back each make a bend."""
        shape = self._original_shape(orig)
        if None in shape:
            return bend_count(join_fragments(self.plane, self.polylines, orig))
        return sum(1 for o1, o2 in zip(shape, shape[1:]) if o1 % 4 != o2 % 4)

    def _original_shape(self, orig: str) -> Tuple[Optional[int], ...]:
        """The shape of the drawn part of an original edge, its two drawn
        fragments joined at their dummy; empty when nothing is drawn."""
        frags = self.plane.fragments_of_original(orig)
        drawn = [f for f in frags or [orig] if f in self.polylines]
        if len(drawn) < 2:
            return self._index[drawn[0]].shape if drawn else ()
        fa, fb = drawn
        x = next(v for v in self.plane.edges[fa] if self.plane.is_dummy(v))
        return self.shape_from(fa, self.plane.other_end(fa, x)) + self.shape_from(fb, x)


# ---------------------------------------------------------------------------
# Slot logic at dummies
# ---------------------------------------------------------------------------


def partner_fragment(plane: PlaneGraph, x: str, frag: str) -> str:
    rot = plane.rotation[x]
    return rot[(rot.index(frag) + 2) % 4]


def natural_port(g: Gamma, x: str, frag: str) -> str:
    """The straight-through port for an undrawn fragment at a dummy."""
    partner = partner_fragment(g.plane, x, frag)
    ports = g.port_dirs(x)
    if partner not in ports:
        raise OneBendError(f"slot {frag} at {x} has no drawn partner yet")
    return OPP[ports[partner]]


# ---------------------------------------------------------------------------
# Connection plans
# ---------------------------------------------------------------------------


@dataclass
class Plan:
    anchor: str
    edge: str          # plane edge to draw
    port: str          # port at the anchor
    corner: bool       # the edge spends its bend at the anchor dummy
    style: str = "ray"  # "ray" straight; "elbow" diagonal then horizontal


def connection_plans(g: Gamma, anchor: str, side: str, edge: str) -> List[Plan]:
    """Candidate plans for drawing the plane edge from a contour anchor to a
    new vertex."""
    plane = g.plane
    used = g.used_ports(anchor)
    plans: List[Plan] = []
    diag = {"L": "NE", "R": "NW"}.get(side)
    target = plane.other_end(edge, anchor)
    # An elbow (diagonal, then horizontal into the new vertex) spends the
    # edge's bend but injects a stretchable horizontal; never into a dummy,
    # whose partner slot would then be forced horizontal.
    elbow_ok = (
        diag is not None
        and diag not in used
        and not plane.is_dummy(target)
        and g.edge_bend_count(edge) == 0
    )
    if not plane.is_dummy(anchor):
        # The mirror diagonal last: the contour can back-track, leaving the
        # right anchor below-left of the left one.
        prefs = {"L": ["NE", "N", "NW"], "R": ["NW", "N", "NE"], "M": ["N", "NE", "NW"]}[side]
        for p in prefs:
            if p not in used:
                plans.append(Plan(anchor, edge, p, corner=False))
        if elbow_ok:
            plans.insert(min(1, len(plans)), Plan(anchor, edge, diag, corner=False, style="elbow"))
    else:
        nat = natural_port(g, anchor, edge)
        for p in SLOT_PREFS[side].get(nat, []):
            if p in used:
                continue
            corner = p != nat
            if corner and g.edge_bend_count(edge) > 0:
                continue
            plans.append(Plan(anchor, edge, p, corner=corner))
        if elbow_ok and diag == nat:
            plans.insert(min(1, len(plans)), Plan(anchor, edge, diag, corner=False, style="elbow"))
    if not plans:
        raise OneBendError(
            f"no legal port at {anchor} (side {side}, used {sorted(used)})"
        )
    return plans


# ---------------------------------------------------------------------------
# Stretching
# ---------------------------------------------------------------------------


def _edge_between(plane: PlaneGraph, a: str, b: str) -> str:
    for e in plane.rotation[a]:
        if plane.other_end(e, a) == b:
            return e
    raise OneBendError(f"no planarization edge between {a} and {b}")


def stretch_cut(g: Gamma, left_anchor: str) -> Set[str]:
    """The placed vertices that a stretch just right of left_anchor keeps in
    place; the drawing is not changed.

    The cut graph drops the base edge and every horizontal-bearing edge;
    its components are the cut forest Gamma keeps as edges are drawn, and
    each call starts from a copy of them.  The stationary side is the
    union of the components of the contour prefix ending at left_anchor's
    component (the stretch curve leaves the contour through the gap after
    it).  A split edge absorbs the motion at its first horizontal segment
    running rightward from its stationary end; edges without one are made
    rigid, joining the components of their ends, and the cut is redone.
    Whether an edge has one from a given end is fixed by its shape, so
    Gamma keeps the ends it has none from (`unabsorbing_ends`).  Each round
    makes at least one more edge rigid, and rigid edges are never split, so
    the loop ends with every split edge able to absorb.  Raises
    OneBendError when the right base vertex would stay.

    Such a cut makes a stretch safe: it runs down from the contour gap
    through one rightward horizontal segment of each split edge, and moving
    everything right of it rightward lengthens those segments and
    translates the rest, so the drawing stays simple and every shape stays
    (the shift lemma of de Fraysseix, Pach and Pollack, Combinatorica
    1990).  What the cut decides of that is structural, so no stretch is
    checked: no non-horizontal edge is split, as the cut graph keeps it
    whole; every split edge absorbs the move at a rightward horizontal
    segment, by the rigid-edge loop; a buried component stays only when it
    lies left of everything moving along the contour; and the base edge is
    redrawn.  The full check after the final vertex sweeps every pair.
    """
    # The components and their vertices, from a copy of Gamma's cut forest;
    # rigid edges merge them, relabelling the smaller one into a new list.
    # Whether a buried component lies left of t_lo is kept until t_lo
    # changes or the component merges.
    root, members = g.cut_components()
    t_lo: Optional[int] = None
    left_of: Dict[str, bool] = {}

    def stays_left(r: str) -> bool:
        if r not in left_of:
            left_of[r] = all(g.pos[v].x <= t_lo for v in members[r])
        return left_of[r]

    rigid_if = g.unabsorbing_ends()
    contour = g.contour
    prefix_x = list(itertools.accumulate((g.pos[v].x for v in contour), max))
    while True:
        anchor_root = root[left_anchor]
        ia = max((i for i, v in enumerate(contour) if root[v] == anchor_root), default=0)
        stay = {root[v] for v in contour[: ia + 1]}
        contour_roots = {root[v] for v in contour}
        # Buried components with no contour vertex side geometrically: they
        # stay when they lie left of everything moving along the contour.
        if not contour_roots <= stay:
            if t_lo != prefix_x[ia]:
                t_lo, left_of = prefix_x[ia], {}
            stay |= {r for r in members if r not in contour_roots and stays_left(r)}
        left = {v for r in stay for v in members[r]}
        newly_rigid = [(a, b) for a, b in rigid_if if a in left and b not in left]
        if not newly_rigid:
            break
        for a, b in newly_rigid:
            small, big = root[a], root[b]
            if small == big:
                continue
            if len(members[small]) > len(members[big]):
                small, big = big, small
            for v in members[small]:
                root[v] = big
            members[big] = members[big] + members.pop(small)
            left_of.pop(small, None)
            left_of.pop(big, None)
    if g.v2 in left:
        raise OneBendError("stretch cut would move the right base vertex's side leftward")
    return left


def stretch(g: Gamma, left: Set[str], delta: Coord) -> int:
    """Move every placed vertex outside `left`, a stretch_cut, right by delta.

    delta is exact in g's units.  g is first rescaled so that delta and the
    base edge's new low point lie on its grid.  Edges with no end in `left`
    translate; each split edge is redrawn from its stationary end with its
    first rightward horizontal lengthened; the base edge is drawn anew
    through that low point: v1 lies in every cut's stationary contour
    prefix, and v2 moves by exactly delta; OneBendError for a `left` that
    breaks this.  Every shape is kept, and the drawing stays simple by the
    property of the cut (see stretch_cut).  Returns the amount, an int in
    g's new units.
    """
    if delta <= 0:
        raise ValueError("stretch needs a positive amount")
    if g.v1 not in left or g.v2 in left:
        raise OneBendError("stretch cut must keep v1 and move v2")
    p2 = g.pos[g.v2]
    low = _base_low(g.pos[g.v1], Point(p2.x + delta, p2.y))
    delta, low_x, low_y = g.grid_ints([delta, low.x, low.y])
    pos, edges, base = g.pos, g.plane.edges, g.base_edge
    for v, p in pos.items():
        if v not in left:
            pos[v] = Point(p.x + delta, p.y)
    # Each edge's record goes into its own slot of the flat index, so the
    # edges can be redrawn in any order.
    for e, pts in g.polylines.items():
        a, b = edges[e]
        if (a in left and b in left) or e == base:
            continue
        rec = g._index[e]
        start, shape = rec.start, rec.shape
        if a in left or b in left:
            if start not in left:
                start, pts, shape = g.plane.other_end(e, start), pts[::-1], _reversed_shape(shape)
            k = shape.index(_E)
            pts = pts[: k + 1] + [Point(p.x + delta, p.y) for p in pts[k + 1 :]]
            segs = [prepare(Segment(p, q)) for p, q in zip(pts, pts[1:])]
        else:
            pts = [Point(p.x + delta, p.y) for p in pts]
            segs = [prepare_shifted(s, Segment(p, q), delta)
                    for s, p, q in zip(rec.segs, pts, pts[1:])]
        g.redraw(e, pts, EdgeRecord(segs, shape, start))
    g.draw(base, [pos[g.v1], Point(low_x, low_y), pos[g.v2]])
    return delta


def _base_low(p1: Point, p2: Point) -> Point:
    """Where the SE ray from p1 meets the SW ray from p2."""
    low = line_intersection(p1, DIRS["SE"], p2, DIRS["SW"])
    if low is None:
        raise OneBendError("the base support lines do not meet")
    return low


def _redraw_base(g: Gamma) -> None:
    low = g.on_grid([_base_low(g.pos[g.v1], g.pos[g.v2])])[0]
    g.draw(g.base_edge, [g.pos[g.v1], low, g.pos[g.v2]])


# ---------------------------------------------------------------------------
# Geometry of a step
# ---------------------------------------------------------------------------

# Each connection leaves its anchor on a port line x = a.x + dx * (y - a.y),
# dx in {1, 0, -1}.  Every condition of a step reads these lines through
# _ray_x and _meeting_height, so each is linear in the anchors' x.


def _ray_x(pos: Dict[str, Point], plan: Plan, y: Coord) -> Coord:
    """The x of plan's port line at height y: x = a.x + dx * (y - a.y), a
    its anchor at `pos` and (dx, 1) its port.  Every port points up, so the
    line above the anchor is the ray."""
    a = pos[plan.anchor]
    return a.x + DIRS[plan.port][0] * (y - a.y)


def _meeting_height(pos: Dict[str, Point], pl: Plan, pr: Plan) -> Optional[Coord]:
    """The height where the port lines of pl and pr meet, with the anchors
    at `pos`; None when they are parallel."""
    a, b = pos[pl.anchor], pos[pr.anchor]
    dl, dr = DIRS[pl.port][0], DIRS[pr.port][0]
    if dl == dr:
        return None
    return quotient((b.x - dr * b.y) - (a.x - dl * a.y), dl - dr)


def _apex(pos: Dict[str, Point], pl: Plan, pr: Plan) -> Optional[Point]:
    """Where the rays of pl and pr meet, strictly above both anchors; None
    when they do not."""
    y = _meeting_height(pos, pl, pr)
    if y is None or y <= pos[pl.anchor].y or y <= pos[pr.anchor].y:
        return None
    return Point(_ray_x(pos, pl, y), y)


def _middle_mismatch(pos: Dict[str, Point], pl: Plan, pr: Plan, pm: Plan) -> Optional[Coord]:
    """How far the apex of pl and pr lies right of pm's line, with the
    anchors at `pos`; None when pl and pr have no apex."""
    apex = _apex(pos, pl, pr)
    if apex is None:
        return None
    return apex.x - _ray_x(pos, pm, apex.y)


def _needed_gap(g: Gamma, pl: Plan, pr: Plan, extra: int = 1) -> int:
    """Extra horizontal separation so the port rays meet at least `extra`
    (a length, scaled by g.unit here) above both anchors: how far pl's line
    lies right of pr's at that height.  Only lines that close in going up
    meet above their anchors."""
    if DIRS[pl.port][0] <= DIRS[pr.port][0]:
        raise OneBendError("parallel vertical connection rays cannot meet")
    y = max(g.pos[pl.anchor].y, g.pos[pr.anchor].y) + extra * g.unit
    return _ray_x(g.pos, pl, y) - _ray_x(g.pos, pr, y)


def _arrival_port(pos: Dict[str, Point], plan: Plan, apex: Point) -> str:
    """The port at the new vertex, at apex, of plan's edge: a ray arrives
    through the opposite of its port, and an elbow horizontally."""
    if plan.style == "elbow":
        return "W" if apex.x > pos[plan.anchor].x else "E"
    return OPP[plan.port]


def _blockers(
    g: Gamma,
    new_segments: List[Segment],
    allowed_points: Set[Point],
) -> List[Tuple[str, Segment]]:
    """Drawn segments improperly intersected by the candidate geometry.

    A new segment may meet the drawing only at an end of its own that is
    one of allowed_points (the connection anchors); anything else blocks
    the placement, a ray through another anchor and a new vertex landing
    on an existing point included.  Each blocked segment is reported once,
    in drawing order.
    """
    labels, drawn = g.indexed()
    excused = [{s.a, s.b} & allowed_points for s in new_segments]
    blocked = set()
    for i, j, res in hits_across([prepare(s) for s in new_segments], drawn):
        if res.point not in excused[i]:
            blocked.add(j)
    return [(labels[j], drawn[j][0]) for j in sorted(blocked)]


# ---------------------------------------------------------------------------
# The drawer
# ---------------------------------------------------------------------------


MAX_REPAIRS = 80
# The shift over which _align_middle reads the mismatch's rate of change,
# a length (scaled by Gamma.unit there).
_RATE_SHIFT = 4


class OneBendDrawer:
    def __init__(self, plane: PlaneGraph, delta: CanonicalOrdering, trace: bool = False):
        self.plane = plane
        self.delta = delta
        self.g = Gamma(plane=plane, v1=delta.v1, v2=delta.v2)
        self.steps = 0
        # With `trace`, a copy of every polyline after each step.
        self.trace: Optional[List[Dict[str, List[Point]]]] = [] if trace else None
        # The contour span [lo, hi] the last step replaced, widened by one
        # vertex on each side: what check_step tests.
        self._span: Tuple[int, int] = (0, 0)

    # -- public -------------------------------------------------------------

    def run(self) -> Gamma:
        sets = self.delta.sets
        self._draw_base(sets[1])
        for i in range(2, len(sets) - 1):
            self._add_set(sets[i])
            self._post_step(f"set {i}")
        self._place_final(sets[-1].vertices[0])
        self._post_step("final")
        return self.g

    # -- base ---------------------------------------------------------------

    def _draw_base(self, v2set) -> None:
        # Flat base: the second set sits on the base line between v1 and v2,
        # all connections straight horizontals.  Fragments through a base
        # dummy stay bend-free, so its successor slots keep their corner
        # budget, and the upper ports of v1 and v2 stay untouched.
        g = self.g
        v1, v2 = g.v1, g.v2
        members = v2set.vertices
        l = len(members)
        u = g.unit
        g.pos[v1] = Point(0, 0)
        g.pos[v2] = Point((2 * l + 2) * u, 0)
        _redraw_base(g)
        prev = v1
        for k, z in enumerate(members):
            g.pos[z] = Point((2 * k + 2) * u, 0)
            g.draw(_edge_between(self.plane, prev, z), [g.pos[prev], g.pos[z]])
            prev = z
        g.draw(_edge_between(self.plane, prev, v2), [g.pos[prev], g.pos[v2]])
        g.contour = [v1] + list(members) + [v2]
        self._span = (0, len(g.contour) - 1)
        self._post_step("base")

    # -- generic insertion ----------------------------------------------------

    def _preds_on_contour(self, members: List[str]) -> List[str]:
        """The contour vertices adjacent to a member, in contour order: the
        contour is read against the members' neighbours, off their own
        rotations."""
        edges = self.plane.edges
        near = {w for m in members for e in self.plane.rotation[m] for w in edges[e] if w != m}
        return [v for v in self.g.contour if v in near]

    def _add_set(self, cs) -> None:
        members = list(cs.vertices)
        preds = self._preds_on_contour(members)
        if len(preds) < 2:
            raise OneBendError(f"set {members} has fewer than two contour predecessors")
        u_l, u_r = preds[0], preds[-1]
        middles = preds[1:-1]
        if len(members) == 1:
            self._insert_singleton(members[0], u_l, u_r, middles)
        else:
            if middles:
                raise OneBendError("a chain may only attach at its two end predecessors")
            self._insert_chain(members, u_l, u_r)

    def _insert_singleton(self, v: str, u_l: str, u_r: str, middles: List[str]) -> None:
        g = self.g
        plans_l = connection_plans(g, u_l, "L", self._edge_between_checked(u_l, v))
        plans_r = connection_plans(g, u_r, "R", self._edge_between_checked(u_r, v))
        middle_options = [
            connection_plans(g, w, "M", self._edge_between_checked(w, v)) for w in middles
        ]
        self._place_with_repairs(v, plans_l, plans_r, middle_options)

    def _edge_between_checked(self, anchor: str, v: str) -> str:
        e = _edge_between(self.plane, anchor, v)
        if e in self.g.polylines:
            raise OneBendError(f"edge {e} already drawn")
        return e

    def _place_with_repairs(self, v, plans_l, plans_r, middle_options) -> None:
        last_error = None
        combos = list(itertools.product(*middle_options)) if middle_options else [()]
        for pl in plans_l:
            for pr in plans_r:
                if DIRS[pl.port] == DIRS[pr.port] and "elbow" not in (pl.style, pr.style):
                    continue
                for plans_m in combos:
                    if self._try_place(v, pl, pr, list(plans_m)):
                        return
                    last_error = f"ports {pl.port}/{pr.port} failed"
        raise OneBendError(f"could not place {v}: {last_error}")

    def _defining_pair(self, pl: Plan, pr: Plan, plans_m: List[Plan]):
        """The two plans whose lines fix the new vertex, plus the rest."""
        if pl.style == "ray" and pr.style == "ray":
            return pl, pr, list(plans_m)
        if pl.style == "elbow" and pr.style == "ray":
            if plans_m:
                return plans_m[0], pr, plans_m[1:]
            return None, pr, []
        if pr.style == "elbow" and pl.style == "ray":
            if plans_m:
                return pl, plans_m[0], plans_m[1:]
            return pl, None, []
        return False  # two elbows: unsupported

    def _try_place(self, v, pl: Plan, pr: Plan, plans_m: List[Plan]) -> bool:
        g = self.g
        defined = self._defining_pair(pl, pr, plans_m)
        if defined is False:
            return False
        da, db, rest = defined
        for _ in range(MAX_REPAIRS):
            apex = self._apex_of(da, db)
            if apex is None:
                try:
                    need = _needed_gap(g, da, db) + g.unit
                except OneBendError:
                    return False
                if not self._stretch_between(da.anchor, db.anchor, need):
                    return False
                continue
            # The apex must sit strictly above every middle anchor.
            if any(apex.y <= g.pos[pm.anchor].y for pm in plans_m):
                return False
            # Remaining constrained plans: their lines must pass the apex.
            pm = next((pm for pm in rest if _middle_mismatch(g.pos, da, db, pm)), None)
            if pm is not None:
                if not self._align_middle(da, db, pm):
                    return False
                continue
            if not self._elbows_feasible(apex, [pl, pr]):
                if not self._stretch_between(pl.anchor, pr.anchor, 2 * g.unit):
                    return False
                continue
            # Arrival directions at the new vertex must be distinct ports.
            plans = [pl, pr] + plans_m
            if len({_arrival_port(g.pos, plan, apex) for plan in plans}) < len(plans):
                return False
            # The segment queries run on ints: the apex goes on the grid.
            apex = g.on_grid([apex])[0]
            polys = self._connection_polylines(apex, plans)
            segs = [Segment(p[i], p[i + 1]) for p in polys.values() for i in range(len(p) - 1)]
            allowed = {g.pos[plan.anchor] for plan in plans}
            blockers = _blockers(g, segs, allowed)
            if not blockers:
                self._commit(v, apex, plans)
                return True
            if not self._resolve_blocker(pl, pr, blockers[0], apex):
                return False
        return False

    def _apex_of(self, da: Optional[Plan], db: Optional[Plan]) -> Optional[Point]:
        g = self.g
        if da is not None and db is not None:
            return _apex(g.pos, da, db)
        y = max(p.y for p in g.pos.values()) + g.unit
        return Point(_ray_x(g.pos, da or db, y), y)

    def _elbows_feasible(self, apex: Point, plans: List[Plan]) -> bool:
        """Each elbow's diagonal, NE or NW, bends strictly below the apex and
        short of it, so its horizontal runs toward it."""
        pos = self.g.pos
        for plan in plans:
            if plan.style == "elbow":
                if apex.y <= pos[plan.anchor].y:
                    return False
                if DIRS[plan.port][0] * (apex.x - _ray_x(pos, plan, apex.y)) <= 0:
                    return False
        return True

    # -- stretch drivers ------------------------------------------------------

    def _stretch_between(self, left_v: str, right_v: str, delta: Coord) -> bool:
        """Stretch right of left_v by delta, exact in g's units; fail,
        leaving the drawing as it was, when the cut does not separate
        right_v."""
        if delta <= 0:
            delta = self.g.unit
        try:
            left = stretch_cut(self.g, left_v)
        except OneBendError:
            return False
        if right_v in left:
            return False
        stretch(self.g, left, delta)
        return True

    def _align_middle(self, pl: Plan, pr: Plan, pm: Plan) -> bool:
        """Stretch until the middle plan's line passes through the apex.

        A stretch moves the anchors outside its cut by its amount, and the
        mismatch is affine in the anchor positions, so its value with those
        anchors shifted by _RATE_SHIFT gives the exact amount for each
        candidate cut; a cut that loses the apex within that shift is
        passed over.  Returns False when no rightward cut can fix it.
        """
        g = self.g
        m = _middle_mismatch(g.pos, pl, pr, pm)
        if m is None:
            return False
        if m == 0:
            return True
        shift = _RATE_SHIFT * g.unit
        for cut_anchor, must_move in ((pl.anchor, pm.anchor), (pm.anchor, pr.anchor)):
            try:
                left = stretch_cut(g, cut_anchor)
            except OneBendError:
                continue
            if must_move in left:
                continue
            shifted = {
                w: g.pos[w] if w in left else Point(g.pos[w].x + shift, g.pos[w].y)
                for w in (pl.anchor, pr.anchor, pm.anchor)
            }
            m2 = _middle_mismatch(shifted, pl, pr, pm)
            if m2 is None:
                continue
            rate = Fraction(m2 - m, shift)
            if rate == 0:
                continue
            delta = -m / rate
            if delta <= 0:
                continue
            stretch(g, left, delta)
            return _middle_mismatch(g.pos, pl, pr, pm) == 0
        return False

    def _resolve_blocker(self, pl: Plan, pr: Plan, blocker, apex) -> bool:
        g = self.g
        e, seg = blocker
        a, b = g.plane.edges[e]
        mid_x2 = seg.a.x + seg.b.x  # twice the blocker's middle x
        if mid_x2 <= 2 * apex.x:
            # Blocker under the left ray: push it (and the right part) right.
            amount = _clear_amount(g, pl, seg)
            return self._stretch_between(pl.anchor, a if 2 * g.pos[a].x >= mid_x2 else b, amount)
        # Blocker under the right ray: move the right anchor away while the
        # blocker's whole cluster stays, so cut at its end furthest right on
        # the contour (an end off the contour comes last) rather than
        # dragging it along.
        rank = {v: i for i, v in enumerate(g.contour)}
        cut = max((v for v in (a, b) if v != pr.anchor), key=lambda v: rank.get(v, -1))
        return self._stretch_between(cut, pr.anchor, _clear_amount(g, pr, seg))

    # -- committing a placement ------------------------------------------------

    def _connection_polylines(self, apex: Point, plans: List[Plan]) -> Dict[str, List[Point]]:
        g = self.g
        out = {}
        for plan in plans:
            a = g.pos[plan.anchor]
            if plan.style == "elbow":
                out[plan.edge] = [a, Point(_ray_x(g.pos, plan, apex.y), apex.y), apex]
            else:
                out[plan.edge] = [a, apex]
        return out

    def _commit(self, v, apex: Point, plans: List[Plan]) -> None:
        """Place v at apex, an int point in g's units, and draw its
        connections along plans, the left one first and the right one
        second."""
        g = self.g
        g.pos[v] = apex
        for e, pts in self._connection_polylines(apex, plans).items():
            g.draw(e, pts)
        self._replace_contour(plans[0].anchor, plans[1].anchor, [v])

    def _replace_contour(self, u_l: str, u_r: str, members: List[str]) -> None:
        """Put members on the contour between u_l and u_r in place of what
        lay there, and record the span for check_step: from u_l to u_r."""
        g = self.g
        li = g.contour.index(u_l)
        ri = g.contour.index(u_r)
        g.contour = g.contour[: li + 1] + members + g.contour[ri:]
        self._span = (li, li + len(members) + 1)

    # -- chains -----------------------------------------------------------------

    def _insert_chain(self, members: List[str], u_l: str, u_r: str) -> None:
        g = self.g
        first, last = members[0], members[-1]
        e_l = self._edge_between_checked(u_l, first)
        e_r = self._edge_between_checked(u_r, last)
        # Chains build their own horizontal elbows; only ray plans apply.
        plans_l = [p for p in connection_plans(g, u_l, "L", e_l) if p.style == "ray"]
        plans_r = [p for p in connection_plans(g, u_r, "R", e_r) if p.style == "ray"]
        last_error = None
        for pl in plans_l:
            for pr in plans_r:
                if self._try_place_chain(members, pl, pr):
                    return
                last_error = f"ports {pl.port}/{pr.port}"
        raise OneBendError(f"could not place chain {members}: {last_error}")

    def _chain_elbow_ok(self, plan: Plan, end_vertex: str) -> bool:
        """A horizontal elbow on the end connection keeps the contour
        stretchable; it is legal when the chain end is real and the edge
        still has its whole bend budget."""
        g = self.g
        if g.plane.is_dummy(end_vertex):
            return False
        if plan.corner:
            return False
        return g.edge_bend_count(plan.edge) == 0

    def _chain_baseline(self, pl: Plan, pr: Plan) -> Optional[Fraction]:
        """A height above both anchors for the chain's baseline, exact in
        g's units, such that the two port rays are apart at every height
        from the higher anchor's up to it, so they do not meet; None when
        there is none at the current geometry.

        The gap between the rays is linear in the height, so it is positive
        on that range when it is positive at both ends: it is at y_min, and
        the baseline lies below where the lines meet, if they meet above.
        """
        pos = self.g.pos
        y_min = max(pos[pl.anchor].y, pos[pr.anchor].y)
        half = Fraction(self.g.unit, 2)
        if _ray_x(pos, pr, y_min) <= _ray_x(pos, pl, y_min):
            return None
        root = _meeting_height(pos, pl, pr)
        if root is None or root < y_min:
            return y_min + half
        return y_min + min(half, Fraction(root - y_min, 2))

    def _try_place_chain(self, members: List[str], pl: Plan, pr: Plan) -> bool:
        g = self.g
        l = len(members)
        elbow_l = self._chain_elbow_ok(pl, members[0])
        elbow_r = self._chain_elbow_ok(pr, members[-1])

        def polylines(q1: Point, q2: Point, positions: List[Point]) -> Dict[str, List[Point]]:
            polys: Dict[str, List[Point]] = {}
            if elbow_l:
                polys[pl.edge] = [g.pos[pl.anchor], q1, positions[0]]
            else:
                polys[pl.edge] = [g.pos[pl.anchor], positions[0]]
            if elbow_r:
                polys[pr.edge] = [g.pos[pr.anchor], q2, positions[-1]]
            else:
                polys[pr.edge] = [g.pos[pr.anchor], positions[-1]]
            for k in range(l - 1):
                e = _edge_between(self.plane, members[k], members[k + 1])
                polys[e] = [positions[k], positions[k + 1]]
            return polys

        for _ in range(MAX_REPAIRS):
            y_b = self._chain_baseline(pl, pr)
            if y_b is None:
                try:
                    need = _needed_gap(g, pl, pr, extra=l + 1) + g.unit
                except OneBendError:
                    need = (l + 2) * g.unit
                if not self._stretch_between(pl.anchor, pr.anchor, need):
                    return False
                continue
            q1 = Point(_ray_x(g.pos, pl, y_b), y_b)
            q2 = Point(_ray_x(g.pos, pr, y_b), y_b)
            span = q2.x - q1.x
            x_lo = q1.x + (span / 4 if elbow_l else 0)
            x_hi = q2.x - (span / 4 if elbow_r else 0)
            step = _dyadic_step(x_hi - x_lo, l - 1, g.unit)
            positions = [Point(x_lo + step * k, y_b) for k in range(l - 1)] + [Point(x_hi, y_b)]
            # The segment queries run on ints: the chain goes on the grid.
            q1, q2, *positions = g.on_grid([q1, q2] + positions)
            polys = polylines(q1, q2, positions)
            segs = [Segment(p[i], p[i + 1]) for p in polys.values() for i in range(len(p) - 1)]
            allowed = {g.pos[pl.anchor], g.pos[pr.anchor]}
            blockers = _blockers(g, segs, allowed)
            if blockers:
                mid = Point(quotient(q1.x + q2.x, 2), q1.y)
                if not self._resolve_blocker(pl, pr, blockers[0], mid):
                    return False
                continue
            for k, z in enumerate(members):
                g.pos[z] = positions[k]
            for e, pts in polys.items():
                g.draw(e, pts)
            self._replace_contour(pl.anchor, pr.anchor, members)
            return True
        return False

    # -- the final vertex --------------------------------------------------------

    def _place_final(self, vn: str) -> None:
        if self.plane.is_dummy(vn):
            raise OneBendError(f"the final vertex {vn} is a dummy; no placement is built for it")
        g = self.g
        preds = self._preds_on_contour([vn])
        if preds[0] != g.v1:
            raise OneBendError("the final vertex is not adjacent to the left base vertex")
        if len(preds) != 3:
            raise OneBendError(f"real final vertex with {len(preds)} predecessors")
        self._insert_singleton(vn, preds[0], preds[-1], preds[1:-1])

    # -- checks -----------------------------------------------------------------

    def _post_step(self, label: str) -> None:
        """Check the drawing after a step: in full once every vertex is
        placed, and before that what the step can have broken."""
        g = self.g
        self.steps += 1
        if self.trace is not None:
            self.trace.append({e: list(map(g.unscaled, p)) for e, p in g.polylines.items()})
        if len(g.pos) == len(self.plane.vertices):
            problems = check_gamma(g)
        else:
            problems = check_step(g, self._span)
        if problems:
            raise OneBendError(f"invariants broken after {label}: {problems[:4]}")


def _clear_amount(g: Gamma, plan: Plan, seg: Segment) -> int:
    """Horizontal separation needed for the plan's ray to clear a segment:
    a diagonal ray passes a unit beyond the segment's near end at the
    segment's top."""
    dx = DIRS[plan.port][0]
    if dx == 0:
        return 2 * g.unit
    near = min(seg.a.x, seg.b.x) if dx == 1 else max(seg.a.x, seg.b.x)
    return dx * (_ray_x(g.pos, plan, max(seg.a.y, seg.b.y)) - near) + g.unit


def _dyadic_step(width: Coord, n: int, unit: int) -> Coord:
    """The largest unit * 2**k, k any integer, with n steps within width > 0:
    a chain's members sit that far apart, so that spacing them adds no odd
    factor to the unit."""
    r = Fraction(width, n * unit)
    k = r.numerator.bit_length() - r.denominator.bit_length()  # 2**(k-1) < r < 2**(k+1)
    if r < Fraction(2) ** k:
        k -= 1
    return unit * 2**k if k >= 0 else Fraction(unit, 2**-k)


# ---------------------------------------------------------------------------
# Invariant checker P1 - P6
# ---------------------------------------------------------------------------


def check_gamma(g: Gamma) -> List[str]:
    problems: List[str] = []
    problems.extend(_check_p1(g))
    problems.extend(_check_p2(g))
    problems.extend(_check_p3(g))
    problems.extend(_check_p4(g))
    problems.extend(_check_p5(g))
    problems.extend(_check_p6(g))
    problems.extend(_check_rotations(g))
    problems.extend(_check_simple(g))
    return problems


def check_step(g: Gamma, span: Tuple[int, int]) -> List[str]:
    """P4(a) and P4(b) on the attachable pairs, and P6, after a step: the
    invariants the placement search can break.  They are tested on the
    contour span [lo, hi] the step replaced, widened by one vertex on each
    side, from its left end predecessor to its right one; on the whole
    contour after the base.

    They depend only on the contour order, the segment directions along
    contour paths and the ports at contour vertices.  A stretch changes
    none of these and a step only between its end predecessors, so the
    span holds every change.  The other invariants, P1 to P3, P4(c), P5,
    the rotations and simplicity, the construction keeps at every step,
    and check_gamma tests them once, on the finished drawing.  In place of
    a simplicity sweep per step, a step relies on these:
    - new segments meet the drawing only at their own anchors, which
      _blockers ensures before a placement is committed;
    - new segments meet each other only at the new vertices, because the
      arrival octants at a new vertex are distinct, an elbow bends below
      and before the apex (_elbows_feasible), and a chain lies on its
      baseline, which its two connections rise to without meeting
      (_chain_baseline);
    - stretches keep the drawing simple (see stretch_cut).
    """
    lo, hi = span
    problems, _ = _check_p4_pairs(g, _attachable_pairs(g, lo, hi))
    return problems + _check_p6(g, g.contour[lo : hi + 1])


def _check_rotations(g: Gamma) -> List[str]:
    """Drawn edge ends must respect the input rotation at every vertex."""
    out = []
    for v in sorted(g.pos):
        ports = g.port_dirs(v)
        drawn = sorted(ports, key=lambda e: PORTS.index(ports[e]))
        if cyclic_key(drawn) != cyclic_key([e for e in g.plane.rotation[v] if e in ports]):
            out.append(f"rotation at {v} not preserved")
    return out


def _check_p1(g: Gamma) -> List[str]:
    out = []
    for e in g.drawn_edges():
        for o in g._index[e].shape:
            if o is None:
                out.append(f"P1: segment of {e} off the canonical slopes")
    return out


def _check_p2(g: Gamma) -> List[str]:
    out = []
    seen: Set[str] = set()
    for e in g.drawn_edges():
        orig = g.plane.original_edge_of(e)
        if orig in seen:
            continue
        seen.add(orig)
        bends = g._bends(orig)
        if bends > 1:
            out.append(f"P2: edge {orig} has {bends} bends")
    return out


def _check_p3(g: Gamma) -> List[str]:
    out = []
    base = g.base_edge
    if base not in g.polylines:
        return ["P3: base edge not drawn"]
    pts = g.polylines[base]
    if len(pts) != 3:
        return [f"P3: base edge drawn with {len(pts) - 2} bends"]
    p1, low, p2 = pts
    left_octant, right_octant = g._index[base].shape
    if left_octant not in (_NW, _SE):
        out.append("P3: left base segment not on the SE port slope")
    if right_octant not in (_NE, _SW):
        out.append("P3: right base segment not on the SW port slope")
    all_points = _all_drawing_points(g)
    for q in all_points:
        if q == low:
            continue
        if q.y <= low.y:
            out.append(f"P3: {g.unscaled(q)} not above the base low point")
            break
    for q in all_points:
        if q in (p1, p2, low):
            continue
        if q.y - p1.y == -(q.x - p1.x) or q.y - p2.y == q.x - p2.x:
            out.append(f"P3: {g.unscaled(q)} lies on a base support line")
            break
    return out


def _all_drawing_points(g: Gamma) -> List[Point]:
    pts = list(g.pos.values())
    for e in g.drawn_edges():
        pts.extend(g.polylines[e][1:-1])
    return pts


def _check_p4(g: Gamma) -> List[str]:
    out, cut = _check_p4_pairs(g, _attachable_pairs(g, 0, len(g.contour) - 1))
    return out + _check_p4c(g, cut)


def _attachable_pairs(g: Gamma, lo: int, hi: int) -> List[Tuple[int, int]]:
    """Contour index pairs of consecutive attachable vertices (v1 and v2
    count as attachable) whose contour span meets contour[lo..hi]."""
    contour = g.contour
    last = len(contour) - 1

    def att(i: int) -> bool:
        return contour[i] in (g.v1, g.v2) or g.attachable(contour[i])

    start = lo - 1
    while start > 0 and not att(start):
        start -= 1
    stop = hi + 1
    while stop < last and not att(stop):
        stop += 1
    idx = [i for i in range(max(start, 0), min(stop, last) + 1) if att(i)]
    return list(zip(idx, idx[1:]))


def _check_p4_pairs(g: Gamma, pairs: List[Tuple[int, int]]) -> Tuple[List[str], List[Tuple[int, int]]]:
    """P4(a) and P4(b) on the given attachable pairs, and those of the pairs
    that P4(c) must separate, read off the shapes along each contour path."""
    out = []
    cut = []
    contour = g.contour
    for iu, iv in pairs:
        u, v = contour[iu], contour[iv]
        path = contour[iu : iv + 1]
        shapes = [g.shape_from(_edge_between(g.plane, a, b), a) for a, b in zip(path, path[1:])]
        word = [o for shape in shapes for o in shape]
        # (b) both real attachable: a horizontal segment exists, or nothing
        # on the path could ever block a stretch (no verticals at all).
        if (
            not g.plane.is_dummy(u)
            and not g.plane.is_dummy(v)
            and g.attachable(u)
            and g.attachable(v)
        ):
            if _E not in word and _W not in word and (_N in word or _S in word):
                out.append(f"P4b: no horizontal on the contour between {u} and {v}")
        # (a) upward verticals need an earlier horizontal.  Verticals that
        # are whole connection edges (N-port attachments) are exempt: their
        # clearance is negotiated at placement time, not by stretching.
        plain = [o for shape in shapes if shape not in ((_N,), (_S,)) for o in shape]
        if g.attachable(u) and not _l_used(g, u):
            if not _p4a_ok(plain, _N):
                out.append(f"P4a: vertical before any horizontal between {u} and {v}")
        if g.attachable(v) and not _r_used(g, v):
            if not _p4a_ok(reversed(plain), _S):
                out.append(f"P4a: vertical before any horizontal between {v} and {u} (reverse)")
        # Cuts are needed to push vertical segments out of connection rays,
        # so separability is required exactly where such verticals exist.
        if _N in plain or _S in plain:
            cut.append((iu, iv))
    return out, cut


def _p4a_ok(word: Iterable[Optional[int]], up: int) -> bool:
    """No segment of octant `up`, upward when the word is read in its
    direction of travel, comes before the word's first horizontal."""
    for o in word:
        if o == _E or o == _W:
            return True
        if o == up:
            return False
    return True


def _check_p4c(g: Gamma, cut_pairs: List[Tuple[int, int]]) -> List[str]:
    """P4(c), separation form: the ends of each pair lie in different parts
    after cutting every horizontal-bearing edge."""
    if not cut_pairs:
        return []
    out = []
    for iu, iv in cut_pairs:
        u, v = g.contour[iu], g.contour[iv]
        if g.component(u) == g.component(v):
            out.append(f"P4c: no all-horizontal cut separates {u} from {v}")
    return out


def _l_used(g: Gamma, v: str) -> bool:
    return any(p in ("NE",) for p in g.used_ports(v)) and not g.plane.is_dummy(v)


def _r_used(g: Gamma, v: str) -> bool:
    return any(p in ("NW",) for p in g.used_ports(v)) and not g.plane.is_dummy(v)


def _check_p5(g: Gamma) -> List[str]:
    """P5 at the contour vertices."""
    out = []
    for v in g.contour:
        if g.plane.is_dummy(v) or not g.attachable(v):
            continue
        used = g.used_ports(v)
        bad = used & set(UP_PORTS)
        if bad:
            out.append(f"P5: attachable real {v} has occupied upper ports {sorted(bad)}")
    return out


def _check_p6(g: Gamma, vertices: Optional[List[str]] = None) -> List[str]:
    """P6 at the contour vertices, or at `vertices`, a span of them."""
    out = []
    for v in g.contour if vertices is None else vertices:
        if not g.plane.is_dummy(v) or not g.attachable(v):
            continue
        ports = g.port_dirs(v)
        base_ports = {p for p in ports.values() if p not in UP_PORTS}
        if base_ports not in [set(s) for s in LEGAL_DUMMY_BASES]:
            out.append(f"P6: dummy {v} base ports {sorted(base_ports)} not in the case table")
        if len(ports) + len(g.undrawn_at(v)) != 4:
            out.append(f"P6: dummy {v} port bookkeeping broken")
    return out


def _check_simple(g: Gamma) -> List[str]:
    """Every pair of drawn segments meets only at a common vertex, and no
    two vertices coincide."""
    labels, prepared = g.indexed()
    return _improper_pairs(g, labels, sweep_hits(prepared))


def _improper_pairs(
    g: Gamma, labels: List[str], hits: Iterable[Tuple[int, int, Intersection]]
) -> List[str]:
    """The first improper intersection among `hits`, meetings of segments
    i and j, of the edges labels[i] and labels[j], in sweep order; else
    vertex coincidence."""
    for i, j, res in improper_hits(hits, labels, g.plane.edges, g.pos):
        return [f"simple: {labels[i]} and {labels[j]} intersect improperly ({res.kind.value})"]
    seen_pos: Dict[Tuple[int, int], str] = {}
    for v in sorted(g.pos):
        p = g.pos[v]
        at = (p.x, p.y)
        if at in seen_pos:
            return [f"simple: vertices {seen_pos[at]} and {v} coincide at {g.unscaled(p)}"]
        seen_pos[at] = v
    return []


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def draw_onebend(g: EmbeddedGraph) -> PolylineDrawing:
    """1-bend, 4-slope, embedding-preserving drawing of a 3-connected cubic
    1-plane graph."""
    return _run_pipeline(g)[1]


def _run_pipeline(g: EmbeddedGraph, trace: bool = False) -> Tuple[OneBendDrawer, PolylineDrawing]:
    """Check the input, normalize it, run the drawer along a canonical
    ordering and finalize; the drawer is returned for its step trace, which
    is recorded only with `trace`."""
    adj = g.abstract_adjacency()
    if not is_cubic(adj):
        raise OneBendError("input must be cubic")
    if connectivity(adj) < 3:
        raise OneBendError("input must be 3-connected")
    norm = normalize_embedding(g)
    plane, delta = canonical_order_on_real_edge(norm.plane)
    drawer = OneBendDrawer(plane, delta, trace=trace)
    gamma = drawer.run()
    return drawer, _finalize(norm, plane, gamma)


def _finalize(norm: EmbeddedGraph, plane: PlaneGraph, gamma: Gamma) -> PolylineDrawing:
    """The drawing of gamma over plane, which is norm's valid plane with
    perhaps another outer face: the same edges, so norm's original edges."""
    target = EmbeddedGraph(plane=plane, original=norm.original)
    true = gamma.unscaled
    # Stripping collinear points commutes with the scaling by 1 / unit.
    lines = finished_polylines(target, gamma.polylines, gamma.pos)
    polylines = {e: [true(p) for p in pts] for e, pts in lines.items()}
    positions = {v: true(gamma.pos[v]) for v in target.vertices}
    return PolylineDrawing(graph=target, positions=positions, polylines=polylines)
