"""Input builders that only the tests use."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from slopeforge.families import gen_corpus
from slopeforge.geometry import Point
from slopeforge.model import Dart, EmbeddedGraph, PlaneGraph


RatLike = Union[int, str, Fraction]


def rat(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def point(x: RatLike, y: RatLike) -> Point:
    """A point with Fraction coordinates."""
    return Point(rat(x), rat(y))


def shifted(p: Point, dx: RatLike, dy: RatLike = 0) -> Point:
    return Point(p.x + rat(dx), p.y + rat(dy))


def build_plane_graph(
    real_vertices: Iterable[str],
    dummy_vertices: Iterable[str],
    edges: Dict[str, Tuple[str, str]],
    rotation: Dict[str, Sequence[str]],
    fragment_of: Dict[str, str],
    outer_dart: Optional[Dart] = None,
) -> PlaneGraph:
    """A validated plane graph from its parts, its outer face the one to
    the left of outer_dart when one is given."""
    reals = list(real_vertices)
    dummies = list(dummy_vertices)
    g = PlaneGraph(
        vertices=reals + dummies,
        real=set(reals),
        edges=dict(edges),
        rotation={v: list(r) for v, r in rotation.items()},
        fragment_of=dict(fragment_of),
    )
    g.outer = outer_dart
    g.validate()
    return g


def gen_fig_like() -> EmbeddedGraph:
    """A 10-vertex 3-connected cubic 1-plane graph with one crossing.

    Stands in for the small worked example: a prism expanded by one
    crossing gadget, deterministic.
    """
    return gen_corpus(seed=7, n_target=10, profile="cubic3con", count=1)[0]


def chain_edges_3reg18() -> List[Tuple[str, str]]:
    """The 18 chain edges of families.gen_3reg18, in increasing-slope order
    per gadget."""
    out = []
    for i in range(1, 4):
        nxt = i % 3 + 1
        out.extend(
            [
                (f"a{i}", f"b{i}"),
                (f"a{i}", f"c{i}"),
                (f"c{i}", f"d{i}"),
                (f"c{i}", f"e{i}"),
                (f"e{i}", f"d{i}"),
                (f"e{i}", f"a{nxt}"),
            ]
        )
    return out
