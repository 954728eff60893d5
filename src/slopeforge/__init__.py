"""1-planar polyline drawings with few slopes and large resolution.

Drawers:
    draw_onebend -- 1 bend per edge, 4 slopes, resolution pi/4, for
                    3-connected cubic 1-plane graphs (embedding-preserving).
    draw_twobend -- 2 bends per edge, 2 slopes, right-angle crossings, for
                    subcubic 1-plane graphs.

Supporting machinery: embedding normalization (no dummy cutvertices),
canonical and st-orderings, lower-bound family generators, and an exact
rational validator.
"""

from .drawing import PolylineDrawing
from .model import EmbeddedGraph, PlaneGraph, connectivity, find_real_real_face
from .onebend import OneBendError, draw_onebend
from .ordering import canonical_order, st_order
from .reembed import normalize_embedding
from .twobend import TwoBendError, draw_twobend
from .verify import ValidationReport, embedding_of, validate

__all__ = [
    "PolylineDrawing",
    "EmbeddedGraph",
    "PlaneGraph",
    "connectivity",
    "find_real_real_face",
    "draw_onebend",
    "draw_twobend",
    "OneBendError",
    "TwoBendError",
    "canonical_order",
    "st_order",
    "normalize_embedding",
    "ValidationReport",
    "embedding_of",
    "validate",
]
