from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import slopeforge
from slopeforge import docio, render
from slopeforge.cli import _build_parser, main
from slopeforge.drawing import PolylineDrawing
from slopeforge.families import gen_2reg, gen_crossed_k4, gen_k4_embedded
from slopeforge.geometry import Point
from slopeforge.model import PlaneGraph
from slopeforge.onebend import draw_onebend
from slopeforge.twobend import draw_twobend
from slopeforge.verify import embeddings_equivalent

from adversarial import two_crossing_edges
from builders import point


class TestDocumentRoundTrip:
    def test_graph_round_trip(self):
        g = gen_crossed_k4()
        doc = docio.graph_to_doc(g)
        back = docio.graph_from_doc(doc)
        assert embeddings_equivalent(back, g)

    def test_graph_serialization_is_stable(self):
        g = gen_crossed_k4()
        t1 = docio.dumps(docio.graph_to_doc(g))
        t2 = docio.dumps(docio.graph_to_doc(docio.graph_from_doc(docio.loads(t1))))
        assert t1 == t2

    def test_drawing_round_trip_lossless(self):
        d = draw_onebend(gen_crossed_k4())
        doc = docio.drawing_to_doc(d)
        back = docio.drawing_from_doc(docio.loads(docio.dumps(doc)))
        assert back.positions == d.positions
        assert back.polylines == d.polylines

    def test_strict_mode_rejects_unknown_fields(self):
        doc = docio.graph_to_doc(gen_k4_embedded())
        doc["surprise"] = 1
        with pytest.raises(docio.DocumentError):
            docio.graph_from_doc(doc, strict=True)

    def test_a_load_validates_the_plane_once(self, monkeypatch):
        doc = docio.graph_to_doc(gen_crossed_k4())
        calls = []
        validate = PlaneGraph.validate
        monkeypatch.setattr(PlaneGraph, "validate", lambda plane: calls.append(1) or validate(plane))
        docio.graph_from_doc(doc)
        assert len(calls) == 1

    def test_big_integers_become_strings(self):
        from fractions import Fraction

        assert docio._rat_out(Fraction(2**60, 3)) == [str(2**60), 3]
        assert docio._rat_in([str(2**60), 3]) == Fraction(2**60, 3)


def pair_by_items(v):
    """The per-item pair reader: a list of two ids, each read by _id_in."""
    if not isinstance(v, list) or len(v) != 2:
        raise docio.DocumentError(f"expected a pair of ids, got {v!r}")
    return docio._id_in(v[0]), docio._id_in(v[1])


def outcome(read, v):
    try:
        return "ok", read(v)
    except docio.DocumentError as exc:
        return "error", str(exc)


class TestInlineForms:
    """docio reads and writes the common forms inline; every value gives
    what the per-item readers and writers give."""

    class Tag(str):
        pass

    def test_ids_and_pairs_read_as_the_per_item_readers_do(self):
        tag = self.Tag("t")
        lists = [[], ["a", "b", "c"], ["a", 5], [None], "ab", ("a", "b"), [tag, "b"], {"a": 1}]
        for v in lists:
            got = outcome(docio._ids_in, v)
            assert got == outcome(lambda r: [docio._id_in(e) for e in r], v), v
            assert got[0] == "error" or type(got[1]) is list
        pairs = [["a", "b"], ["a"], ["a", "b", "c"], [1, "b"], ["a", None], ("a", "b"), "ab", [tag, "b"], 5]
        for v in pairs:
            assert outcome(docio._pair_in, v) == outcome(pair_by_items, v), v

    def test_points_write_as_the_per_coordinate_writer_does(self):
        from fractions import Fraction

        big = 2**53 - 1
        values = [0, 1, -1, big, -big, big + 1, -big - 1, 2**60, Fraction(1, 3), Fraction(2**60, 3)]
        for x in values:
            for y in values:
                want = [docio._rat_out(x), docio._rat_out(y)]
                assert docio._point_out(Point(x, y)) == want, (x, y)
        assert docio._point_out(Point(big, 3)) == [[big, 1], [3, 1]]
        assert docio._point_out(Point(big + 1, 3)) == [[str(big + 1), 1], [3, 1]]


class TestRenderBytes:
    """render_svg and render_segments_svg share one writer; their bytes are
    pinned on a 1-bend and a 2-bend drawing."""

    PINNED = {
        "onebend crossedk4": (
            "0210b43cee6a9f3e44096568818b82bbbb857fc0f85a71b986cef82bdfbc9022",
            "d1b4ff734d281cb6d6dfd59079139d897fcd6098f0fd982c7bba372c8719745d",
        ),
        "twobend 2reg3": (
            "de7f462322ec7cbfcf965c9ed7835d51d1ade545795111edadd07fd3c082799e",
            "3cc70cd8a8b1ce1bf06666f2e7a2c95faa6a2ded2df5d5abef3e3220c9b4899b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_bytes_are_pinned(self, name):
        d = draw_onebend(gen_crossed_k4()) if name.startswith("onebend") else draw_twobend(gen_2reg(3))
        digests = tuple(
            hashlib.sha256(svg.encode()).hexdigest()
            for svg in (render.render_svg(d), render.render_segments_svg(d.polylines))
        )
        assert digests == self.PINNED[name]

    def test_nothing_to_draw(self):
        empty = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 100 100"></svg>\n'
        assert render.render_segments_svg({}) == empty


def run_cli(args, stdin_text=""):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        code = main(args)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


class TestCli:
    def test_gen_validate_pipeline(self):
        code, graph_json = run_cli(["gen", "--family", "crossedk4"])
        assert code == 0
        code, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        assert code == 0
        code, report_json = run_cli(["validate", "--profile", "onebend"], drawing_json)
        assert code == 0
        report = json.loads(report_json)
        assert report["passed"] is True
        assert report["max_bends"] <= 1

    def test_twobend_pipeline(self):
        code, graph_json = run_cli(["gen", "--family", "2reg", "--k", "2"])
        assert code == 0
        code, drawing_json = run_cli(["draw", "--mode", "twobend"], graph_json)
        assert code == 0
        code, report_json = run_cli(["validate", "--profile", "twobend"], drawing_json)
        assert code == 0

    def test_draw_rejects_bad_input(self, tmp_path, capsys):
        code, graph_json = run_cli(["gen", "--family", "2reg", "--k", "2"])
        for trace in ([], ["--trace", str(tmp_path / "steps")]):
            code, _ = run_cli(["draw", "--mode", "onebend", *trace], graph_json)
            assert code == 2  # 2-regular input is not cubic
            assert "input must be cubic" in capsys.readouterr().err

    def test_vertex_named_like_a_dummy_validates(self):
        # The crossed K4 with its vertex 1 renamed _x0 and its own dummy
        # renamed _x9: the induced embedding must name its dummy otherwise.
        _, graph_json = run_cli(["gen", "--family", "crossedk4"])
        _, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        names = {"1": "_x0", "_x0": "_x9"}

        def renamed(o):
            if isinstance(o, str):
                return names.get(o, o)
            if isinstance(o, list):
                return [renamed(x) for x in o]
            if isinstance(o, dict):
                return {renamed(k): renamed(v) for k, v in o.items()}
            return o

        doc = renamed(json.loads(drawing_json))
        assert "_x0" in doc["positions"] and "_x9" in doc["graph"]["rotations"]
        code, report_json = run_cli(["validate", "--profile", "onebend"], json.dumps(doc))
        assert code == 0
        report = json.loads(report_json)
        assert report["passed"] and report["embedding_preserved"]

    def test_normalize_command(self):
        code, graph_json = run_cli(["gen", "--family", "crossedk4"])
        code, out = run_cli(["normalize"], graph_json)
        assert code == 0
        docio.graph_from_doc(docio.loads(out))

    def test_normalize_keeps_an_outer_face_when_its_boundary_was_uncrossed(self):
        graph_json = docio.dumps(docio.graph_to_doc(two_crossing_edges()))
        code, out = run_cli(["normalize"], graph_json)
        assert code == 0
        doc = docio.loads(out)
        assert doc["outer_face"] == [["e", "a"], ["e", "b"]]
        assert doc["fragment_map"] == {}

    def test_canon_and_storder(self):
        code, graph_json = run_cli(["gen", "--family", "prism"])
        code, canon_json = run_cli(["canon"], graph_json)
        assert code == 0
        assert json.loads(canon_json)["sets"]
        code, st_json = run_cli(["storder"], graph_json)
        assert code == 0
        sigma = json.loads(st_json)["sigma"]
        assert sorted(sigma.values()) == list(range(1, 7))

    def test_render_svg(self):
        code, graph_json = run_cli(["gen", "--family", "k4"])
        code, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        code, svg = run_cli(["render"], drawing_json)
        assert code == 0
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 4

    def test_validate_failure_exit_code(self):
        code, graph_json = run_cli(["gen", "--family", "crossedk4"])
        code, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        code, report_json = run_cli(["validate", "--profile", "twobend"], drawing_json)
        assert code == 1  # 4 slopes cannot satisfy the orthogonal profile

    def test_seed_determinism(self):
        c1, out1 = run_cli(["--seed", "5", "gen", "--family", "corpus", "--n", "12"])
        c2, out2 = run_cli(["--seed", "5", "gen", "--family", "corpus", "--n", "12"])
        assert out1 == out2 and c1 == 0

    def test_svg_determinism(self):
        _, graph_json = run_cli(["gen", "--family", "prism"])
        _, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        _, svg1 = run_cli(["render"], drawing_json)
        _, svg2 = run_cli(["render"], drawing_json)
        assert svg1 == svg2

    def test_trace_dumps_step_svgs(self, tmp_path):
        _, graph_json = run_cli(["gen", "--family", "crossedk4"])
        trace_dir = tmp_path / "steps"
        code, out = run_cli(["draw", "--mode", "onebend", "--trace", str(trace_dir)], graph_json)
        assert code == 0
        dumped = sorted(trace_dir.glob("step*.svg"))
        assert len(dumped) >= 3
        assert dumped[0].read_text().startswith("<svg")
        # The traced run produces the same drawing as the untraced one.
        _, plain = run_cli(["draw", "--mode", "onebend"], graph_json)
        assert out == plain

    def test_parser_is_reused_without_carrying_options(self, tmp_path):
        """A traced draw, then a plain one, in one process: the parser is
        built once, the plain draw dumps no steps, and both print what a
        fresh process prints."""
        assert _build_parser() is _build_parser()
        _, graph_json = run_cli(["gen", "--family", "crossedk4"])
        traced_dir, fresh_dir = tmp_path / "steps", tmp_path / "fresh-steps"
        traced = run_cli(["draw", "--mode", "onebend", "--trace", str(traced_dir)], graph_json)
        steps = {f.name: f.read_text() for f in traced_dir.iterdir()}
        for f in traced_dir.iterdir():
            f.unlink()
        plain = run_cli(["draw", "--mode", "onebend"], graph_json)
        assert list(traced_dir.iterdir()) == []
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(slopeforge.__file__)))

        def fresh(args):
            proc = subprocess.run([sys.executable, "-m", "slopeforge.cli", *args], env=env,
                                  input=graph_json, capture_output=True, text=True, check=False)
            return proc.returncode, proc.stdout

        assert traced == fresh(["draw", "--mode", "onebend", "--trace", str(fresh_dir)])
        assert steps == {f.name: f.read_text() for f in fresh_dir.iterdir()}
        assert len(steps) >= 3
        assert plain == fresh(["draw", "--mode", "onebend"]) == (0, traced[1])

    def test_one_vertex_graph(self):
        graph = {"version": 1, "vertices": [{"id": "a", "real": True}], "edges": [],
                 "rotations": {"a": []}, "fragment_map": {}, "outer_face": []}
        code, drawing_json = run_cli(["draw", "--mode", "twobend"], json.dumps(graph))
        assert code == 0
        assert json.loads(drawing_json)["positions"] == {"a": [[0, 1], [0, 1]]}
        code, report_json = run_cli(["validate", "--profile", "twobend"], drawing_json)
        assert code == 0
        assert json.loads(report_json)["passed"] is True
        code, svg = run_cli(["render"], drawing_json)
        assert code == 0 and svg.startswith("<svg")

    def test_empty_graph(self):
        """The empty graph draws as the empty 2-bend drawing, which every
        profile validates and which renders."""
        graph = {"version": 1, "vertices": [], "edges": [], "rotations": {}}
        code, drawing_json = run_cli(["draw", "--mode", "twobend"], json.dumps(graph))
        assert code == 0
        doc = json.loads(drawing_json)
        assert (doc["positions"], doc["polylines"], doc["graph"]["vertices"]) == ({}, {}, [])
        for profile in ("onebend", "twobend", "straight"):
            code, report_json = run_cli(["validate", "--profile", profile], drawing_json)
            assert (code, json.loads(report_json)["passed"]) == (0, True)
        code, svg = run_cli(["render"], drawing_json)
        assert code == 0 and svg.startswith("<svg")

    @pytest.mark.parametrize("vertices", ["", "a"])
    def test_storder_on_fewer_than_two_vertices_exits_2(self, capsys, vertices):
        graph = {"version": 1, "vertices": [{"id": v, "real": True} for v in vertices],
                 "edges": [], "rotations": {v: [] for v in vertices}}
        code, out = run_cli(["storder"], json.dumps(graph))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: s, t must be distinct vertices of the graph\n"

    @pytest.mark.parametrize("profile", ["onebend", "twobend", "straight"])
    def test_validate_with_an_isolated_lowest_vertex(self, profile):
        # c lies below the edge a-b and has no edge of its own.
        graph = {"version": 1, "edges": [{"id": "e", "endpoints": ["a", "b"]}],
                 "vertices": [{"id": v, "real": True} for v in "abc"],
                 "rotations": {"a": ["e"], "b": ["e"], "c": []}, "fragment_map": {},
                 "outer_face": [["e", "a"], ["e", "b"]]}
        pos = {"a": point(0, 1), "b": point(2, 1), "c": point(1, 0)}
        d = PolylineDrawing(docio.graph_from_doc(graph), pos, {"e": [pos["a"], pos["b"]]})
        code, report_json = run_cli(["validate", "--profile", profile], docio.dumps(docio.drawing_to_doc(d)))
        report = json.loads(report_json)
        assert (code, report["passed"], report["embedding_preserved"]) == (0, True, True), report

    @pytest.mark.parametrize("command", [["validate", "--profile", "onebend"], ["render"]])
    @pytest.mark.parametrize("where", ["position", "polyline"])
    def test_zero_denominator_exits_2(self, capsys, command, where):
        _, graph_json = run_cli(["gen", "--family", "k4"])
        _, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        doc = json.loads(drawing_json)
        if where == "position":
            doc["positions"][sorted(doc["positions"])[0]][0] = [1, 0]
        else:
            doc["polylines"][sorted(doc["polylines"])[0]][0][1] = [1, 0]
        code, out = run_cli(command, json.dumps(doc))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: zero denominator in [1, 0]\n"

    @pytest.mark.parametrize("command", [["validate", "--profile", "onebend"], ["render"]])
    def test_entries_the_graph_lacks_exit_2(self, tmp_path, capsys, command):
        """K4's drawing with a position of no vertex and a polyline of no
        edge: validate and render both exit 2 with the structural message,
        and render writes no SVG."""
        _, graph_json = run_cli(["gen", "--family", "k4"])
        _, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        doc = json.loads(drawing_json)
        far = [[99, 1], [99, 1]]
        doc["positions"]["zz"] = far
        doc["polylines"]["qq"] = [doc["positions"]["a"], far]
        out_path = tmp_path / "out"
        code, out = run_cli([*command, "--out", str(out_path)], json.dumps(doc))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: polyline of unknown edge qq; position of unknown vertex zz\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", [
        ["draw", "--mode", "onebend"],
        ["validate", "--profile", "onebend"],
        ["render"],
        ["normalize"],
    ])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.json"
        code, out = run_cli([*command, "--in", str(missing)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"

    @pytest.mark.parametrize("command", [
        ["gen", "--family", "k4"],
        ["draw", "--mode", "onebend"],
        ["render"],
    ])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        _, graph_json = run_cli(["gen", "--family", "k4"])
        _, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        stdin_text = drawing_json if command[0] == "render" else graph_json
        out_path = tmp_path / "no" / "such" / "dir" / "out.json"
        code, out = run_cli([*command, "--out", str(out_path)], stdin_text)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: cannot write {out_path}: No such file or directory\n"
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("mode, family", [("onebend", "k4"), ("twobend", "2reg")])
    def test_trace_dir_that_cannot_be_made_exits_2(self, tmp_path, capsys, mode, family):
        _, graph_json = run_cli(["gen", "--family", family])
        blocker = tmp_path / "some_file"
        blocker.write_text("")
        trace_dir = blocker / "x"
        code, out = run_cli(["draw", "--mode", mode, "--trace", str(trace_dir)], graph_json)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: cannot write {trace_dir}: Not a directory\n"

    @pytest.mark.parametrize("mode, family, blocked", [
        ("onebend", "k4", "step000.svg"),
        ("twobend", "2reg", "final.svg"),
    ])
    def test_trace_file_that_cannot_be_written_exits_2(self, tmp_path, capsys, mode, family, blocked):
        _, graph_json = run_cli(["gen", "--family", family])
        (tmp_path / blocked).mkdir()
        code, out = run_cli(["draw", "--mode", mode, "--trace", str(tmp_path)], graph_json)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: cannot write {tmp_path / blocked}: Is a directory\n"

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_corpus_count_below_1_exits_2(self, tmp_path, capsys, count):
        out_path = tmp_path / "corpus.json"
        code, out = run_cli(["gen", "--family", "corpus", "--count", count, "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: count must be >= 1\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("profile", ["cubic3con", "subcubic"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_corpus_n_below_1_exits_2(self, tmp_path, capsys, profile, n):
        out_path = tmp_path / "corpus.json"
        code, out = run_cli(["gen", "--family", "corpus", "--profile", profile, "--n", n,
                             "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: n_target must be >= 1\n"
        assert not out_path.exists()


    @pytest.mark.parametrize("command", [
        ["draw", "--mode", "onebend"],
        ["draw", "--mode", "twobend"],
        ["normalize"],
        ["validate", "--profile", "onebend"],
    ])
    def test_fragments_that_are_no_edges_of_the_plane_exit_2(self, capsys, command):
        _, graph_json = run_cli(["gen", "--family", "k4"])
        _, drawing_json = run_cli(["draw", "--mode", "onebend"], graph_json)
        doc = json.loads(drawing_json if command[0] == "validate" else graph_json)
        graph = doc["graph"] if command[0] == "validate" else doc
        graph["fragment_map"] = {"_xZ": [["bogus1", "ab"], ["bogus2", "ab"]]}
        code, out = run_cli(command, json.dumps(doc))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            "error: fragment bogus1 is not an edge with exactly one dummy end\n"

    @pytest.mark.parametrize("darts", ["a face less a dart", "a face and a foreign dart", "darts of two faces"])
    def test_an_outer_face_that_is_no_face_exits_2(self, capsys, darts):
        """The reader checks the whole outer_face list against the face
        traced from its first dart, and keeps only that dart."""
        _, graph_json = run_cli(["gen", "--family", "k4"])
        doc = json.loads(graph_json)
        plane = docio.graph_from_doc(doc).plane
        outer = [list(d) for d in plane.outer_face().darts]
        other = [list(d) for d in next(f.darts for f in plane.faces() if list(f.darts[0]) not in outer)]
        doc["outer_face"] = {
            "a face less a dart": outer[:-1],
            "a face and a foreign dart": outer + other[:1],
            "darts of two faces": outer[:2] + other[:2],
        }[darts]
        code, out = run_cli(["draw", "--mode", "onebend"], json.dumps(doc))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: outer_face does not describe a face of the rotation system\n"


# (command, family, path, value): the document is the family's graph for
# "draw" and its 1-bend drawing otherwise, with doc[path[0]]...[path[-1]]
# set to value, or deleted when value is None.
MALFORMED = {
    "outer-face-unknown-edge": ("draw", "k4", ["outer_face", 0, 0], "nope"),
    "outer-face-tail-not-an-endpoint": ("draw", "k4", ["outer_face", 0, 1], "d"),
    "outer-face-entry-an-int": ("draw", "k4", ["outer_face", 0], 3),
    "fragment-map-entry-not-a-pair": ("draw", "crossedk4", ["fragment_map", "_x0", 0], 5),
    "fragment-map-not-an-object": ("draw", "crossedk4", ["fragment_map"], []),
    "rotations-not-an-object": ("draw", "k4", ["rotations"], []),
    "vertex-id-a-list": ("draw", "k4", ["vertices", 0, "id"], ["a"]),
    "validate-no-graph": ("validate", "k4", ["graph"], None),
    "validate-no-positions": ("validate", "k4", ["positions"], None),
    "validate-position-not-a-pair": ("validate", "k4", ["positions", "a"], [[1, 1]]),
    "validate-polyline-of-unknown-edge": ("validate", "k4", ["polylines", "zz"],
                                          [[[0, 1], [0, 1]], [[1, 1], [0, 1]]]),
    "render-no-graph": ("render", "k4", ["graph"], None),
    "render-no-positions": ("render", "k4", ["positions"], None),
    "render-position-not-a-pair": ("render", "k4", ["positions", "a"], 7),
}

COMMANDS = {"draw": ["draw", "--mode", "onebend"], "validate": ["validate", "--profile", "onebend"],
            "render": ["render"]}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_document_exits_2(capsys, case):
    command, family, path, value = MALFORMED[case]
    _, text = run_cli(["gen", "--family", family])
    if command != "draw":
        _, text = run_cli(["draw", "--mode", "onebend"], text)
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    code, out = run_cli(COMMANDS[command], json.dumps(doc))
    err = capsys.readouterr().err
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _node_paths(node, path=()):
    """The path of every node under node, node itself excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _names(node):
    """Every string in node, dict keys included."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, list):
        for child in node:
            yield from _names(child)
    elif isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _names(child)


# Values a retyped node takes: one of another type than it had.
RETYPED = [None, True, 0, -1, 2.5, "x", [], {}]
MUTATIONS = ("delete", "retype", "duplicate", "swap", "rename")


def mutated(doc, rng):
    """A copy of doc with one node deleted, retyped, duplicated, swapped
    with a sibling or renamed to another name in doc, and what was done."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_node_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    other = rng.choice(list(parent) if isinstance(parent, dict) else range(len(parent)))
    name = rng.choice(sorted(set(_names(doc))) + ["zz"])
    kind = rng.choice(MUTATIONS)
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        parent[key] = rng.choice([v for v in RETYPED if type(v) is not type(parent[key])])
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif kind == "duplicate":
        parent[name] = copy.deepcopy(parent[key])
    elif kind == "swap":
        parent[key], parent[other] = parent[other], parent[key]
    elif isinstance(parent, dict):
        parent[name] = parent.pop(key)
    else:
        parent[key] = name
    return doc, f"{kind} {list(path)}"


class TestMutationFuzz:
    """Seeded one-node mutations of graph and drawing documents keep the
    exit-code contract: 0, 1 or 2, no exception, an error line on 2."""

    GRAPHS = [(["gen", "--family", "k4"], "onebend"), (["gen", "--family", "crossedk4"], "onebend"),
              (["gen", "--family", "prism"], "onebend"), (["gen", "--family", "2reg", "--k", "2"], "twobend")]

    @staticmethod
    def _run(args, text, capsys, what):
        try:
            code, out = run_cli(args, text)
        except Exception as exc:
            pytest.fail(f"{what}: {args[0]} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (what, args)
        assert code != 2 or (err.startswith("error: ") and err.count("\n") == 1), (what, args, err)
        return code, out

    def test_300_mutations_exit_0_1_or_2_and_every_drawing_validates(self, capsys):
        sources = []
        for gen, mode in self.GRAPHS:
            _, graph = run_cli(gen)
            _, drawing = run_cli(["draw", "--mode", mode], graph)
            sources += [("graph", mode, json.loads(graph)), ("drawing", mode, json.loads(drawing))]
        rng = random.Random(41)
        codes, drawn = [], 0
        for i in range(300):
            role, mode, doc = sources[i % len(sources)]
            doc, what = mutated(doc, rng)
            text = json.dumps(doc)
            if role == "drawing":
                codes.append(self._run(["validate", "--profile", mode], text, capsys, what)[0])
                codes.append(self._run(["render"], text, capsys, what)[0])
                continue
            for command in (["normalize"], ["canon"], ["storder"]):
                codes.append(self._run(command, text, capsys, what)[0])
            code, drawing = self._run(["draw", "--mode", mode], text, capsys, what)
            codes.append(code)
            if code == 0:
                drawn += 1
                report = self._run(["validate", "--profile", mode], drawing, capsys, what)
                assert report[0] == 0 and json.loads(report[1])["passed"], what
        assert drawn >= 20 and {0, 2} <= set(codes)
