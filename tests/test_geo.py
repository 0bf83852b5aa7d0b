import io
import json
import re

import pytest

from hexmob.geo import export_geojson, load_boundaries, validate_geojson, write_geojson
from hexmob.ingest import IngestError
from hexmob.synth import make_boundaries

from conftest import H1, H2, H3


def write_boundary_csv(path, rows, header="hex,ring"):
    lines = [header] + [f"{h},{ring}" for h, ring in rows]
    path.write_text("\n".join(lines) + "\n")


TRIANGLE = "0.0 51.5;0.01 51.5;0.005 51.51"
SQUARE = "-0.1 51.4;-0.09 51.4;-0.09 51.41;-0.1 51.41"


class TestLoadBoundaries:
    def test_two_rings(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, TRIANGLE), (H2, SQUARE)])
        rings = load_boundaries(p)
        assert set(rings) == {H1, H2}
        assert rings[H1][0] == (0.0, 51.5)
        assert len(rings[H2]) == 4

    def test_bad_header(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, TRIANGLE)], header="hex,boundary")
        with pytest.raises(IngestError, match="line 1"):
            load_boundaries(p)

    def test_bad_hex_names_line(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, TRIANGLE), ("nope", TRIANGLE)])
        with pytest.raises(IngestError, match="line 3.*malformed hex"):
            load_boundaries(p)

    def test_bad_point(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, "0.0 51.5;x y;0.005 51.51")])
        with pytest.raises(IngestError, match="bad ring point"):
            load_boundaries(p)

    def test_too_few_points(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, "0.0 51.5;0.01 51.5")])
        with pytest.raises(IngestError, match="at least 3"):
            load_boundaries(p)

    @pytest.mark.parametrize("coord", ["1_0", "nan", "inf", "+1", " 0x1"])
    def test_coordinate_not_a_plain_decimal_names_line(self, tmp_path, coord):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, TRIANGLE), (H2, f"0 0;1 {coord};0 1")])
        with pytest.raises(IngestError, match=r"^line 3: bad ring point '1 "):
            load_boundaries(p)

    @pytest.mark.parametrize("point", ["500 1", "-180.5 0", "0 90.01", "0 -91"])
    def test_coordinate_out_of_range_names_line(self, tmp_path, point):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, f"{point};1 0;0 1")])
        with pytest.raises(IngestError, match=rf"^line 2: ring point '{point}' out of range"):
            load_boundaries(p)

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x1c"])
    def test_pair_split_at_other_whitespace_names_line(self, tmp_path, space):
        # NO-BREAK SPACE, EM SPACE, FILE SEPARATOR: str.split() splits at each
        p = tmp_path / "b.csv"
        pair = f"1{space}0"
        p.write_text(f"hex,ring\n{H1},{TRIANGLE}\n{H2},0 0;{pair};0 1\n", encoding="utf-8")
        with pytest.raises(IngestError, match=rf"^line 3: bad ring point {re.escape(repr(pair))}$"):
            load_boundaries(p)

    @pytest.mark.parametrize("pair", ["1\t0", "1   0", " \t1 \t 0\t"])
    def test_pair_split_at_ascii_whitespace_loads(self, tmp_path, pair):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, f"0 0;{pair};0 1")])
        assert load_boundaries(p)[H1] == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def test_extreme_coordinates_load(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, "-180 -90;180 -90;180 90;-1.5e2 9e1")])
        assert load_boundaries(p)[H1][-1] == (-150.0, 90.0)

    @pytest.mark.parametrize("ring", ["0 0;1 0;0 0", "0 0;1 0;1 0;0 0;1 0", "0 0;-0 0;1 1"])
    def test_ring_needs_three_distinct_points(self, tmp_path, ring):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, TRIANGLE), (H2, ring)])
        with pytest.raises(IngestError, match=r"^line 3: ring needs at least 3 distinct points$"):
            load_boundaries(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            load_boundaries(tmp_path / "absent.csv")

    def test_quoted_ring_spanning_lines_rejected(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text(f'hex,ring\n{H1},"0 0;1 0;\n1 1"\nzzz,{TRIANGLE}\n')
        with pytest.raises(IngestError, match=r"""^line 2: bad ring point '"0 0': bad value '"0', not a plain decimal$"""):
            load_boundaries(p)

    def test_non_utf8_byte_names_line(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_bytes(b"hex,ring\n\xff\n")
        with pytest.raises(IngestError, match=r"^line 2: not UTF-8: byte 0xff"):
            load_boundaries(p)

    def test_repeated_hex_names_both_lines(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, TRIANGLE), (H2, SQUARE), (H1, SQUARE)])
        with pytest.raises(IngestError, match=rf"^line 4: hex {H1} repeated, first at line 2$"):
            load_boundaries(p)


class TestExport:
    def boundaries(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, TRIANGLE), (H2, SQUARE), (H3, TRIANGLE)])
        return load_boundaries(p)

    def test_one_feature_per_resolved_hex(self, tmp_path):
        doc, missing = export_geojson({H1: 3.0, H2: -1.5, H3: 0.0}, self.boundaries(tmp_path))
        assert missing == 0
        assert [f["properties"]["hex"] for f in doc["features"]] == sorted([H1, H2, H3])
        assert validate_geojson(doc) == []

    def test_rings_closed(self, tmp_path):
        doc, _ = export_geojson({H1: 1.0}, self.boundaries(tmp_path))
        ring = doc["features"][0]["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
        assert len(ring) == 4  # triangle plus the closing repeat

    def test_missing_boundary_counted_not_fatal(self, tmp_path):
        layer = {H1: 1.0, "f" * 15: 2.0, "e" * 15: 3.0}
        doc, missing = export_geojson(layer, self.boundaries(tmp_path))
        assert missing == 2
        assert len(doc["features"]) == 1

    def test_empty_layer(self, tmp_path):
        doc, missing = export_geojson({}, self.boundaries(tmp_path))
        assert doc == {"type": "FeatureCollection", "features": []}
        assert missing == 0
        assert validate_geojson(doc) == []

    def test_negative_zero_scrubbed(self, tmp_path):
        doc, _ = export_geojson({H1: -0.0}, self.boundaries(tmp_path))
        assert json.dumps(doc["features"][0]["properties"]["value"]) == "0.0"

    def test_write_byte_stable(self, tmp_path):
        doc, _ = export_geojson({H1: 2.5, H2: 1.0}, self.boundaries(tmp_path))
        a, b = io.StringIO(), io.StringIO()
        write_geojson(doc, a)
        write_geojson(json.loads(a.getvalue()), b)
        assert a.getvalue() == b.getvalue()

    def test_write_refuses_non_finite(self, tmp_path):
        doc, _ = export_geojson({H1: float("nan")}, self.boundaries(tmp_path))
        out = io.StringIO()
        with pytest.raises(ValueError):
            write_geojson(doc, out)
        assert out.getvalue() == ""

    def test_counterclockwise_ring_kept(self, tmp_path):
        doc, _ = export_geojson({H2: 1.0}, self.boundaries(tmp_path))
        ring = doc["features"][0]["geometry"]["coordinates"][0]
        assert ring == [[-0.1, 51.4], [-0.09, 51.4], [-0.09, 51.41], [-0.1, 51.41], [-0.1, 51.4]]

    def test_clockwise_ring_reversed(self, tmp_path):
        p = tmp_path / "b.csv"
        write_boundary_csv(p, [(H1, ";".join(reversed(SQUARE.split(";"))))])
        doc, _ = export_geojson({H1: 1.0}, load_boundaries(p))
        ring = doc["features"][0]["geometry"]["coordinates"][0]
        assert ring == [[-0.1, 51.41], [-0.1, 51.4], [-0.09, 51.4], [-0.09, 51.41], [-0.1, 51.41]]
        assert validate_geojson(doc) == []

    def test_synth_boundaries_export_clean(self):
        hexes = [f"{i:015x}" for i in range(5)]
        rings = {
            h: [tuple(map(float, p.split())) for p in ring.split(";")]
            for h, ring in make_boundaries(hexes).items()
        }
        doc, missing = export_geojson({h: float(i) for i, h in enumerate(hexes)}, rings)
        assert missing == 0
        assert validate_geojson(doc) == []
        assert len(doc["features"]) == 5


class TestValidator:
    def good(self):
        return export_geojson({H1: 1.0}, {H1: [(0.0, 51.5), (0.01, 51.5), (0.005, 51.51)]})[0]

    def test_root_type(self):
        assert validate_geojson({"type": "Banana"}) == ["root is not a FeatureCollection"]
        assert validate_geojson([1, 2]) == ["root is not a FeatureCollection"]

    def test_features_list(self):
        assert validate_geojson({"type": "FeatureCollection", "features": "x"}) == [
            "features is not a list"
        ]

    def test_open_ring_caught(self):
        square = {H1: [(0.0, 51.4), (0.01, 51.4), (0.01, 51.41), (0.0, 51.41)]}
        doc = export_geojson({H1: 1.0}, square)[0]
        doc["features"][0]["geometry"]["coordinates"][0].pop()
        assert any("not closed" in p for p in validate_geojson(doc))

    def test_short_ring_caught(self):
        doc = self.good()
        doc["features"][0]["geometry"]["coordinates"][0] = [[0, 51], [1, 51], [0, 51]]
        assert any("fewer than 4" in p for p in validate_geojson(doc))

    def test_out_of_range_position(self):
        doc = self.good()
        doc["features"][0]["geometry"]["coordinates"][0][1] = [200.0, 51.5]
        assert any("out-of-range" in p for p in validate_geojson(doc))

    def test_non_numeric_position(self):
        doc = self.good()
        doc["features"][0]["geometry"]["coordinates"][0][1] = ["x", 51.5]
        assert any("bad position" in p for p in validate_geojson(doc))

    def test_clockwise_exterior_ring_caught(self):
        doc = self.good()
        doc["features"][0]["geometry"]["coordinates"][0].reverse()
        assert validate_geojson(doc) == ["feature 0 ring 0: exterior ring is clockwise"]

    @pytest.mark.parametrize("edit, problem", [
        (lambda f: f.update(type="Point"), "feature 0: not a Feature"),
        (lambda f: f.update(properties=[]), "feature 0: properties not an object"),
        (lambda f: f["geometry"].pop("coordinates"), "feature 0: coordinates missing"),
    ], ids=["not a Feature", "properties", "coordinates"])
    def test_feature_fault_named(self, edit, problem):
        doc = self.good()
        edit(doc["features"][0])
        assert validate_geojson(doc) == [problem]

    def test_wrong_geometry_type(self):
        doc = self.good()
        doc["features"][0]["geometry"]["type"] = "Point"
        assert any("not a Polygon" in p for p in validate_geojson(doc))

    def test_boolean_coordinates_caught(self):
        # JSON true/false are not numbers (RFC 7946 section 3.1.1), though a bool is an int
        doc = self.good()
        ring = json.loads("[[true, false], [1, 0], [1, 1], [true, false]]")
        doc["features"][0]["geometry"]["coordinates"][0] = ring
        assert validate_geojson(doc) == ["feature 0 ring 0: bad position [True, False]"]
