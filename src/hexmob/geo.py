"""Hexagon boundary lookup and GeoJSON layer export.

Geometry is supplied externally as a `hex,ring` CSV (ring = semicolon-joined
`lon lat` pairs); nothing here computes hex grids. It and `hex,NAME` layers
are read under the OD file grammar. Exported layers are FeatureCollections
of closed, counterclockwise Polygons with {hex, value} properties, written
deterministically so identical layers produce identical bytes.
"""

from __future__ import annotations

import json

from .ingest import IngestError, _read_rows
from .model import is_hex_id, parse_decimal, words


def load_boundaries(path) -> dict:
    """Parse `hex,ring` CSV into hex -> [(lon, lat), ...]; whole-file reject.
    Coordinates are plain decimals (model.parse_decimal) within lon [-180,
    180] and lat [-90, 90], and a ring needs 3 distinct points."""
    return _hex_map(path, "hex,ring", _ring)


def load_layer(path) -> dict:
    """Parse a `hex,NAME` layer CSV, such as `hex,diff`, into hex -> value,
    each value a plain decimal (model.parse_decimal); whole-file reject."""
    return _hex_map(path, "hex,*", parse_decimal)


def _ring(text: str) -> list:
    """The (lon, lat) points of a ring field, each pair two words
    (model.words); ValueError naming a bad one."""
    pts = []
    for pair in text.split(";"):
        parts = words(pair)
        if len(parts) != 2:
            raise ValueError(f"bad ring point {pair!r}")
        try:
            lon, lat = parse_decimal(parts[0]), parse_decimal(parts[1])
        except ValueError as e:
            raise ValueError(f"bad ring point {pair!r}: {e}") from None
        if not (-180 <= lon <= 180 and -90 <= lat <= 90):
            raise ValueError(
                f"ring point {pair!r} out of range: lon must be in [-180, 180], lat in [-90, 90]"
            )
        pts.append((lon, lat))
    if len(set(pts)) < 3:
        raise ValueError("ring needs at least 3 distinct points")
    return pts


def _hex_map(path, header: str, parse) -> dict:
    """hex -> parse(second field) of a two-field CSV under the OD file
    grammar (ingest._read_rows). A malformed hex id, a hex given twice (both
    lines named) or a value parse rejects is an IngestError at its line."""
    data, start, end, line = _read_rows(path, header)
    out: dict = {}
    first_line: dict = {}
    for s, e, n in zip(start.tolist(), end.tolist(), line.tolist()):
        fields = data[s:e].decode("utf-8").split(",")
        if len(fields) != 2:
            raise IngestError(f"expected 2 fields, got {len(fields)}", line=n)
        h, value = fields
        if not is_hex_id(h):
            raise IngestError(f"malformed hex id: {h!r}", line=n)
        seen = first_line.setdefault(h, n)
        if seen != n:
            raise IngestError(f"hex {h} repeated, first at line {seen}", line=n)
        try:
            out[h] = parse(value)
        except ValueError as e:
            raise IngestError(str(e), line=n) from None
    return out


def _clean(value: float) -> float:
    value = float(value)
    if value == 0:
        return 0.0
    return value


def export_geojson(layer: dict, boundaries: dict) -> tuple[dict, int]:
    """Build a FeatureCollection for a hex -> value layer.

    Hexes without a boundary are skipped; the second return value is how many
    were skipped. Rings are closed (first point repeated last), coordinates
    are [lon, lat], and a clockwise ring is reversed (RFC 7946 section 3.1.6).
    """
    features = []
    missing = 0
    for h in sorted(layer):
        pts = boundaries.get(h)
        if pts is None:
            missing += 1
            continue
        ring = [[_clean(lon), _clean(lat)] for lon, lat in pts]
        if ring[0] != ring[-1]:
            ring.append(list(ring[0]))
        if _twice_area(ring) < 0:
            ring.reverse()
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {"hex": h, "value": _clean(layer[h])},
            }
        )
    return {"type": "FeatureCollection", "features": features}, missing


def _twice_area(ring) -> float:
    """Twice the signed shoelace area of a closed [lon, lat] ring, positive
    when it runs counterclockwise; relative to the first point, so products stay small."""
    x0, y0 = ring[0]
    return sum(
        (ax - x0) * (by - y0) - (bx - x0) * (ay - y0)
        for (ax, ay), (bx, by) in zip(ring, ring[1:])
    )


def write_geojson(doc: dict, fh) -> None:
    """Compact, key-sorted JSON to an open text stream; a NaN or infinity
    raises ValueError before anything is written, as RFC 8259 has no such
    numbers."""
    fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")


def validate_geojson(doc) -> list:
    """Structural checks for an exported FeatureCollection; empty list = valid.
    An exterior ring must run counterclockwise (RFC 7946 section 3.1.6)."""
    problems = []
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        return ["root is not a FeatureCollection"]
    feats = doc.get("features")
    if not isinstance(feats, list):
        return ["features is not a list"]
    for i, f in enumerate(feats):
        where = f"feature {i}"
        if not isinstance(f, dict) or f.get("type") != "Feature":
            problems.append(f"{where}: not a Feature")
            continue
        if not isinstance(f.get("properties"), dict):
            problems.append(f"{where}: properties not an object")
        geom = f.get("geometry")
        if not isinstance(geom, dict) or geom.get("type") != "Polygon":
            problems.append(f"{where}: geometry is not a Polygon")
            continue
        rings = geom.get("coordinates")
        if not isinstance(rings, list) or not rings:
            problems.append(f"{where}: coordinates missing")
            continue
        for j, ring in enumerate(rings):
            if not isinstance(ring, list) or len(ring) < 4:
                problems.append(f"{where} ring {j}: fewer than 4 positions")
                continue
            if ring[0] != ring[-1]:
                problems.append(f"{where} ring {j}: not closed")
            for pos in ring:
                if (
                    not isinstance(pos, list)
                    or len(pos) != 2
                    # RFC 7946 3.1.1: a position's elements are numbers; a bool is an int
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pos)
                ):
                    problems.append(f"{where} ring {j}: bad position {pos!r}")
                    break
                lon, lat = pos
                if not (-180 <= lon <= 180 and -90 <= lat <= 90):
                    problems.append(f"{where} ring {j}: out-of-range position {pos!r}")
                    break
            else:
                if j == 0 and _twice_area(ring) < 0:
                    problems.append(f"{where} ring 0: exterior ring is clockwise")
    return problems
