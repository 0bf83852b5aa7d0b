"""Hexagon boundary lookup and GeoJSON layer export.

Geometry is supplied externally as a `hex,ring` CSV (ring = semicolon-joined
`lon lat` pairs); nothing here computes hex grids. Exported layers are
FeatureCollections of closed Polygons with {hex, value} properties, written
deterministically so identical layers produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .ingest import IngestError, csv_records
from .model import is_hex_id, parse_decimal


def load_boundaries(path) -> dict:
    """Parse `hex,ring` CSV into hex -> [(lon, lat), ...]; whole-file reject.
    Coordinates are plain decimals (model.parse_decimal) within lon [-180,
    180] and lat [-90, 90], and a ring needs 3 distinct points. Errors name
    the file line a record starts on; a repeated hex names both."""
    p = Path(path)
    if not p.exists():
        raise IngestError(f"no such file: {p}")
    out: dict = {}
    first_line: dict = {}
    records = csv_records(p)
    _, header = next(records, (1, None))
    if header is None:
        raise IngestError("empty file, expected header", line=1)
    if header != ["hex", "ring"]:
        raise IngestError(f"bad header {','.join(header)!r}, expected 'hex,ring'", line=1)
    for n, row in records:
        if not row:
            continue
        if len(row) != 2:
            raise IngestError(f"expected 2 fields, got {len(row)}", line=n)
        h, ring_s = row
        if not is_hex_id(h):
            raise IngestError(f"malformed hex id: {h!r}", line=n)
        seen = first_line.setdefault(h, n)
        if seen != n:
            raise IngestError(f"hex {h} repeated, first at line {seen}", line=n)
        pts = []
        for pair in ring_s.split(";"):
            parts = pair.split()
            if len(parts) != 2:
                raise IngestError(f"bad ring point {pair!r}", line=n)
            try:
                lon, lat = parse_decimal(parts[0]), parse_decimal(parts[1])
            except ValueError as e:
                raise IngestError(f"bad ring point {pair!r}: {e}", line=n) from None
            if not (-180 <= lon <= 180 and -90 <= lat <= 90):
                raise IngestError(
                    f"ring point {pair!r} out of range: lon must be in [-180, 180], lat in [-90, 90]",
                    line=n,
                )
            pts.append((lon, lat))
        if len(set(pts)) < 3:
            raise IngestError("ring needs at least 3 distinct points", line=n)
        out[h] = pts
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
    are [lon, lat].
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
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {"hex": h, "value": _clean(layer[h])},
            }
        )
    return {"type": "FeatureCollection", "features": features}, missing


def write_geojson(doc: dict, fh) -> None:
    """Compact, key-sorted JSON to an open text stream; a NaN or infinity
    raises ValueError before anything is written, as RFC 8259 has no such
    numbers."""
    fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")


def validate_geojson(doc) -> list:
    """Structural checks for an exported FeatureCollection; empty list = valid."""
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
                    or not all(isinstance(v, (int, float)) for v in pos)
                ):
                    problems.append(f"{where} ring {j}: bad position {pos!r}")
                    break
                lon, lat = pos
                if not (-180 <= lon <= 180 and -90 <= lat <= 90):
                    problems.append(f"{where} ring {j}: out-of-range position {pos!r}")
                    break
    return problems
