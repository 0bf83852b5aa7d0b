"""Travel-diary reconstruction and mobility analytics over aggregated
hexagon-grid origin-destination and footfall counts."""

from .analytics import (
    DayDifferenceLayer,
    DayOfWeekDistribution,
    TemporalProfile,
    day_difference,
    day_of_week_totals,
    temporal_profile,
    top_k,
)
from .diaries import (
    AttributeBag,
    ChainStage,
    DiaryPattern,
    chain_stages,
    enrich,
    mine_diary,
)
from .geo import export_geojson, load_boundaries, validate_geojson, write_geojson
from .homework import (
    HomeWorkMatrix,
    HomeWorkPair,
    build_homework_matrix,
    day_qualifies,
    detect_home_work,
)
from .ingest import (
    EmptySelectionError,
    FootfallStore,
    IngestError,
    MonthlyODAggregate,
    ODStore,
    StatsSummary,
    descriptive_stats,
    load_footfall,
    load_od,
    monthly_od_aggregate,
)
from .mining import FrequentItemset, Transaction, eclat, support_of
from .model import (
    FlowRecord,
    FootfallRecord,
    TemporalRegime,
    interval_of,
    is_hex_id,
    parse_hex_id,
    regime_of,
)
from .synth import SynthConfig, SynthWorld, generate, verify_ledger

__version__ = "0.1.0"

__all__ = [
    "AttributeBag",
    "ChainStage",
    "DayDifferenceLayer",
    "DayOfWeekDistribution",
    "DiaryPattern",
    "EmptySelectionError",
    "FlowRecord",
    "FootfallRecord",
    "FootfallStore",
    "FrequentItemset",
    "HomeWorkMatrix",
    "HomeWorkPair",
    "IngestError",
    "MonthlyODAggregate",
    "ODStore",
    "StatsSummary",
    "SynthConfig",
    "SynthWorld",
    "TemporalProfile",
    "TemporalRegime",
    "Transaction",
    "build_homework_matrix",
    "chain_stages",
    "day_difference",
    "day_of_week_totals",
    "day_qualifies",
    "descriptive_stats",
    "detect_home_work",
    "eclat",
    "enrich",
    "export_geojson",
    "generate",
    "interval_of",
    "is_hex_id",
    "load_boundaries",
    "load_footfall",
    "load_od",
    "mine_diary",
    "monthly_od_aggregate",
    "parse_hex_id",
    "regime_of",
    "support_of",
    "temporal_profile",
    "top_k",
    "validate_geojson",
    "verify_ledger",
    "write_geojson",
]
