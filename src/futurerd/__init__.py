"""On-the-fly determinacy-race detection for task-parallel traces with futures."""

from .dsu import LABEL_P, LABEL_S, DisjointSets
from .engine import (
    ALGO_MULTIBAGS,
    ALGO_PLUS,
    DetectReport,
    Stats,
    VerifyReport,
    detect,
    replay,
    stats_only,
    verify,
)
from .errors import InputError, InvariantError, ParseError, UsageError
from .generators import gen_lcs_general, gen_lcs_structured, gen_random
from .multibags import MultiBags
from .multibags_plus import MultiBagsPlus, NspRecord
from .oracle import OracleDag, build, longest_path, naive_races, to_dot
from .reachdag import ReachDag
from .shadow import RaceReport, ShadowTable
from .trace import (
    MODE_GENERAL,
    MODE_STRUCTURED,
    Event,
    EventSequence,
    TraceFile,
    ValidationReport,
    Violation,
    dump,
    iterparse,
    load,
    parse,
    serialize,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ALGO_MULTIBAGS",
    "ALGO_PLUS",
    "DetectReport",
    "DisjointSets",
    "Event",
    "EventSequence",
    "InputError",
    "InvariantError",
    "LABEL_P",
    "LABEL_S",
    "MODE_GENERAL",
    "MODE_STRUCTURED",
    "MultiBags",
    "MultiBagsPlus",
    "NspRecord",
    "OracleDag",
    "ParseError",
    "RaceReport",
    "ReachDag",
    "ShadowTable",
    "Stats",
    "TraceFile",
    "UsageError",
    "ValidationReport",
    "VerifyReport",
    "Violation",
    "build",
    "detect",
    "dump",
    "gen_lcs_general",
    "gen_lcs_structured",
    "gen_random",
    "iterparse",
    "load",
    "longest_path",
    "naive_races",
    "parse",
    "replay",
    "serialize",
    "stats_only",
    "to_dot",
    "validate",
    "verify",
]
