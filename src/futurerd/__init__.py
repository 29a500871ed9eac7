"""On-the-fly determinacy-race detection for task-parallel traces with futures.

The brute-force dag (``oracle``) and the trace generators (``generators``)
serve ``verify``, ``gen`` and ``detect --dump-dag`` only, so ``detect`` does
not import them: their modules, and the names this package exports from
them, load on first access.
"""

import importlib

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
from .multibags import MultiBags
from .multibags_plus import MultiBagsPlus, NspRecord
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

# module -> the names exported from it, both loaded on first access (PEP 562)
_LAZY = {
    "generators": ("gen_lcs_general", "gen_lcs_structured", "gen_random"),
    "oracle": ("OracleDag", "build", "longest_path", "naive_races", "to_dot"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            if name == module:
                return loaded
            value = globals()[name] = getattr(loaded, name)  # found directly from now on
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
