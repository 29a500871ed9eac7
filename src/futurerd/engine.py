"""Replay engine: drives a reachability algorithm and the shadow memory over
a trace with ``trace.walk``, collects race reports and statistics, and hosts
the harness that checks the on-the-fly answers against the brute-force dag.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .errors import InputError, InvariantError, UsageError
from .multibags import MultiBags
from .multibags_plus import MultiBagsPlus
from .shadow import RaceReport, ShadowTable
from .trace import (
    MODE_GENERAL,
    MODE_STRUCTURED,
    TraceCounts,
    validate,
    walk,
)

ALGO_MULTIBAGS = "multibags"
ALGO_PLUS = "plus"

EXHAUSTIVE_LIMIT = 300  # strands that verify checks against all earlier ones


def _log_info(msg: str, *args) -> None:
    """Log ``msg`` at INFO on the ``futurerd.engine`` logger.

    ``logging`` takes a few milliseconds to import, which the command pays
    only under ``FUTURERD_LOG``. A process that has not imported it has set
    up no handler, so the line would go nowhere, and it is dropped unformatted.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("futurerd.engine").info(msg, *args)


class Stats(NamedTuple):
    """Counts of one ``detect`` run, all fixed by the trace and the algorithm:
    no timing, so a report is reproducible; a caller times the call itself.
    Immutable; ``_asdict()`` gives the fields in order."""

    t1_events: int = 0
    m: int = 0  # memory accesses
    n: int = 0  # spawns + creates (places where parallelism is created)
    k: int = 0  # creates + gets (future operations)
    strands: int = 0
    queries: int = 0
    union_ops: int = 0
    find_ops: int = 0
    attached_sets: int = 0
    both_attached_syncs: int = 0


class DetectReport(NamedTuple):
    """What ``detect`` found: the races in first-occurrence order, and the counts.

    ``sizes`` are what the run's data structures held at its end, by name,
    for ``detect --stats``; the JSON report leaves them out."""

    algo: str
    mode: str
    races: list[RaceReport]
    stats: Stats
    sizes: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "algo": self.algo,
            "mode": self.mode,
            "races": [
                {"addr": r.addr, "kind": r.kind, "prior": r.prior, "current": r.current}
                for r in self.races
            ],
            "stats": self.stats._asdict(),
        }

    def json_pieces(self) -> Iterator[str]:
        """The text of ``to_json()`` in order: its head, one piece per race, then the stats.

        A writer that writes the pieces as they come (``cli._write``) never
        holds the report whole, which on tens of thousands of races is
        larger than the race list. A race is rendered with one f-string
        rather than one dict. Race kinds are the shadow's ASCII constants,
        which JSON writes unescaped.
        """
        yield f'{{"algo":{json.dumps(self.algo)},"mode":{json.dumps(self.mode)},"races":['
        sep = ""
        for r in self.races:
            yield f'{sep}{{"addr":{r.addr},"kind":"{r.kind}","prior":{r.prior},"current":{r.current}}}'
            sep = ","
        yield f'],"stats":{json.dumps(self.stats._asdict(), separators=(",", ":"))}}}'

    def to_json(self) -> str:
        """``to_json_dict()`` as compact JSON, byte for byte: ``json_pieces()`` joined."""
        return "".join(self.json_pieces())


class Divergence(NamedTuple):
    """The first reachability answer on which the detector and the dag split."""

    strand: int  # the strand that was current when the answers split
    u: int
    detector: bool
    oracle: bool

    def describe(self) -> str:
        return (
            f"at strand {self.strand}: detector says precedes({self.u})={self.detector} "
            f"but the dag says {self.oracle}"
        )


class VerifyReport:
    """Outcome of ``verify``: ``checked`` answers compared, the first
    ``divergence`` if any, and both race sets as ``key()`` tuples.

    The race contract is the shadow memory's: every reported pair is a race
    of the brute-force dag (soundness), and every word with a race there has
    at least one report (per-word completeness). The detector may report
    fewer pairs than the dag holds, because a write replaces the last writer
    and clears the readers. A report with a ``divergence`` stops there, at
    a strand of a valid prefix, with no race sets: the rest of the trace
    is not read.
    """

    def __init__(self) -> None:
        self.checked = 0
        self.divergence: Divergence | None = None
        self.detector_races: set = set()
        self.oracle_races: set = set()

    @property
    def unsound_races(self) -> set:
        """Reported pairs that are not races of the brute-force dag."""
        return self.detector_races - self.oracle_races

    @property
    def missed_words(self) -> set:
        """Addresses with a race in the brute-force dag but no report."""
        return {r[0] for r in self.oracle_races} - {r[0] for r in self.detector_races}

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.unsound_races and not self.missed_words


def make_reachability(algo: str):
    if algo == ALGO_MULTIBAGS:
        return MultiBags()
    if algo == ALGO_PLUS:
        return MultiBagsPlus()
    raise UsageError(f"unknown algorithm {algo!r}")


def replay(seq: Iterable[tuple], reach, shadow=None, after_strand=None,
           mode: str = MODE_GENERAL) -> TraceCounts:
    """``trace.walk`` with the hooks of ``reach``: its counts, or its ``InputError``.

    The races found are kept in ``shadow.races``. See ``counts_or_raise``:
    an invalid trace raises an error naming its first five violations, even
    when a hook failed or races were found before them.
    """
    return walk(seq, mode, reach, shadow, after_strand).counts_or_raise()


def detect(seq: Iterable[tuple], algo: str, mode: str) -> DetectReport:
    """Race detection over a full trace, in one walk.

    ``seq``, any iterable of ``(kind, fn, handle, addr)`` events, is read once: a
    ``TraceFile`` is parsed as it is walked, a ``ReaderTrace`` by its reader, and
    no event list is built; a malformed line raises ``ParseError`` mid-walk.
    Reports the shadow's ``races`` (the first report of each address, kind
    and strand pair, in serial order), plus the run's counts (``Stats``).
    """
    if algo == ALGO_MULTIBAGS and mode == MODE_GENERAL:
        raise InputError("the multibags algorithm requires structured mode")
    reach = make_reachability(algo)  # unknown algorithms and modes raise UsageError
    shadow = ShadowTable()
    c = replay(seq, reach, shadow, mode=mode)

    stats = Stats(
        t1_events=c.events,
        m=c.accesses,
        n=c.fork_points,
        k=c.future_ops,
        strands=c.strands,
        queries=shadow.queries,
        union_ops=reach.union_ops,
        find_ops=reach.find_ops,
        attached_sets=reach.attached_sets,
        both_attached_syncs=reach.both_attached_syncs,
    )
    if stats.m + c.spawns + c.creates + c.syncs + c.gets + c.rets != stats.t1_events:
        raise InvariantError("event accounting does not add up")
    if stats.queries > 2 * stats.m + c.writes:
        raise InvariantError(
            f"query budget exceeded: {stats.queries} > 2*{stats.m}+{c.writes}"
        )
    _log_info("detect algo=%s mode=%s strands=%d races=%d",
              algo, mode, c.strands, len(shadow.races))
    sizes = {"shadow_words": shadow.cells_touched, "shadow_pages": shadow.pages}
    return DetectReport(algo=algo, mode=mode, races=list(shadow.races.values()), stats=stats,
                        sizes=sizes)


class _Stop(Exception):
    pass


def verify(seq: Iterable[tuple], algo: str, sample: int | None = None,
           seed: int = 0) -> VerifyReport:
    """Replay a detector and compare its answers against the brute-force dag.

    With ``sample`` unset, strands 1 to EXHAUSTIVE_LIMIT are checked against
    every earlier strand, and each later strand against a seeded sample of
    32; with ``sample`` set (``UsageError`` below 1), each strand is checked
    against a seeded sample of ``sample``. The final race sets are then
    checked against the race contract (see ``VerifyReport``).

    ``seq``, any iterable ``detect`` takes, is read once, in one walk that
    builds the dag through ``oracle.follow`` as it goes, and no event list is
    built. An invalid trace raises ``replay``'s ``InputError``; so does a
    dag that passes ``oracle.REACH_BUDGET``, at the strand that passes it.
    The budget charges S²/8 bytes for S strands; the rows hold about S²/16.
    A divergence ends the walk at once, so it is reported even when a later
    line is invalid.
    """
    import random

    from . import oracle as oracle_mod

    if sample is not None and sample < 1:
        raise UsageError(f"verify's sample must be at least 1, got {sample}")
    mode = MODE_STRUCTURED if algo == ALGO_MULTIBAGS else MODE_GENERAL
    dag = oracle_mod.OracleDag()
    reach = make_reachability(algo)
    shadow = ShadowTable()
    rng = random.Random(seed)
    report = VerifyReport()

    def after_strand(s):
        if s == 0:
            return
        if sample is None and s <= EXHAUSTIVE_LIMIT:
            candidates = range(s)
        else:
            candidates = rng.sample(range(s), min(sample or 32, s))
        for u in candidates:
            got = reach.precedes(u)
            expected = dag.reaches(u, s)
            report.checked += 1
            if got != expected:
                report.divergence = Divergence(strand=s, u=u, detector=got, oracle=expected)
                raise _Stop()

    try:
        replay(oracle_mod.follow(dag, seq), reach, shadow, after_strand, mode)
    except _Stop:
        _log_info("verify diverged: %s", report.divergence.describe())
        return report
    report.detector_races = set(shadow.races)
    report.oracle_races = oracle_mod.naive_races(dag)
    return report


def stats_only(seq: Iterable[tuple]) -> dict:
    """Counts for a trace without running detection.

    The counting walk checks the frame grammar, and an invalid trace raises
    ``InputError`` as ``replay`` does.
    """
    c = validate(seq, MODE_GENERAL).counts_or_raise()
    return {**c._asdict(), "n": c.fork_points, "k": c.future_ops}
