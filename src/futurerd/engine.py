"""Replay engine: drives a reachability algorithm and the shadow memory over
a trace with ``trace.walk``, collects race reports and statistics, and hosts
the harness that checks the on-the-fly answers against the brute-force dag.
"""

from __future__ import annotations

import json
import logging
import random
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

from . import oracle as oracle_mod
from .errors import InputError, InvariantError, UsageError
from .multibags import MultiBags
from .multibags_plus import MultiBagsPlus
from .shadow import RaceReport, ShadowTable
from .trace import (
    MODE_GENERAL,
    MODE_STRUCTURED,
    Event,
    EventSequence,
    TraceCounts,
    validate,
    walk,
)

ALGO_MULTIBAGS = "multibags"
ALGO_PLUS = "plus"

EXHAUSTIVE_LIMIT = 300  # strands; above this, verify samples per step

log = logging.getLogger("futurerd.engine")


@dataclass
class Stats:
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
    # Wall seconds of the walk: the grammar check included, and either parsing a
    # trace streamed in-process or waiting on a forked reader's frames.
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        d = asdict(self)
        del d["elapsed"]  # timings vary from run to run; reports must be reproducible
        return d


@dataclass
class DetectReport:
    algo: str
    mode: str
    races: list[RaceReport]
    stats: Stats

    def to_json_dict(self) -> dict:
        return {
            "algo": self.algo,
            "mode": self.mode,
            "races": [
                {"addr": r.addr, "kind": r.kind, "prior": r.prior, "current": r.current}
                for r in self.races
            ],
            "stats": self.stats.to_json_dict(),
        }

    def to_json(self) -> str:
        """``to_json_dict()`` as compact JSON, byte for byte.

        The race list can hold tens of thousands of entries, so it is
        rendered with f-strings rather than one dict per race. Race kinds
        are the shadow's ASCII constants, which JSON writes unescaped.
        """
        races = ",".join([
            f'{{"addr":{r.addr},"kind":"{r.kind}","prior":{r.prior},"current":{r.current}}}'
            for r in self.races
        ])
        stats = json.dumps(self.stats.to_json_dict(), separators=(",", ":"))
        return (f'{{"algo":{json.dumps(self.algo)},"mode":{json.dumps(self.mode)},'
                f'"races":[{races}],"stats":{stats}}}')


@dataclass
class Divergence:
    strand: int  # the strand that was current when the answers split
    u: int
    detector: bool
    oracle: bool

    def describe(self) -> str:
        return (
            f"at strand {self.strand}: detector says precedes({self.u})={self.detector} "
            f"but the dag says {self.oracle}"
        )


@dataclass
class VerifyReport:
    """Outcome of ``verify``.

    The race contract is the shadow memory's: every reported pair is a race
    of the brute-force dag (soundness), and every word with a race there has
    at least one report (per-word completeness). The detector may report
    fewer pairs than the dag holds, because a write replaces the last writer
    and clears the readers.
    """

    algo: str
    strands: int
    checked: int = 0
    divergence: Divergence | None = None
    detector_races: set = field(default_factory=set)
    oracle_races: set = field(default_factory=set)

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


def replay(seq: Iterable[Event], reach, shadow=None, races=None, after_strand=None,
           mode: str = MODE_GENERAL) -> TraceCounts:
    """``trace.walk`` with the hooks of ``reach``: its counts, or its ``InputError``.

    See ``ValidationReport.counts_or_raise``: an invalid trace raises an
    error naming its first five violations, even when a hook failed or races
    were found before them.
    """
    return walk(seq, mode, reach, shadow, races, after_strand).counts_or_raise()


def detect(seq: EventSequence, algo: str, mode: str) -> DetectReport:
    """Race detection over a full trace, in one walk.

    ``seq`` is read once, so a ``TraceFile`` is parsed as it is walked, or a
    ``ReaderTrace`` by its reader process, and no event list is built; a
    malformed line raises ``ParseError`` mid-walk.
    Reports every race (deduplicated by address, kind, and strand pair) in
    first-occurrence order, plus run statistics.
    """
    if algo == ALGO_MULTIBAGS and mode == MODE_GENERAL:
        raise InputError("the multibags algorithm requires structured mode")
    reach = make_reachability(algo)  # unknown algorithms and modes raise UsageError
    shadow = ShadowTable()
    races: dict = {}
    start = time.perf_counter()
    c = replay(seq, reach, shadow, races, mode=mode)
    elapsed = time.perf_counter() - start

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
        elapsed=elapsed,
    )
    if stats.m + c.spawns + c.creates + c.syncs + c.gets + c.rets != stats.t1_events:
        raise InvariantError("event accounting does not add up")
    if stats.queries > 2 * stats.m + c.writes:
        raise InvariantError(
            f"query budget exceeded: {stats.queries} > 2*{stats.m}+{c.writes}"
        )
    log.info(
        "detect algo=%s mode=%s strands=%d races=%d", algo, mode, c.strands, len(races)
    )
    return DetectReport(algo=algo, mode=mode, races=list(races.values()), stats=stats)


class _Stop(Exception):
    pass


def verify(seq: EventSequence, algo: str, sample: int | None = None, seed: int = 0) -> VerifyReport:
    """Replay a detector and compare every answer against the brute-force dag.

    Below EXHAUSTIVE_LIMIT strands (and when ``sample`` is unset) every
    (executed strand, current strand) pair is checked; larger traces check a
    seeded sample per step. Either way the final race sets are checked
    against the race contract (see ``VerifyReport``).

    A ``TraceFile`` is parsed into a list once; the list is walked three
    times: the grammar check, the dag's own replay, and the detector's. The
    grammar check refuses an invalid trace with the ``InputError`` that
    ``replay`` raises, before the dag is built.
    """
    mode = MODE_STRUCTURED if algo == ALGO_MULTIBAGS else MODE_GENERAL
    seq = EventSequence(seq.events)
    strands = validate(seq, mode).counts_or_raise().strands
    oracle_mod.check_reach_budget(strands)
    dag = oracle_mod.build_valid(seq)  # valid in ``mode``, so in general mode too
    reach = make_reachability(algo)
    shadow = ShadowTable()
    rng = random.Random(seed)
    exhaustive = sample is None and strands <= EXHAUSTIVE_LIMIT
    report = VerifyReport(algo=algo, strands=strands)
    races: dict = {}

    def after_strand(s):
        if s == 0:
            return
        if exhaustive:
            candidates = range(s)
        else:
            size = min(sample if sample is not None else 32, s)
            candidates = rng.sample(range(s), size)
        for u in candidates:
            got = reach.precedes(u)
            expected = dag.reaches(u, s)
            report.checked += 1
            if got != expected:
                report.divergence = Divergence(strand=s, u=u, detector=got, oracle=expected)
                raise _Stop()

    try:
        replay(seq, reach, shadow, races, after_strand, mode)
    except _Stop:
        log.info("verify diverged: %s", report.divergence.describe())
        return report
    report.detector_races = set(races)
    report.oracle_races = oracle_mod.naive_races(dag)
    return report


def stats_only(seq: EventSequence) -> dict:
    """Counts for a trace without running detection.

    The counting walk checks the frame grammar, and an invalid trace raises
    ``InputError`` as ``replay`` does.
    """
    c = replay(seq, None)
    return {**asdict(c), "n": c.fork_points, "k": c.future_ops}
