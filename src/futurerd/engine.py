"""Replay engine: drives a reachability algorithm and the shadow memory over
a trace, collects race reports and statistics, and hosts the verification
harness that checks the on-the-fly answers against the brute-force dag.
"""

from __future__ import annotations

import json
import logging
import os
import random
import time
from dataclasses import dataclass, field

from . import oracle as oracle_mod
from .errors import InputError, InvariantError, UsageError
from .multibags import MultiBags
from .multibags_plus import MultiBagsPlus
from .shadow import RaceReport, ShadowTable
from .trace import (
    CREATE,
    GET,
    MODE_GENERAL,
    MODE_STRUCTURED,
    READ,
    RET,
    SPAWN,
    SYNC,
    WRITE,
    EventSequence,
    validate,
)

ALGO_MULTIBAGS = "multibags"
ALGO_PLUS = "plus"

EXHAUSTIVE_LIMIT = 300  # strands; above this, verify samples per step

log = logging.getLogger("futurerd.engine")


def _setup_logging() -> None:
    level = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("FUTURERD_LOG", "off").lower(), logging.CRITICAL + 10
    )
    logging.basicConfig(level=level, format="futurerd: %(message)s")
    logging.getLogger("futurerd").setLevel(level)


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
    elapsed: float = 0.0  # seconds in replay
    validate_s: float = 0.0

    def to_json_dict(self) -> dict:
        # Timings vary from run to run; reports must be reproducible.
        return {
            "t1_events": self.t1_events,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "strands": self.strands,
            "queries": self.queries,
            "union_ops": self.union_ops,
            "find_ops": self.find_ops,
            "attached_sets": self.attached_sets,
            "both_attached_syncs": self.both_attached_syncs,
        }


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


def replay(seq: EventSequence, reach, shadow=None, races=None, after_strand=None) -> int:
    """Drive ``reach`` over a trace, with an optional shadow and strand hook.

    Returns the number of strands replayed. With a ``shadow``, every read and
    write goes straight to its ``on_read``/``on_write`` with
    ``reach.precedes``, and each race report is stored in the ``races`` dict
    under its ``key()``, first occurrence only, in the order found.
    ``after_strand(s)`` runs once per strand, right after it begins.
    """
    on_read = on_write = precedes = None
    if shadow is not None:
        on_read, on_write, precedes = shadow.on_read, shadow.on_write, reach.precedes
    cur = 0
    reach.on_strand_begin(0)
    if after_strand is not None:
        after_strand(0)
    for k, fn, h, a in seq.events:
        if k == READ:
            if on_read is not None:
                rep = on_read(a, cur, precedes)
                if rep is not None:
                    key = rep.key()
                    if key not in races:
                        races[key] = rep
            continue
        if k == WRITE:
            if on_write is not None:
                for rep in on_write(a, cur, precedes):
                    key = rep.key()
                    if key not in races:
                        races[key] = rep
            continue
        if k == SPAWN or k == CREATE:
            reach.on_child_begin(k, fn, h)
        elif k == SYNC:
            reach.on_sync()
        elif k == GET:
            reach.on_get(h)
        else:
            reach.on_return()
        cur += 1
        reach.on_strand_begin(cur)
        if after_strand is not None:
            after_strand(cur)
    return cur + 1


def detect(seq: EventSequence, algo: str, mode: str) -> DetectReport:
    """Race detection over a full trace.

    Reports every race (deduplicated by address, kind, and strand pair) in
    first-occurrence order, plus run statistics.
    """
    _setup_logging()
    if algo not in (ALGO_MULTIBAGS, ALGO_PLUS):
        raise UsageError(f"unknown algorithm {algo!r}")
    if mode not in (MODE_STRUCTURED, MODE_GENERAL):
        raise UsageError(f"unknown mode {mode!r}")
    if algo == ALGO_MULTIBAGS and mode != MODE_STRUCTURED:
        raise InputError("the multibags algorithm requires structured mode")
    start = time.perf_counter()
    report = validate(seq, mode)
    validate_s = time.perf_counter() - start
    if not report.ok:
        lines = "; ".join(v.message for v in report.violations[:5])
        raise InputError(f"invalid trace ({len(report.violations)} violation(s)): {lines}")

    reach = make_reachability(algo)
    shadow = ShadowTable()
    races: dict = {}
    start = time.perf_counter()
    strands = replay(seq, reach, shadow, races)
    elapsed = time.perf_counter() - start

    c = seq.counts
    stats = Stats(
        t1_events=c.events,
        m=c.accesses,
        n=c.fork_points,
        k=c.future_ops,
        strands=strands,
        queries=shadow.queries,
        union_ops=reach.union_ops,
        find_ops=reach.find_ops,
        attached_sets=reach.attached_sets,
        both_attached_syncs=reach.both_attached_syncs,
        elapsed=elapsed,
        validate_s=validate_s,
    )
    if stats.m + c.spawns + c.creates + c.syncs + c.gets + c.rets != stats.t1_events:
        raise InvariantError("event accounting does not add up")
    if stats.strands != c.strands:
        raise InvariantError("replayed strand count disagrees with trace counts")
    if stats.queries > 2 * stats.m + c.writes:
        raise InvariantError(
            f"query budget exceeded: {stats.queries} > 2*{stats.m}+{c.writes}"
        )
    log.info(
        "detect algo=%s mode=%s strands=%d races=%d", algo, mode, strands, len(races)
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
    """
    _setup_logging()
    mode = MODE_STRUCTURED if algo == ALGO_MULTIBAGS else MODE_GENERAL
    vreport = validate(seq, mode)
    if not vreport.ok:
        raise InputError(f"invalid trace: {vreport.violations[0].message}")
    strands = seq.counts.strands
    if strands > oracle_mod.REACH_CAP:
        raise InputError(
            f"verify refuses traces over {oracle_mod.REACH_CAP} strands (got {strands})"
        )
    dag = oracle_mod.build(seq)
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
        replay(seq, reach, shadow, races, after_strand)
    except _Stop:
        log.info("verify diverged: %s", report.divergence.describe())
        return report
    report.detector_races = set(races)
    report.oracle_races = oracle_mod.naive_races(dag)
    return report


def stats_only(seq: EventSequence) -> dict:
    """Counts for a trace without running detection."""
    c = seq.counts
    return {
        "events": c.events,
        "strands": c.strands,
        "reads": c.reads,
        "writes": c.writes,
        "spawns": c.spawns,
        "creates": c.creates,
        "syncs": c.syncs,
        "gets": c.gets,
        "rets": c.rets,
        "n": c.fork_points,
        "k": c.future_ops,
    }
