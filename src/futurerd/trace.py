"""Event model for serialized depth-first eager executions.

A trace is the serial replay of a task-parallel program: a child function
started by ``spawn`` or ``create`` runs to completion before its parent's
continuation, a ``sync`` joins the most recently spawned outstanding child,
and a ``get`` joins a future by handle. Memory accesses are 4-byte reads and
writes tagged with byte addresses.

Wire format is JSON Lines, one event per line, UTF-8:

    {"t":"spawn","f":<uint>}
    {"t":"create","f":<uint>,"h":<uint>}
    {"t":"sync"}
    {"t":"get","h":<uint>}
    {"t":"ret"}
    {"t":"r","a":<uint64>}
    {"t":"w","a":<uint64>}

The root function is implicit: it has no opening event and end-of-file closes
it. Function instance ids (``f``) and future handle ids (``h``) are arbitrary
unique unsigned integers.

``walk`` is the one pass over a trace and the one implementation of its frame
grammar; ``validate``, ``EventSequence.counts`` and ``engine.replay`` are walks.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InputError, ParseError, UsageError

SPAWN = "spawn"
CREATE = "create"
SYNC = "sync"
GET = "get"
RET = "ret"
READ = "read"
WRITE = "write"

ACCESS_KINDS = (READ, WRITE)

MODE_STRUCTURED = "structured"
MODE_GENERAL = "general"

_KIND_OF_WIRE = {
    "spawn": SPAWN,
    "create": CREATE,
    "sync": SYNC,
    "get": GET,
    "ret": RET,
    "r": READ,
    "w": WRITE,
}


class Event(NamedTuple):
    """One trace event; immutable, so identical lines can share one object."""

    kind: str
    fn: int | None = None
    handle: int | None = None
    addr: int | None = None


@dataclass
class TraceCounts:
    events: int = 0
    strands: int = 1  # 1 + one per control event
    reads: int = 0
    writes: int = 0
    spawns: int = 0
    creates: int = 0
    syncs: int = 0
    gets: int = 0
    rets: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def fork_points(self) -> int:
        """Dynamic count of places where parallelism is created."""
        return self.spawns + self.creates

    @property
    def future_ops(self) -> int:
        return self.creates + self.gets


@dataclass
class EventSequence:
    events: list[Event] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def counts(self) -> TraceCounts:
        return walk(self, MODE_GENERAL).counts


# -- parse / serialize ------------------------------------------------------

# The exact bytes ``serialize`` writes for one event, with an optional line
# end. Each alternative has its own groups: r|w and address, spawn fn,
# create fn and handle, get handle, sync|ret.
_UINT = r"(0|[1-9][0-9]*)"
_CANONICAL = re.compile(
    r'\{"t":"(?:'
    rf'([rw])","a":{_UINT}'
    rf'|spawn","f":{_UINT}'
    rf'|create","f":{_UINT},"h":{_UINT}'
    rf'|get","h":{_UINT}'
    r'|(sync|ret)"'
    r')\}\n?'
).fullmatch

# Canonical lines already parsed, so that repeated lines share one Event.
# Cleared when full, which bounds its memory on traces of distinct lines.
_CACHE_LINES = 4096

_new_tuple = tuple.__new__  # Event(...) without the Python-level __new__


def _canonical_event(m: re.Match) -> Event:
    rw, a, sf, cf, ch, gh, sr = m.groups()
    if a is not None:
        return _new_tuple(Event, (READ if rw == "r" else WRITE, None, None, int(a)))
    if sf is not None:
        return _new_tuple(Event, (SPAWN, int(sf), None, None))
    if ch is not None:
        return _new_tuple(Event, (CREATE, int(cf), int(ch), None))
    if gh is not None:
        return _new_tuple(Event, (GET, None, int(gh), None))
    return _new_tuple(Event, (SYNC if sr == "sync" else RET, None, None, None))


def _field(obj: dict, name: str, lineno: int) -> int:
    v = obj.get(name)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(lineno, f"field {name!r} must be a non-negative integer")
    return v


def _json_event(line: str, lineno: int) -> Event:
    """Parse one stripped, non-blank line that is not in canonical form."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ParseError(lineno, "event must be a JSON object")
    kind = _KIND_OF_WIRE.get(obj.get("t"))
    if kind is None:
        raise ParseError(lineno, f"unknown event kind {obj.get('t')!r}")
    if kind == SPAWN:
        return Event(SPAWN, fn=_field(obj, "f", lineno))
    if kind == CREATE:
        return Event(CREATE, fn=_field(obj, "f", lineno), handle=_field(obj, "h", lineno))
    if kind == GET:
        return Event(GET, handle=_field(obj, "h", lineno))
    if kind in ACCESS_KINDS:
        return Event(kind, addr=_field(obj, "a", lineno))
    return Event(kind)


def parse(source) -> EventSequence:
    """Parse a JSON-Lines trace from a string or a text stream.

    Lines in the canonical form that ``serialize`` writes take a regex fast
    path; any other line goes through ``json.loads``. Blank lines are
    ignored. Any malformed line raises :class:`ParseError` with its line
    number.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    events: list[Event] = []
    append = events.append
    cache: dict[str, Event] = {}
    for lineno, raw in enumerate(source, start=1):
        ev = cache.get(raw)
        if ev is None:
            m = _CANONICAL(raw)
            if m is not None:
                if len(cache) >= _CACHE_LINES:
                    cache.clear()
                ev = cache[raw] = _canonical_event(m)
            else:
                line = raw.strip()
                if not line:
                    continue
                ev = _json_event(line, lineno)
        append(ev)
    return EventSequence(events)


def serialize(seq: EventSequence) -> str:
    """Render a trace back to its JSON-Lines form (one canonical line per event)."""
    out: list[str] = []
    append = out.append
    for k, fn, h, a in seq.events:
        if k == READ:
            append(f'{{"t":"r","a":{a}}}')
        elif k == WRITE:
            append(f'{{"t":"w","a":{a}}}')
        elif k == SPAWN:
            append(f'{{"t":"spawn","f":{fn}}}')
        elif k == CREATE:
            append(f'{{"t":"create","f":{fn},"h":{h}}}')
        elif k == GET:
            append(f'{{"t":"get","h":{h}}}')
        else:
            append(f'{{"t":"{k}"}}')
    return "\n".join(out) + ("\n" if out else "")


def load(path) -> EventSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh)


def dump(seq: EventSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(seq))


# -- the walk -------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    index: int  # event index, or len(events) for end-of-trace problems
    code: str
    message: str


@dataclass
class ValidationReport:
    """One ``walk``'s violations, counts, and first ``InputError`` from a hook."""

    mode: str
    violations: list[Violation] = field(default_factory=list)
    counts: TraceCounts = field(default_factory=TraceCounts)
    error: InputError | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _skip(*_):
    return None


def _skip_write(*_):
    return ()


def walk(seq: EventSequence, mode: str, reach=None, shadow=None, races=None,
         after_strand=None) -> ValidationReport:
    """Walk a trace once, in serial order, and pass its events to the hooks.

    Each control event is checked against the frame grammar of ``mode`` and
    counted, and only then handed to ``reach``'s hook for it, which places the
    strand that follows, then to ``on_strand_begin`` and ``after_strand`` with
    the new strand id. With a ``shadow``, reads and writes go to its
    ``on_read``/``on_write`` with ``reach.precedes``, and each race report is
    stored in ``races`` under its ``key()``, first occurrence only. Hooks are
    bound when the walk starts.

    The walk keeps the frame stack, and each frame entry keeps the detector's
    record of that frame, so a detector keeps none of its own:

    * ``on_child_begin(kind, handle)`` returns the new child's record;
    * ``on_return(child, frame)``, ``on_sync(child, frame)`` and
      ``on_get(handle, future, frame)`` get the records of the returning,
      synced or gotten child and of the frame the next strand runs in;
    * ``reach.root`` is the root frame's record.

    Violations, and the first ``InputError`` a hook raises, are kept in the
    report, never raised. After either, the hooks and the shadow are dropped
    and the rest of the trace is only checked and counted.
    """
    if mode not in (MODE_STRUCTURED, MODE_GENERAL):
        raise UsageError(f"unknown mode {mode!r}")
    report = ValidationReport(mode=mode)
    violations = report.violations
    single_touch = mode == MODE_STRUCTURED

    on_read, on_write, precedes = _skip, _skip_write, None
    if shadow is not None:
        on_read, on_write, precedes = shadow.on_read, shadow.on_write, reach.precedes
    child_begin = on_sync = on_get = on_return = strand_begin = _skip
    if reach is not None:
        child_begin, on_sync, on_get = reach.on_child_begin, reach.on_sync, reach.on_get
        on_return, strand_begin = reach.on_return, reach.on_strand_begin

    # handle -> the future's frame entry once it has returned, None before
    closed: dict[int, list | None] = {}
    got: set[int] = set()
    # one entry per open frame: [record, handle or None, unsynced spawned children's entries]
    frames: list[list] = [[None if reach is None else reach.root, None, []]]
    reads = writes = spawns = creates = syncs = gets = rets = 0
    cur = 0
    after = after_strand
    strand_begin(0)
    if after is not None:
        after(0)
    for i, (k, fn, h, a) in enumerate(seq.events):
        if k == READ:
            reads += 1
            rep = on_read(a, cur, precedes)
            if rep is not None:
                key = rep.key()
                if key not in races:
                    races[key] = rep
            continue
        if k == WRITE:
            writes += 1
            for rep in on_write(a, cur, precedes):
                key = rep.key()
                if key not in races:
                    races[key] = rep
            continue
        cur += 1
        bad = None
        if k == SPAWN:
            spawns += 1
            child = [None, None, []]
            frames[-1][2].append(child)
            frames.append(child)
        elif k == CREATE:
            creates += 1
            if h in closed:
                bad = ("duplicate-handle", f"duplicate future handle {h}")
            closed[h] = None
            frames.append([None, h, []])
        elif k == SYNC:
            syncs += 1
            spawned = frames[-1][2]
            if spawned:
                child = spawned.pop()
            else:
                bad = ("sync-without-spawn", "sync with no outstanding spawned child")
        elif k == GET:
            gets += 1
            if h not in closed:
                bad = ("unknown-handle", f"get of unknown handle {h}")
            else:
                child = closed[h]
                if child is None:
                    bad = ("get-before-future-return",
                           f"get of handle {h} before its future returned")
                elif single_touch and h in got:
                    bad = ("single-touch", f"handle {h} gotten more than once")
            got.add(h)
        else:
            rets += 1
            if len(frames) == 1:
                bad = ("return-from-root", "ret event in the implicit root frame")
            else:
                child = frames.pop()
                if child[1] is not None:
                    closed[child[1]] = child
                if child[2]:
                    bad = ("unsynced-spawn",
                           f"frame returns with {len(child[2])} unsynced spawned child(ren)")
        if bad is None:
            try:
                if k == SPAWN or k == CREATE:
                    frames[-1][0] = child_begin(k, h)
                elif k == SYNC:
                    on_sync(child[0], frames[-1][0])
                elif k == GET:
                    on_get(h, child[0], frames[-1][0])
                else:
                    on_return(child[0], frames[-1][0])
                strand_begin(cur)
                if after is not None:
                    after(cur)
                continue
            except InputError as exc:
                report.error = exc
        else:
            violations.append(Violation(i, *bad))
        # After the first violation or hook error, only check and count.
        on_read, on_write, after = _skip, _skip_write, None
        child_begin = on_sync = on_get = on_return = strand_begin = _skip

    end = len(seq.events)
    if len(frames) > 1:
        violations.append(Violation(end, "unclosed-frames",
                                    f"{len(frames) - 1} frame(s) never return"))
    elif frames[0][2]:
        n = len(frames[0][2])
        violations.append(Violation(end, "unsynced-spawn",
                                    f"root ends with {n} unsynced spawned child(ren)"))
    report.counts = TraceCounts(events=end, strands=cur + 1, reads=reads, writes=writes,
                                spawns=spawns, creates=creates, syncs=syncs, gets=gets, rets=rets)
    return report


def validate(seq: EventSequence, mode: str) -> ValidationReport:
    """``walk`` with no hooks: check well-formedness for the given mode.

    A clean report means: frames are balanced, every ``get`` names a known
    handle whose frame has already closed, every ``spawn`` is matched by a
    ``sync`` in its own frame before that frame returns, and (in structured
    mode) no handle is gotten more than once.
    """
    return walk(seq, mode)
