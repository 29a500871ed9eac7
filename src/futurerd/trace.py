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
unique unsigned integers. The parser hands out each event as a plain tuple
``(kind, fn, handle, addr)``, whose ``kind`` is the line's ``t`` tag, one of
``SPAWN`` ... ``WRITE``; ``Event("w", addr=4)`` names the fields of a write.

``walk`` is the one pass over a trace and the one implementation of its frame
grammar; ``validate``, ``EventSequence.counts`` and ``engine.replay`` are walks.
A walk reads its events once, in order, from any iterable: ``iterparse`` parses
them a batch of lines at a time as they are read, and ``load`` returns a
``TraceFile``, which parses its file afresh on each pass. So a walk over a file
holds no event list, and its memory follows the trace's live state rather than
its length. A ``ReaderTrace`` runs the same parser over an open text stream in
a forked reader process, which parses ahead of the walk on another core.
"""

from __future__ import annotations

import gc
import io
import json
import marshal
import os
import re
import select
import signal
import struct
import sys
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from itertools import chain, islice
from typing import NamedTuple, NoReturn

from .errors import InputError, ParseError, ReaderError, UsageError

# The parser interns each tag it reads, as CPython does these constants, so a
# parsed kind is one of these objects and the walk's == matches it by identity.
SPAWN = "spawn"
CREATE = "create"
SYNC = "sync"
GET = "get"
RET = "ret"
READ = "r"
WRITE = "w"

ACCESS_KINDS = (READ, WRITE)

MODE_STRUCTURED = "structured"
MODE_GENERAL = "general"

ADDR_LIMIT = 1 << 64  # addresses are uint64


class Event(NamedTuple):
    """One trace event with named fields; it equals the parser's plain tuple."""

    kind: str
    fn: int | None = None
    handle: int | None = None
    addr: int | None = None


class TraceCounts(NamedTuple):
    """A walk's counts of events by kind and of strands; ``_asdict()`` lists them."""

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


class EventSequence:
    """A trace held as a list, ``events``, which any number of passes can walk."""

    def __init__(self, events: list[Event] | None = None) -> None:
        self.events = [] if events is None else events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def counts(self) -> TraceCounts:
        return walk(self, MODE_GENERAL).counts


class TraceFile(EventSequence):
    """A trace parsed afresh on each pass, so that no pass holds an event list.

    ``TraceFile(path)`` opens the file at ``path``, as UTF-8, on each pass.
    ``events`` and ``len`` parse a whole pass into a list.
    """

    def __init__(self, path) -> None:
        self.path = path

    def __repr__(self) -> str:
        return f"TraceFile({self.path!r})"

    def __iter__(self) -> Iterator[tuple]:
        return chain.from_iterable(_batches(path=self.path))

    @property
    def events(self) -> list[Event]:
        """A whole pass as ``Event``s: ``perfbench/tracer.py`` reads ``.addr`` on them."""
        return list(map(Event._make, self))


# -- parse / serialize ------------------------------------------------------

# The exact bytes ``serialize`` writes for one event, with an optional line
# end. Each alternative has its own groups: r|w and address, spawn fn,
# create fn and handle, get handle, sync|ret. Integers of more than 20
# digits, none of them a valid address, take the json.loads path, which
# names the field when ``int`` refuses them as too long.
_UINT = r"(0|[1-9][0-9]{0,19})"
_CANONICAL = re.compile(
    r'\{"t":"(?:'
    rf'([rw])","a":{_UINT}'
    rf'|spawn","f":{_UINT}'
    rf'|create","f":{_UINT},"h":{_UINT}'
    rf'|get","h":{_UINT}'
    r'|(sync|ret)"'
    r')\}\n?'
).fullmatch

# Canonical lines already parsed, so that repeated lines share one tuple.
# Cleared when full, which bounds its memory on traces of distinct lines.
_CACHE_LINES = 4096


def _canonical_event(m: re.Match) -> tuple | None:
    """The event of a canonical line, or None for an address past uint64."""
    rw, a, sf, cf, ch, gh, sr = m.groups()
    if a is not None:
        a = int(a)
        if a >= ADDR_LIMIT:
            return None
        return (sys.intern(rw), None, None, a)
    if sf is not None:
        return (SPAWN, int(sf), None, None)
    if ch is not None:
        return (CREATE, int(cf), int(ch), None)
    if gh is not None:
        return (GET, None, int(gh), None)
    return (sys.intern(sr), None, None, None)


_TOO_LONG = object()  # an integer with more digits than ``int`` converts


def _int_or_too_long(digits: str):
    try:
        return int(digits)
    except ValueError:
        return _TOO_LONG


_decode = json.JSONDecoder(parse_int=_int_or_too_long).decode
# The fields of each kind's line, in the order of an event's fn, handle and addr.
_FIELDS = {SPAWN: "f", CREATE: "fh", GET: "h", READ: "a", WRITE: "a", SYNC: "", RET: ""}


def _field(obj: dict, name: str, lineno: int) -> int:
    v = obj.get(name)
    if v is _TOO_LONG:
        if name == "a":
            raise ParseError(lineno, "field 'a' must be below 2^64")
        raise ParseError(lineno, f"field {name!r} has too many digits")
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(lineno, f"field {name!r} must be a non-negative integer")
    if name == "a" and v >= ADDR_LIMIT:
        raise ParseError(lineno, "field 'a' must be below 2^64")
    return v


def _json_event(line: str, lineno: int) -> tuple:
    """Parse one stripped, non-blank line that is not in canonical form."""
    try:
        obj = _decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise ParseError(lineno, "invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise ParseError(lineno, "event must be a JSON object")
    t = obj.get("t")
    names = _FIELDS.get(t) if isinstance(t, str) else None
    if names is None:
        raise ParseError(lineno, f"unknown event kind {t!r}")
    return (sys.intern(t), *(_field(obj, n, lineno) if n in names else None for n in "fha"))


# The parser hands over the events of each ``size`` lines as one list. When
# parser and walk share one process, each switch between them costs CPU cache
# misses, as each evicts the other's working set (the line cache on one side,
# the shadow and the bags on the other), so batches are large: 8,192 lines ran
# at par with a list parsed first, and 1,024-line batches used 4-12 % more CPU
# on each benchmark trace. A forked reader (``ReaderTrace``) parses on its own
# core and sends a frame for each _FRAME_LINES (1,024) lines, small so that
# the walk starts early: 8,192-line frames made fj-structured's ``detect``
# 16 % slower (6 pairs of 6, 2-core host). So neither size serves the other.
_BATCH_LINES = 8192


def iterparse(source) -> Iterator[tuple]:
    """Iterate over the events of a JSON-Lines trace, from a string or a text stream.

    Lines in the canonical form that ``serialize`` writes take a regex fast
    path; any other line goes through ``json.loads``. Blank lines are
    ignored. Lines are parsed in batches, ahead of the consumer; a malformed
    line raises :class:`ParseError`, with its line number, once the events
    before it have been iterated.
    """
    return chain.from_iterable(_batches(io.StringIO(source) if isinstance(source, str)
                                        else source))


def _batches(lines=None, path=None, size=_BATCH_LINES) -> Iterator[list[tuple]]:
    """``iterparse``'s events, one list for each ``size`` lines that hold any,
    from ``lines`` or the file at ``path``.

    The file is opened by the first ``next`` and closed when the generator
    ends or is closed. The events before a malformed line in its batch come
    as one more list before its ``ParseError``.
    """
    with open(path, "r", encoding="utf-8") if path is not None else nullcontext(lines) as lines:
        lines = iter(lines)
        cache: dict[str, tuple] = {}
        start = 1  # the line number of the batch's first line
        while chunk := list(islice(lines, size)):
            batch: list[tuple] = []
            append = batch.append
            for lineno, raw in enumerate(chunk, start):
                ev = cache.get(raw)
                if ev is None:
                    m = _CANONICAL(raw)
                    if m is not None and (ev := _canonical_event(m)) is not None:
                        if len(cache) >= _CACHE_LINES:
                            cache.clear()
                        cache[raw] = ev
                    else:
                        line = raw.strip()
                        if not line:
                            continue
                        try:
                            ev = _json_event(line, lineno)
                        except ParseError:
                            if batch:
                                yield batch
                            raise
                append(ev)
            if batch:
                yield batch
            start += size


def parse(source) -> EventSequence:
    """``iterparse``'s events as a list."""
    return EventSequence(list(iterparse(source)))


def serialize(seq: EventSequence) -> str:
    """Render a trace back to its JSON-Lines form (one canonical line per event);
    an event of a kind the format lacks raises ``UsageError``."""
    out: list[str] = []
    append = out.append
    for k, fn, h, a in seq:
        if k == READ or k == WRITE:
            append(f'{{"t":"{k}","a":{a}}}')
        elif k == SPAWN:
            append(f'{{"t":"spawn","f":{fn}}}')
        elif k == CREATE:
            append(f'{{"t":"create","f":{fn},"h":{h}}}')
        elif k == GET:
            append(f'{{"t":"get","h":{h}}}')
        elif k == SYNC or k == RET:
            append(f'{{"t":"{k}"}}')
        else:
            raise UsageError(f"unknown event kind {k!r}")
    return "\n".join(out) + ("\n" if out else "")


def load(path) -> EventSequence:
    """The trace in the file at ``path``, read on each pass: a ``TraceFile``."""
    return TraceFile(path)


def dump(seq: EventSequence, path) -> None:
    """Write ``serialize(seq)`` to ``path``; a trace it refuses leaves no file."""
    text = serialize(seq)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- the forked reader -----------------------------------------------------------

# A frame on the reader's pipe is a 4-byte length and a marshal-ed body: a
# list of plain (kind, fn, handle, addr) tuples, or the last frame, one of
# ("end", the reader's CPU seconds), ("error", a pickled ParseError, OSError
# or UnicodeDecodeError) and ("crash", the traceback of any other exception).
# A frame holds the events of _FRAME_LINES lines, about 13.5 KB on the
# benchmark's traces, and the kernel's pipe, 64 KiB on Linux, holds about 4.
# A 1 MiB pipe let the reader run further ahead: the benchmark's
# ``detect_rel`` read 2-5 % lower on fj-structured and hot-sparse (6 of 8
# pairs each, 2-core host), within the benchmark's bound.
_FRAME_LINES = 1024
_HEAD = struct.Struct("<I")


class ReaderTrace:
    """A one-pass trace that a forked reader process parses while the walk reads it.

    ``ReaderTrace(lines)`` forks one reader, which reads ``lines``, an open
    text stream, from its own copy; the caller keeps its copy, and may close
    it once this returns. If ``os.pipe`` or ``os.fork`` fails, it raises
    ``ReaderError`` having read nothing, so that the caller can parse the
    trace in-process instead. The reader runs the in-process parser,
    ``_batches``, and sends the events of each ``_FRAME_LINES`` lines down a
    pipe as one frame, then an end frame with its CPU seconds, which
    ``parse_s`` holds once the iteration has read it. The reader's
    ``ParseError``, ``OSError`` or ``UnicodeDecodeError`` is raised by the
    iteration once the events before it have been iterated. Its death before
    the end frame, or any other exception in it, raises ``ReaderError``.

    ``close`` closes the pipe, kills the reader and reaps it. The iteration
    calls it when it ends; an owner that may stop early uses the object as a
    context manager. If this process dies, the reader exits: at its next
    frame, and on Linux at once. As with any ``os.fork``, this process
    should run no other threads.
    """

    def __init__(self, lines) -> None:
        self.parse_s: float | None = None  # the reader's CPU seconds, from its end frame
        fds: list[int] = []
        try:
            fds += os.pipe()
            self._pid = os.fork()
            if self._pid == 0:
                os.close(fds[0])
                _read_ahead(lines, fds[1])
        except OSError as exc:  # no process or descriptor to spare: EAGAIN, EMFILE
            for fd in fds:
                os.close(fd)
            raise ReaderError(f"the trace reader could not start: {exc}") from exc
        r, w = fds
        os.close(w)
        self._pipe = os.fdopen(r, "rb")
        self._passed = False

    def __iter__(self) -> Iterator[tuple]:
        if self._passed:
            raise UsageError("a ReaderTrace has one pass only")
        self._passed = True
        return chain.from_iterable(self._read_frames())

    def __enter__(self) -> ReaderTrace:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the pipe, kill the reader and reap it; once done, do nothing."""
        self._pipe.close()
        if self._pid is not None:
            pid, self._pid = self._pid, None
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def _read_frames(self) -> Iterator[list[tuple]]:
        read = self._pipe.read
        try:
            while len(head := read(_HEAD.size)) == _HEAD.size:
                size = _HEAD.unpack(head)[0]
                body = read(size)
                if len(body) < size:
                    break
                frame = marshal.loads(body)
                if type(frame) is list:
                    yield frame
                    continue
                tag, value = frame
                if tag == "end":
                    self.parse_s = value
                    return
                if tag == "error":
                    import pickle  # only for the reader's error frame

                    raise pickle.loads(value)
                raise ReaderError(f"the trace reader failed:\n{value}")
            # The pipe ended without an end frame: the reader was killed or crashed.
            pid, self._pid = self._pid, None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise ReaderError(f"the trace reader (pid {pid}) {how} before the end of the trace")
        finally:
            self.close()


def _read_ahead(lines, fd: int) -> NoReturn:
    """The reader process: parse ``lines`` into frames on the pipe ``fd``, then exit.

    It ends with ``os._exit``, so that no ``atexit`` handler or output
    buffer it shares with the command runs twice.
    """
    def send(obj) -> None:
        body = marshal.dumps(obj)
        data = memoryview(_HEAD.pack(len(body)) + body)
        while data:
            data = data[os.write(fd, data):]

    # The parser makes no reference cycles, and a collection would touch, and
    # so copy, every object the reader shares with the command's process.
    gc.disable()
    code = 1
    try:
        _exit_with_the_command(fd)
        start = time.process_time()
        try:
            for batch in _batches(lines, size=_FRAME_LINES):
                send(batch)
            last = ("end", time.process_time() - start)
        except (InputError, OSError, UnicodeDecodeError) as exc:
            import pickle  # only for the error frame

            last = ("error", pickle.dumps(exc))
        except Exception:
            import traceback  # only for the crash frame

            last = ("crash", traceback.format_exc())
        send(last)
        code = 0
    finally:
        os._exit(code)


def _exit_with_the_command(fd: int) -> None:
    """End the reader as soon as no process reads its pipe ``fd``: the command died.

    Blocked on a stalled input, such as a pipe whose producer waits, the
    reader would otherwise see the closed pipe only at its next frame. Linux
    reports POLLERR on a pipe's write end once its read end is closed, so a
    daemon thread waits for that.
    """
    if sys.platform != "linux":
        return

    def watch() -> None:
        poller = select.poll()
        poller.register(fd, 0)  # errors and hang-ups only
        poller.poll()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


# -- the walk -------------------------------------------------------------------


class Violation(NamedTuple):
    """One fault a walk found in a trace."""

    index: int  # event index, or the event count for end-of-trace problems
    code: str
    message: str


# A walk keeps this many violations and counts the rest, so that a trace of
# bad lines costs no memory per line.
KEPT_VIOLATIONS = 5


class ValidationReport:
    """One ``walk``'s violations (the first ``KEPT_VIOLATIONS`` of ``violation_count``),
    counts, and first ``InputError`` from a hook."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.counts = TraceCounts()
        self.error: InputError | None = None
        self.violation_count = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_or_raise(self) -> TraceCounts:
        """The counts of a walk that found no fault, or else its ``InputError``.

        An invalid trace raises one naming its first ``KEPT_VIOLATIONS``
        violations, even when a hook failed before them; otherwise the
        first ``InputError`` a hook raised is raised as it is.
        """
        if self.violations:
            lines = "; ".join(v.message for v in self.violations)
            raise InputError(f"invalid trace ({self.violation_count} violation(s)): {lines}")
        if self.error is not None:
            try:
                raise self.error
            finally:
                del self  # its traceback holds this frame; keep no cycle through it
        return self.counts


def walk(seq: Iterable[tuple], mode: str, reach=None, shadow=None, races=None,
         after_strand=None) -> ValidationReport:
    """Walk a trace once, in serial order, and pass its events to the hooks.

    ``seq`` is any iterable of events, read once: an ``EventSequence``, a
    ``TraceFile`` or ``iterparse``'s iterator. A ``ParseError`` or a read
    error of the source propagates from the walk, which then has walked
    at most the lines before it.

    Each control event is checked against the frame grammar of ``mode`` and
    counted, and only then handed to ``reach``'s hook for it, which places the
    strand that follows, then to ``on_strand_begin`` and ``after_strand`` with
    the new strand id. With a ``shadow``, reads and writes go to its
    ``on_read``/``on_write`` with ``reach.precedes``, and each race report is
    stored in ``races`` under its ``key()``, first occurrence only. Hooks are
    bound when the walk starts; ``shadow`` and ``after_strand`` need a
    ``reach``, and ``shadow`` needs ``races``. Without hooks the walk makes no
    call per event.

    The walk keeps the frame stack, and each frame entry keeps the detector's
    record of that frame, so a detector keeps none of its own:

    * ``on_child_begin(kind, handle)`` returns the new child's record;
    * ``on_return(child, frame)``, ``on_sync(child, frame)`` and
      ``on_get(handle, future, frame)`` get the records of the returning,
      synced or gotten child and of the frame the next strand runs in;
    * ``reach.root`` is the root frame's record.

    Violations, and the first ``InputError`` a hook raises, are kept in the
    report, never raised: the first ``KEPT_VIOLATIONS`` violations, and
    ``violation_count`` counts them all. After either, the hooks and the
    shadow are dropped and the rest of the trace is only checked and counted.
    """
    if mode not in (MODE_STRUCTURED, MODE_GENERAL):
        raise UsageError(f"unknown mode {mode!r}")
    if reach is None and (shadow is not None or after_strand is not None):
        raise UsageError("a shadow or an after_strand hook needs a reach")
    if shadow is not None and races is None:
        raise UsageError("a shadow needs a races dict")
    report = ValidationReport()
    violations = report.violations
    single_touch = mode == MODE_STRUCTURED

    # Whether the hooks and the shadow are bound; both drop at the first
    # violation or hook error.
    hooked = reach is not None
    live = shadow is not None
    if live:
        on_read, on_write, precedes = shadow.on_read, shadow.on_write, reach.precedes
    if hooked:
        child_begin, on_sync, on_get = reach.on_child_begin, reach.on_sync, reach.on_get
        on_return, strand_begin = reach.on_return, reach.on_strand_begin
        strand_begin(0)
        if after_strand is not None:
            after_strand(0)

    # handle -> the future's frame entry once it has returned, None before
    closed: dict[int, list | None] = {}
    got: set[int] = set()  # handles gotten so far; structured mode only
    # one entry per open frame: [record, handle or None, unsynced spawned children's entries]
    frames: list[list] = [[reach.root if hooked else None, None, []]]
    reads = writes = spawns = creates = syncs = gets = rets = 0
    cur = 0

    def flag(index: int, code: str, message: str) -> None:
        report.violation_count += 1
        if len(violations) < KEPT_VIOLATIONS:
            violations.append(Violation(index, code, message))

    i = -1
    for i, (k, fn, h, a) in enumerate(seq):
        if k == READ:
            reads += 1
            if live:
                rep = on_read(a, cur, precedes)
                if rep is not None:
                    races.setdefault(rep.key(), rep)
            continue
        if k == WRITE:
            writes += 1
            if live:
                for rep in on_write(a, cur, precedes):
                    races.setdefault(rep.key(), rep)
            continue
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
            if single_touch:
                got.add(h)
        elif k == RET:
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
        else:  # not a control event, so no strand begins
            flag(i, "unknown-kind", f"unknown event kind {k!r}")
            hooked = live = False
            continue
        cur += 1
        if bad is not None:
            flag(i, *bad)
            hooked = live = False  # from here on, only check and count
        elif hooked:
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
                if after_strand is not None:
                    after_strand(cur)
            except InputError as exc:
                # Without its traceback: its frames lead back to this one,
                # whose locals hold the report, a reference cycle.
                report.error = exc.with_traceback(None)
                hooked = live = False

    end = i + 1
    if len(frames) > 1:
        flag(end, "unclosed-frames", f"{len(frames) - 1} frame(s) never return")
    elif frames[0][2]:
        n = len(frames[0][2])
        flag(end, "unsynced-spawn", f"root ends with {n} unsynced spawned child(ren)")
    report.counts = TraceCounts(events=end, strands=cur + 1, reads=reads, writes=writes,
                                spawns=spawns, creates=creates, syncs=syncs, gets=gets, rets=rets)
    return report


def validate(seq: Iterable[tuple], mode: str) -> ValidationReport:
    """``walk`` with no hooks: check well-formedness for the given mode.

    A clean report means: every event is of a known kind, frames are
    balanced, every ``get`` names a known handle whose frame has already
    closed, every ``spawn`` is matched by a ``sync`` in its own frame before
    that frame returns, and (in structured mode) no handle is gotten more
    than once. The report keeps only the
    first ``KEPT_VIOLATIONS`` (five) violations; ``violation_count`` is the
    total.
    """
    return walk(seq, mode)
