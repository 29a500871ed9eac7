import io
import itertools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futurerd import trace
from futurerd.errors import InputError, ParseError, UsageError
from futurerd.multibags_plus import MultiBagsPlus
from futurerd.shadow import ShadowTable
from futurerd.trace import (
    MODE_GENERAL,
    MODE_STRUCTURED,
    READ,
    WRITE,
    EventSequence,
    parse,
    serialize,
    validate,
    walk,
)
from helpers import cr, gt, rd, rt, seq_of, sp, sy, wr


def test_empty_file_is_empty_sequence():
    seq = parse("")
    assert len(seq) == 0
    assert seq.counts.strands == 1  # the implicit root strand


def test_round_trip_seven_events():
    text = (
        '{"t":"create","f":1,"h":1}\n'
        '{"t":"w","a":4096}\n'
        '{"t":"ret"}\n'
        '{"t":"get","h":1}\n'
        '{"t":"r","a":4096}\n'
        '{"t":"spawn","f":2}\n'
        '{"t":"ret"}\n'
    )
    seq = parse(text)
    assert len(seq) == 7
    assert serialize(seq) == text
    assert serialize(parse(serialize(seq))) == text


_ONE_OF_EACH = [sp(1), cr(2, 3), sy(), gt(3), rt(), rd(4), wr(8)]


def test_each_kind_is_the_t_tag_serialize_writes_for_it():
    assert [ev.kind for ev in _ONE_OF_EACH] == [
        trace.SPAWN, trace.CREATE, trace.SYNC, trace.GET, trace.RET, READ, WRITE]
    for ev in _ONE_OF_EACH:
        assert json.loads(serialize(seq_of(ev)))["t"] == ev.kind


def test_parsed_kinds_are_the_module_constants():
    # The walk compares kinds with ==, which matches identical objects first.
    # Both paths hand out plain tuples, which the reader's frames carry as they are.
    canonical = serialize(seq_of(*_ONE_OF_EACH))
    loose = canonical.replace(":", ": ")
    swapped = "".join(json.dumps(dict(reversed(json.loads(line).items()))) + "\r\n"
                      for line in canonical.splitlines())
    assert all(trace._CANONICAL(line) for line in canonical.splitlines(keepends=True))
    for text in (loose, swapped):
        assert not any(trace._CANONICAL(line) for line in text.splitlines(keepends=True))
    for text in (canonical, loose, swapped):  # the regex path, then the json.loads path
        with _reader(text) as reader:
            frames = list(reader._read_frames())
        assert all(type(frame) is list for frame in frames)
        via_reader = [ev for frame in frames for ev in frame]
        for events in (list(trace.iterparse(text)), via_reader):
            assert events == _ONE_OF_EACH
            assert all(type(got) is tuple for got in events)
            assert all(got[0] is ev.kind for got, ev in zip(events, _ONE_OF_EACH))


def test_whitespace_is_ignored_in_round_trip():
    loose = '\n  {"t": "sync"}  \n\n{"t":"r", "a": 8}\n'
    assert serialize(parse(loose)) == '{"t":"sync"}\n{"t":"r","a":8}\n'


def test_unknown_kind_reports_line():
    with pytest.raises(ParseError) as exc:
        parse('{"t":"sync"}\n{"t":"q"}\n')
    assert exc.value.lineno == 2


@pytest.mark.parametrize(
    "line",
    ['{"t":"spawn"}', '{"t":"create","f":1}', '{"t":"r","a":-4}',
     '{"t":"get","h":"x"}', "[1,2]", "{broken"],
)
def test_malformed_lines(line):
    with pytest.raises(ParseError) as exc:
        parse(line + "\n")
    assert exc.value.lineno == 1


_UINTS = st.integers(min_value=0, max_value=2**64)
_ADDRS = st.integers(min_value=0, max_value=2**64 - 1)  # the wire format's uint64
_EVENTS = st.one_of(
    st.builds(sp, _UINTS),
    st.builds(cr, _UINTS, _UINTS),
    st.just(sy()),
    st.builds(gt, _UINTS),
    st.just(rt()),
    st.builds(rd, _ADDRS),
    st.builds(wr, _ADDRS),
)


def _dumps(ev):
    """The line ``json.dumps`` renders for ``ev`` in canonical key order."""
    obj = {"t": ev.kind}
    obj.update((key, v) for key, v in zip("fha", ev[1:]) if v is not None)
    return json.dumps(obj, separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(st.lists(_EVENTS, max_size=40))
def test_serialize_then_parse_is_the_identity(events):
    seq = EventSequence(events)
    text = serialize(seq)
    assert text == "".join(_dumps(ev) + "\n" for ev in events)
    assert all(trace._CANONICAL(line) for line in text.splitlines(keepends=True))
    assert parse(text).events == events


# Valid lines that are not in canonical form: they take the json.loads path
# and must parse to the event that path gives.
@pytest.mark.parametrize("line, event", [
    ('{"t": "r", "a": 8}', rd(8)),
    ('  {"t":"w","a":8}  ', wr(8)),
    ('{"a":8,"t":"r"}', rd(8)),
    ('{"h":2,"f":1,"t":"create"}', cr(1, 2)),
    ('{"t":"sync"}\r', sy()),
    ('{"t":"\\u0072","a":12}', rd(12)),
    ('{"t":"r","a":4,"a":8}', rd(8)),
    ('{"t":"get","h":-0}', gt(0)),
    ('{"t":"ret","a":3}', rt()),
])
def test_non_canonical_lines_parse_like_json(line, event):
    assert trace._CANONICAL(line + "\n") is None
    assert trace._json_event(line.strip(), 1) == event
    assert parse('{"t":"sync"}\n' + line + "\n").events == [sy(), event]


def test_crlf_lines_parse():
    text = '{"t":"spawn","f":1}\r\n{"t":"r","a":4}\r\n{"t":"ret"}\r\n{"t":"sync"}\r\n'
    assert parse(text).events == [sp(1), rd(4), rt(), sy()]


# Invalid lines, each with the message it raises (line 2 here).
@pytest.mark.parametrize("line, message", [
    ('{"t":"r","a":01}', "invalid JSON (Expecting ',' delimiter)"),
    ('{"t":"spawn","f":01}', "invalid JSON (Expecting ',' delimiter)"),
    ('{"t":"r","a":-1}', "field 'a' must be a non-negative integer"),
    ('{"t":"r","a":1.0}', "field 'a' must be a non-negative integer"),
    ('{"t":"r","a":1e3}', "field 'a' must be a non-negative integer"),
    ('{"t":"w","a":true}', "field 'a' must be a non-negative integer"),
    ('{"t":"r"}', "field 'a' must be a non-negative integer"),
    ('{"t":"create","f":1}', "field 'h' must be a non-negative integer"),
    ('{"t":"get"}', "field 'h' must be a non-negative integer"),
    ('{"t":"sync"}x', "invalid JSON (Extra data)"),
    ('{"t":"r","a":4}}', "invalid JSON (Extra data)"),
    ('{"t":"ret"} {"t":"ret"}', "invalid JSON (Extra data)"),
    ('{"t":[1]}', "unknown event kind [1]"),
    ('{"t":{"a":1}}', "unknown event kind {'a': 1}"),
])
def test_invalid_lines_raise_the_json_path_error(line, message):
    with pytest.raises(ParseError) as exc:
        parse('{"t":"sync"}\n' + line + "\n")
    assert exc.value.lineno == 2
    assert str(exc.value) == f"line 2: {message}"


# An address past uint64, and a field too long for ``int`` (4,300 digits by
# default), in canonical form and on the json.loads path.
_LONG = "1" * 5000


@pytest.mark.parametrize("line, message", [
    ('{"t":"w","a":18446744073709551616}', "field 'a' must be below 2^64"),
    ('{"t": "w", "a": 18446744073709551616}', "field 'a' must be below 2^64"),
    ('{"t":"w","a":99999999999999999999}', "field 'a' must be below 2^64"),
    (f'{{"t":"w","a":{_LONG}}}', "field 'a' must be below 2^64"),
    (f'{{"t": "w", "a": {_LONG}}}', "field 'a' must be below 2^64"),
    (f'{{"t":"spawn","f":{_LONG}}}', "field 'f' has too many digits"),
    (f'{{"t": "create", "f": 1, "h": {_LONG}}}', "field 'h' has too many digits"),
    ("[" * 100_000, "invalid JSON (nested too deeply)"),
])
def test_out_of_range_and_overlong_fields_raise_parse_errors(line, message):
    with pytest.raises(ParseError) as exc:
        parse('{"t":"sync"}\n' + line + "\n")
    assert str(exc.value) == f"line 2: {message}"


def test_the_largest_address_parses_on_both_paths():
    top = 2**64 - 1
    assert parse(f'{{"t":"w","a":{top}}}\n{{"t": "r", "a": {top}}}\n').events == [
        wr(top), rd(top)]
    # an over-long field that no event reads is ignored, like any extra field
    assert parse(f'{{"t":"ret","a":{_LONG}}}\n').events == [rt()]


def test_iterparse_reads_its_lines_as_it_is_iterated():
    endless = itertools.chain(['{"t":"w","a":4}\n', "\n"], itertools.repeat('{"t":"r","a":4}\n'))
    events = trace.iterparse(endless)
    assert [next(events) for _ in range(3)] == [wr(4), rd(4), rd(4)]
    with pytest.raises(ParseError) as exc:
        list(trace.iterparse('{"t":"w","a":4}\n\n{"t":"r","a":4}\n{"t":"q"}\n'))
    assert exc.value.lineno == 4


def test_trace_file_parses_its_file_on_each_pass(tmp_path):
    path = tmp_path / "t.jsonl"
    events = [sp(1), wr(4), rt(), sy()]
    trace.dump(EventSequence(events), path)
    seq = trace.load(path)
    assert isinstance(seq, trace.TraceFile) and isinstance(seq, EventSequence)
    assert repr(seq) == f"TraceFile({path!r})"
    assert list(seq) == events and seq.events == events and len(seq) == 4
    assert all(type(ev) is tuple for ev in seq)  # the walk's form
    assert all(type(ev) is trace.Event for ev in seq.events) and seq.events[1].addr == 4
    assert seq.counts.strands == 4 and validate(seq, MODE_STRUCTURED).ok
    path.write_text(serialize(EventSequence(events[:2])))
    assert seq.events == events[:2]  # read afresh, not kept


def test_walk_counts_the_events_it_reads_from_a_generator():
    text = '{"t":"spawn","f":1}\n{"t":"w","a":4}\n{"t":"ret"}\n'
    rep = walk(trace.iterparse(text), MODE_GENERAL)
    assert rep.counts.events == 3
    assert [(v.index, v.code) for v in rep.violations] == [(3, "unsynced-spawn")]
    assert walk(iter(()), MODE_GENERAL).counts.events == 0


def test_line_numbers_count_blank_lines_across_batches():
    n = trace._BATCH_LINES + trace._BATCH_LINES // 2
    with pytest.raises(ParseError) as exc:
        parse("\n" * n + '{"t":"w","a":4}\n' * n + '{"t":"q"}\n')
    assert exc.value.lineno == 2 * n + 1


def test_events_are_immutable_and_repeated_lines_share_one():
    seq = parse('{"t":"r","a":4}\n{"t":"r","a":4}\n')
    first, second = seq.events
    assert first is second
    with pytest.raises(AttributeError):
        first.addr = 8
    assert first == rd(4)


def test_more_distinct_lines_than_the_cache_holds():
    n = 2 * trace._CACHE_LINES + 5
    events = [wr(4 * i) for i in range(n)] + [rd(0)] * 3
    assert parse(serialize(EventSequence(events))).events == events


def test_counts():
    seq = seq_of(sp(1), wr(4), rt(), sy(), cr(2, 7), rd(4), rt(), gt(7))
    c = seq.counts
    assert (c.spawns, c.creates, c.syncs, c.gets, c.rets) == (1, 1, 1, 1, 2)
    assert c.reads == 1 and c.writes == 1 and c.accesses == 2
    assert c.strands == 1 + 6
    assert c.fork_points == 2 and c.future_ops == 2


def test_validate_mode_checked():
    with pytest.raises(UsageError):
        validate(EventSequence([]), "loose")
    # A shadow or a strand hook without a reach would be silently unused.
    with pytest.raises(UsageError):
        walk(EventSequence([]), MODE_GENERAL, shadow=ShadowTable())
    with pytest.raises(UsageError):
        walk(EventSequence([]), MODE_GENERAL, after_strand=print)


def test_get_before_future_return():
    seq = seq_of(cr(1, 1), gt(1), rt())
    rep = validate(seq, MODE_GENERAL)
    assert [v.code for v in rep.violations] == ["get-before-future-return"]


def test_single_touch_only_in_structured_mode():
    seq = seq_of(cr(1, 1), rt(), gt(1), gt(1))
    assert validate(seq, MODE_GENERAL).ok
    rep = validate(seq, MODE_STRUCTURED)
    assert [v.code for v in rep.violations] == ["single-touch"]


def test_unsynced_spawn_at_return_and_at_eof():
    seq = seq_of(sp(1), sp(2), rt(), rt())
    codes = [v.code for v in validate(seq, MODE_GENERAL).violations]
    assert "unsynced-spawn" in codes
    seq2 = seq_of(sp(1), rt())
    assert [v.code for v in validate(seq2, MODE_GENERAL).violations] == ["unsynced-spawn"]


def test_return_from_root_and_unclosed_frames():
    assert [v.code for v in validate(seq_of(rt()), MODE_GENERAL).violations] == [
        "return-from-root"
    ]
    assert [v.code for v in validate(seq_of(sp(1)), MODE_GENERAL).violations] == [
        "unclosed-frames"
    ]


def test_sync_without_spawn_and_unknown_and_duplicate_handles():
    rep = validate(seq_of(sy()), MODE_GENERAL)
    assert [v.code for v in rep.violations] == ["sync-without-spawn"]
    rep = validate(seq_of(gt(9)), MODE_GENERAL)
    assert [v.code for v in rep.violations] == ["unknown-handle"]
    rep = validate(seq_of(cr(1, 5), rt(), cr(2, 5), rt()), MODE_GENERAL)
    assert [v.code for v in rep.violations] == ["duplicate-handle"]


def test_an_unknown_event_kind_is_a_violation_not_a_return():
    # "write" is not an event kind: a write's kind is its wire tag "w".
    seq = seq_of(sp(1), trace.Event("write", addr=64), wr(64), sy())
    rep = validate(seq, MODE_GENERAL)
    assert [(v.index, v.code) for v in rep.violations] == [
        (1, "unknown-kind"), (3, "sync-without-spawn"), (4, "unclosed-frames")]
    assert rep.violations[0].message == "unknown event kind 'write'"
    assert rep.counts.rets == 0


def test_an_unknown_event_kind_begins_no_strand():
    seq = seq_of(sp(1), rt(), trace.Event("write", addr=64), sy())
    rep = validate(seq, MODE_GENERAL)
    assert [(v.index, v.code) for v in rep.violations] == [(2, "unknown-kind")]
    assert rep.counts.strands == 4  # the root's strand and one per control event
    assert rep.counts.events == 4


def test_serialize_refuses_an_unknown_kind_and_dump_writes_no_file(tmp_path):
    for bad in (trace.Event("write", addr=64), trace.Event("bogus")):
        with pytest.raises(UsageError, match=f"unknown event kind {bad.kind!r}"):
            serialize(seq_of(wr(8), bad))
        path = tmp_path / "bad.jsonl"
        with pytest.raises(UsageError):
            trace.dump(seq_of(wr(8), bad), str(path))
        assert not path.exists()


def test_clean_trace_is_clean_in_both_modes():
    seq = seq_of(sp(1), wr(8), rt(), sy(), cr(2, 3), wr(12), rt(), gt(3), rd(12))
    assert validate(seq, MODE_GENERAL).ok
    assert validate(seq, MODE_STRUCTURED).ok


def test_handle_messages_name_the_problem():
    rep = validate(seq_of(cr(1, 5), rt(), cr(2, 5), rt()), MODE_GENERAL)
    assert rep.violations[0].message == "duplicate future handle 5"
    rep = validate(seq_of(cr(1, 1), gt(1), rt()), MODE_GENERAL)
    assert rep.violations[0].message == "get of handle 1 before its future returned"


class Recorder:
    """Reachability hooks that log each call; ``fail_at`` makes one hook raise.

    A child's record is ``(kind, fork strand)`` and the root's is ``"root"``.
    ``children`` keeps each record ``on_child_begin`` returned, and ``joins``
    logs the records that each return, sync and get receives.
    """

    root = "root"

    def __init__(self, fail_at=None):
        self.calls = []
        self.children = []
        self.joins = []
        self.fail_at = fail_at
        self.cur = None

    def _log(self, call):
        if call == self.fail_at:
            raise InputError(f"refused {call}")
        self.calls.append(call)

    def on_child_begin(self, kind, handle):
        self._log(kind)
        self.children.append((kind, self.cur))
        return self.children[-1]

    def on_sync(self, child, frame):
        self._log("sync")
        self.joins.append(("sync", child, frame))

    def on_get(self, handle, future, frame):
        self._log("get")
        self.joins.append(("get", future, frame))

    def on_return(self, child, frame):
        self._log("ret")
        self.joins.append(("ret", child, frame))

    def on_strand_begin(self, s):
        self._log(s)
        self.cur = s


def test_walk_hands_each_hook_the_records_of_the_child_and_the_frame():
    a, b, c = ("spawn", 0), ("spawn", 1), ("spawn", 3)
    fut, d = ("create", 8), ("spawn", 10)
    seq = seq_of(
        sp(1), sp(2), rt(), sp(3), rt(), sy(), sy(), rt(),  # a spawns b and c, syncs c first
        cr(4, 9), rt(), sp(5), gt(9), gt(9), rt(), gt(9), sy(), sy(),  # d gets fut twice
    )
    reach = Recorder()
    assert walk(seq, MODE_GENERAL, reach).ok
    assert reach.joins == [
        ("ret", b, a), ("ret", c, a), ("sync", c, a), ("sync", b, a), ("ret", a, "root"),
        ("ret", fut, "root"), ("get", fut, d), ("get", fut, d), ("ret", d, "root"),
        ("get", fut, "root"), ("sync", d, "root"), ("sync", a, "root"),
    ]
    assert reach.children == [a, b, c, fut, d]
    # the walk hands back the very objects on_child_begin returned
    handed = {id(r) for _, child, frame in reach.joins for r in (child, frame)}
    assert handed == {id(r) for r in reach.children} | {id(reach.root)}
    assert all(child is reach.children[3] for kind, child, _ in reach.joins if kind == "get")


def test_walk_counts_everything_but_stops_the_hooks_at_the_first_violation():
    seq = seq_of(sp(1), rt(), sy(), sy(), sp(2), rt(), sy())
    reach, strands = Recorder(), []
    rep = walk(seq, MODE_GENERAL, reach, after_strand=strands.append)
    assert [(v.index, v.code) for v in rep.violations] == [(3, "sync-without-spawn")]
    assert rep.error is None
    assert reach.calls == [0, "spawn", 1, "ret", 2, "sync", 3]
    assert strands == [0, 1, 2, 3]
    assert rep.counts == seq.counts
    assert (rep.counts.events, rep.counts.strands, rep.counts.syncs) == (7, 8, 3)


def test_walk_keeps_a_hook_error_and_only_checks_the_rest():
    seq = seq_of(cr(1, 1), rt(), gt(1), sp(2), rt(), sy())
    reach = Recorder(fail_at="get")
    rep = walk(seq, MODE_GENERAL, reach)
    assert rep.ok and str(rep.error) == "refused get"
    assert reach.calls == [0, "create", 1, "ret", 2]
    assert rep.counts == seq.counts
    # The grammar is still checked after the hook failed.
    rep = walk(seq_of(*seq.events, sy()), MODE_GENERAL, Recorder(fail_at="get"))
    assert [v.code for v in rep.violations] == ["sync-without-spawn"]
    assert str(rep.error) == "refused get"


def test_walk_drops_the_shadow_after_a_violation():
    # The writes at 64 race before the bad sync; the one at 128 comes after it.
    seq = seq_of(sp(1), wr(64), rt(), wr(64), sy(), sy(), wr(128), rd(64))
    shadow = ShadowTable()
    rep = walk(seq, MODE_GENERAL, MultiBagsPlus(), shadow)
    assert [v.index for v in rep.violations] == [5]
    assert list(shadow.races) == [(64, "write-write", 1, 2)]
    assert shadow.cells_touched == 1 and shadow.queries == 1
    assert (rep.counts.reads, rep.counts.writes) == (1, 3)


# -- the forked reader ---------------------------------------------------------------


def _reader(text):
    return trace.ReaderTrace(io.StringIO(text))


def _drain(events):
    """The events as plain tuples, and the text of the ParseError that ended them, if any."""
    got = []
    try:
        for ev in events:
            got.append(tuple(ev))
    except ParseError as exc:
        return got, str(exc)
    return got, None


def _both_paths(text):
    """``_drain`` of ``text`` through ``iterparse`` and through a ``ReaderTrace``, which agree."""
    with _reader(text) as reader:
        via_reader = _drain(reader)
    assert via_reader == _drain(trace.iterparse(text))
    return via_reader


_BIG = st.integers(min_value=10**20, max_value=10**21 - 1)  # 21 digits
_LINES = st.one_of(
    _EVENTS.map(_dumps),
    _EVENTS.map(lambda ev: _dumps(ev).replace(":", ": ").replace(",", ", ")),
    st.builds('{{"t":"spawn","f":{}}}'.format, _BIG),
    st.builds('{{"t": "get", "h": {}}}'.format, _BIG),
    st.builds('{{"t":"w","a":{}}}'.format, st.just(2**64) | _BIG),
    st.sampled_from(["", "  "]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n"])), max_size=30))
def test_the_reader_yields_what_iterparse_yields(lines):
    _both_paths("".join(line + end for line, end in lines))


def test_a_parse_error_comes_after_the_events_before_it_on_both_paths():
    n = trace._BATCH_LINES + 3 * trace._FRAME_LINES + 10
    text = '{"t":"r","a":4}\n' * n + "\n" + '{"t":"q"}\n'
    assert _both_paths(text) == (
        [(READ, None, None, 4)] * n, f"line {n + 2}: unknown event kind 'q'")


def test_a_run_of_blank_lines_longer_than_a_batch_on_both_paths():
    n = trace._BATCH_LINES + trace._FRAME_LINES + 3
    text = '{"t":"w","a":4}\n' + "\n" * n + '{"t":"r","a":8}\n{"t":"q"}\n'
    assert _both_paths(text) == (
        [(WRITE, None, None, 4), (READ, None, None, 8)],
        f"line {n + 3}: unknown event kind 'q'")


@pytest.mark.parametrize("size", [trace._FRAME_LINES, trace._BATCH_LINES])
def test_a_malformed_line_that_opens_a_batch_follows_a_full_one(size):
    lines = ['{"t":"w","a":4}\n'] * size + ['{"t":"q"}\n']
    batches = trace._batches(iter(lines), size=size)
    assert len(next(batches)) == size
    with pytest.raises(ParseError, match=f"line {size + 1}:"):
        next(batches)  # no empty list first
    assert _both_paths("".join(lines)) == (
        [(WRITE, None, None, 4)] * size, f"line {size + 1}: unknown event kind 'q'")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(['{"t":"w","a":4}\n', '{"t":"sync"}\n', "\n"]), max_size=40),
       st.integers(min_value=1, max_value=6))
def test_each_batch_holds_the_events_of_size_lines(lines, size):
    expected = [parse("".join(lines[i:i + size])).events for i in range(0, len(lines), size)]
    assert list(trace._batches(iter(lines), size=size)) == [b for b in expected if b]


def test_each_reader_frame_holds_the_events_of_frame_lines():
    lines = (['{"t":"w","a":4}\n', "\n", '{"t":"r","a":8}\n'] * trace._FRAME_LINES
             + ["\n"] * trace._FRAME_LINES + ['{"t":"sync"}\n'])
    with _reader("".join(lines)) as reader:
        frames = list(reader._read_frames())
    assert frames == list(trace._batches(iter(lines), size=trace._FRAME_LINES))
    # Two of each three lines hold an event; the fourth 1,024 lines hold none.
    assert [len(f) for f in frames] == [683, 682, 683, 1]


def test_the_reader_has_one_pass_and_reports_its_parse_time():
    reader = _reader('{"t":"w","a":4}\n{"t":"r","a":8}\n')
    assert reader.parse_s is None
    assert walk(reader, MODE_GENERAL).counts.events == 2
    assert reader.parse_s >= 0
    with pytest.raises(UsageError, match="one pass only"):
        iter(reader)
    reader.close()  # a second close does nothing


def test_parse_errors_survive_pickling():
    back = pickle.loads(pickle.dumps(ParseError(7, "bad")))
    assert type(back) is ParseError and str(back) == str(ParseError(7, "bad"))
    assert back.lineno == 7
