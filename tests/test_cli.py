import contextlib
import errno
import gc
import io
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import futurerd
from futurerd import cli, engine, gen_lcs_general, gen_lcs_structured, gen_random, oracle, reachdag, trace
from futurerd.errors import InvariantError, UsageError
from futurerd.multibags_plus import MultiBagsPlus
from futurerd.shadow import WRITE_WRITE, RaceReport, ShadowTable
from helpers import cr, gt, rd, rt, seq_of, sp, sy, wr


def run(args):
    return cli.run_cli(args)


def test_gen_then_detect_clean(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert run(["gen", "lcs-structured", "--n", "4", "--seed", "2", "-o", str(out)]) == 0
    assert run(["detect", "--algo", "plus", "--mode", "structured",
                "--trace", str(out), "--json"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["races"] == [] and doc["algo"] == "plus"


def test_detect_json_reports_race_and_exit_code(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(["gen", "lcs-general", "--n", "3", "--inject-race", "-o", str(out)])
    code = run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(out), "--json"])
    assert code == cli.EXIT_RACES
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(doc["races"]) == 1
    assert doc["races"][0]["kind"] == "write-write"


def test_detect_human_output_with_stats(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    run(["gen", "random", "--events", "120", "--seed", "3", "-o", str(out)])
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(out), "--stats"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "0 race(s) found" in text and "t1_events" in text and "elapsed" in text


def test_invalid_input_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t":"nonsense"}\n')
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(bad)]) == cli.EXIT_BAD_INPUT
    unsynced = tmp_path / "unsynced.jsonl"
    unsynced.write_text(trace.serialize(seq_of(sp(1))))
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(unsynced)]) == cli.EXIT_BAD_INPUT
    # structured-only algorithm on a general trace
    multi = tmp_path / "multi.jsonl"
    run(["gen", "lcs-general", "--n", "3", "-o", str(multi)])
    assert run(["detect", "--algo", "multibags", "--mode", "structured",
                "--trace", str(multi)]) == cli.EXIT_BAD_INPUT
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(tmp_path / "missing.jsonl")]) == cli.EXIT_BAD_INPUT


def _timings(text):
    secs = {}
    for line in text.splitlines():
        key, _, val = line.strip().partition(": ")
        if val.endswith("s") and key in ("load", "parse", "parse_cpu", "validate", "replay",
                                         "parse+replay", "elapsed", "startup_cpu"):
            secs[key] = float(val[:-1])
    return secs


def _peak_rss_mb(text):
    """The ``peak_rss`` line of ``detect --stats``, in MB."""
    return float(re.search(r"^  peak_rss: (\d+\.\d\d) MB$", text, re.M)[1])


def _command_env() -> dict:
    """This process's environment, with the package under test first on the path."""
    src = str(Path(futurerd.__file__).parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_detect_stats_prints_the_phase_timings(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    run(["gen", "lcs-structured", "--n", "3", "--inject-race", "-o", str(out)])
    argv = ["detect", "--algo", "multibags", "--mode", "structured", "--trace", str(out)]
    # A forked reader parses the trace while the walk reads it: the reader's
    # CPU seconds, and the walk's wall seconds, waits on the reader included.
    # startup_cpu is this process's CPU seconds before the command began.
    # peak_rss is this process's peak resident set, the walk's and the output's.
    assert run(argv + ["--stats"]) == cli.EXIT_RACES
    out = capsys.readouterr().out
    secs = _timings(out)
    assert set(secs) == {"parse_cpu", "replay", "elapsed", "startup_cpu"}
    assert min(secs.values()) >= 0
    assert secs["elapsed"] >= secs["replay"]
    assert _peak_rss_mb(out) > 0
    # Without os.fork, the walk parses the trace itself: one timing covers both.
    with pytest.MonkeyPatch.context() as m:
        m.delattr(os, "fork")
        assert run(argv + ["--stats"]) == cli.EXIT_RACES
    out = capsys.readouterr().out
    secs = _timings(out)
    assert set(secs) == {"parse+replay", "elapsed", "startup_cpu"}
    assert _peak_rss_mb(out) > 0
    assert min(secs.values()) >= 0
    assert secs["elapsed"] >= secs["parse+replay"]
    # --dump-dag builds the dag inside the one walk, so the forked reader
    # parses the trace beside it, as without --dump-dag.
    assert run(argv + ["--stats", "--dump-dag", str(tmp_path / "t.dot")]) == cli.EXIT_RACES
    secs = _timings(capsys.readouterr().out)
    assert set(secs) == {"parse_cpu", "replay", "elapsed", "startup_cpu"}
    assert min(secs.values()) >= 0
    assert secs["elapsed"] >= secs["replay"]
    # The JSON report carries no timings and stays reproducible.
    assert run(argv + ["--json", "--stats"]) == cli.EXIT_RACES
    first = capsys.readouterr().out
    run(argv + ["--json", "--stats"])
    assert capsys.readouterr().out == first and "parse" not in first and "load" not in first
    assert "startup" not in first


def test_detect_stats_prints_the_shadow_sizes(tmp_path, capsys):
    # 200 adjacent words fill most of one 1,024-word block, which gets a
    # page; 3 words far apart stay in the shadow's dict.
    dense = [wr(4096 + 4 * i) for i in range(200)]
    scattered = [rd(1 << 30), wr(1 << 34), rd(1 << 40)]
    path = tmp_path / "t.jsonl"
    path.write_text(trace.serialize(seq_of(*dense, *scattered, rd(4096))))
    argv = ["detect", "--algo", "multibags", "--mode", "structured", "--trace", str(path)]
    assert run(argv + ["--stats"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "\n  shadow_words: 203\n  shadow_pages: 1\n" in out
    # The JSON report leaves the sizes out, with --stats or without.
    assert run(argv + ["--json", "--stats"]) == cli.EXIT_OK
    with_stats = capsys.readouterr().out
    assert run(argv + ["--json"]) == cli.EXIT_OK
    assert capsys.readouterr().out == with_stats and "shadow" not in with_stats


def test_unreadable_trace_exits_2_without_a_traceback(tmp_path, capsys):
    # A directory fails to open; a UTF-16 byte-order mark fails to decode.
    utf16 = tmp_path / "utf16.jsonl"
    utf16.write_bytes(b'\xff\xfe{"t":"w","a":4}\n')
    commands = (["detect", "--algo", "plus", "--mode", "general"],
                ["verify", "--algo", "plus"],
                ["stats"])
    for path, message in ((tmp_path, str(tmp_path)),
                          (utf16, "trace is not UTF-8 text")):
        for command in commands:
            assert run(command + ["--trace", str(path)]) == cli.EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err


def test_unwritable_output_exits_2_without_a_traceback(tmp_path, capsys):
    # A directory cannot be opened for writing, whether by gen -o or by --dump-dag.
    assert run(["gen", "lcs-structured", "--n", "2", "-o", str(tmp_path)]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    out = tmp_path / "race.jsonl"
    run(["gen", "lcs-structured", "--n", "2", "--inject-race", "-o", str(out)])
    capsys.readouterr()
    assert run(["detect", "--algo", "plus", "--mode", "structured", "--trace", str(out),
                "--dump-dag", str(tmp_path)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def _detect_invalid(tmp_path, capsys, events, algo, mode):
    path = tmp_path / "invalid.jsonl"
    trace.dump(seq_of(*events), str(path))
    code = run(["detect", "--algo", algo, "--mode", mode, "--trace", str(path), "--json"])
    return code, capsys.readouterr()


def test_invalid_trace_exits_2_even_after_races(tmp_path, capsys):
    # The two writes race before the second sync breaks the grammar.
    code, captured = _detect_invalid(
        tmp_path, capsys, [sp(1), wr(64), rt(), wr(64), sy(), sy()], "plus", "general")
    assert code == cli.EXIT_BAD_INPUT
    assert captured.out == ""
    assert captured.err == (
        "error: invalid trace (1 violation(s)): sync with no outstanding spawned child\n")


def test_a_trace_of_bad_lines_keeps_five_violations_in_memory(tmp_path, capsys):
    n = 200_000
    path = tmp_path / "syncs.jsonl"
    path.write_text('{"t":"sync"}\n' * n)
    tracemalloc.start()
    try:
        assert run(["detect", "--algo", "plus", "--mode", "general",
                    "--trace", str(path)]) == cli.EXIT_BAD_INPUT
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        f"error: invalid trace ({n} violation(s)): "
        + "; ".join(["sync with no outstanding spawned child"] * 5) + "\n")
    assert peak < 1 << 20, peak


_RACY = trace.serialize(seq_of(sp(1), wr(64), rt(), wr(64), sy()))  # races at line 4


def _stdin(monkeypatch, data: bytes):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


@pytest.mark.parametrize("last, message", [
    (b'{"t":"w","a":4\xff}\n', "error: line 6: trace is not UTF-8 text (byte 0xff at column 15)\n"),
    (b'{"t":"w","a":\n', "error: line 6: invalid JSON (Expecting value)\n"),
])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_bad_last_line_exits_2_after_races_with_no_report(source, last, message, tmp_path,
                                                            capsys, monkeypatch):
    # The walk has found the race when it reaches the last line.
    data = _RACY.encode() + last
    path = tmp_path / "t.jsonl"
    path.write_bytes(data)
    if source == "stdin":
        _stdin(monkeypatch, data)
        path = "-"
    for algo in ("plus", "multibags"):
        assert run(["detect", "--algo", algo, "--mode", "structured", "--trace", str(path),
                    "--json"]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message
        if source == "stdin":
            break


def test_every_command_reads_a_trace_from_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "race.jsonl"
    run(["gen", "lcs-structured", "--n", "4", "--inject-race", "-o", str(path)])
    data = path.read_bytes()
    dot = tmp_path / "t.dot"
    for argv in (["detect", "--algo", "plus", "--mode", "general", "--json"],
                 ["detect", "--algo", "multibags", "--mode", "structured", "--dump-dag", str(dot)],
                 ["verify", "--algo", "plus"],
                 ["stats"]):
        capsys.readouterr()
        expected = run(argv + ["--trace", str(path)])
        want = capsys.readouterr()
        dotted = dot.read_text() if dot.exists() else None
        # Each command reads its one pass of standard input, or lists it first.
        _stdin(monkeypatch, data)
        assert run(argv + ["--trace", "-"]) == expected != cli.EXIT_BROKEN
        assert capsys.readouterr() == want
        if dotted is not None:
            assert dot.read_text() == dotted
            dot.unlink()
    monkeypatch.setattr(sys, "stdin", None)  # as when file descriptor 0 is closed
    assert run(["stats", "--trace", "-"]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: --trace -: standard input is closed\n"


def test_gen_to_stdout_pipes_into_detect(tmp_path):
    path = tmp_path / "race.jsonl"
    env = _command_env()
    cmd = [sys.executable, "-m", "futurerd.cli"]
    gen = ["gen", "lcs-structured", "--n", "4", "--inject-race", "-o"]
    detect = ["detect", "--algo", "multibags", "--mode", "structured", "--json", "--trace"]
    subprocess.run(cmd + gen + [str(path)], check=True, capture_output=True, env=env)
    from_file = subprocess.run(cmd + detect + [str(path)], capture_output=True, env=env)
    assert from_file.returncode == cli.EXIT_RACES
    producer = subprocess.Popen(cmd + gen + ["-"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
    piped = subprocess.run(cmd + detect + ["-"], stdin=producer.stdout, capture_output=True,
                           env=env)
    producer.stdout.close()
    assert producer.wait() == 0
    assert producer.stderr.read() == b"wrote 91 events to standard output\n"
    producer.stderr.close()
    assert (piped.returncode, piped.stdout, piped.stderr) == (
        from_file.returncode, from_file.stdout, from_file.stderr)


def test_detect_streams_a_file_in_memory_independent_of_its_length(tmp_path, capsys):
    # One distinct line repeated: the walk keeps no list slot per line.
    peaks = {}
    for n in (20_000, 200_000):
        path = tmp_path / f"{n}.jsonl"
        path.write_text('{"t":"r","a":4}\n' * n)
        tracemalloc.start()
        try:
            assert run(["detect", "--algo", "multibags", "--mode", "structured",
                        "--trace", str(path), "--json"]) == cli.EXIT_OK
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f'"t1_events":{n},' in capsys.readouterr().out
    assert max(peaks.values()) < 1 << 20, peaks
    assert peaks[200_000] < 1.5 * peaks[20_000], peaks


def _racy_words(n):
    """A trace of ``n`` write-write races: a child and its continuation write ``n`` words."""
    words = [wr(4 * i) for i in range(n)]
    return seq_of(sp(1), *words, rt(), *words, sy())


def _dot_of(lines):
    """A trace whose dot text has ``lines`` lines: 3 for the empty trace, 4 more
    per future created and never gotten, 7 per spawn, ret and sync."""
    creates = next(a for a in range(7) if (lines - 3 - 4 * a) % 7 == 0)
    events = [ev for h in range(creates) for ev in (cr(1, h), rt())]
    events += [sp(1), rt(), sy()] * ((lines - 3 - 4 * creates) // 7)
    return seq_of(*events)


def _detect_child(path, *flags):
    """``detect --algo plus --mode general`` on ``path`` in a fresh, unbuffered process."""
    return subprocess.run([sys.executable, "-m", "futurerd.cli", "detect", "--algo", "plus",
                           "--mode", "general", "--trace", str(path), *flags],
                          capture_output=True, env={**_command_env(), "PYTHONUNBUFFERED": "1"},
                          timeout=60)


@pytest.mark.parametrize("n", [0, 1, 4096, 4097, cli._CHUNK - 3, cli._CHUNK - 2])
def test_streamed_reports_are_the_text_of_the_whole_report(n, tmp_path, capsys):
    # The JSON report is n + 3 pieces (head, races, stats, line end) and the
    # race lines n: around a whole number of chunks, in-process and in a child.
    path = tmp_path / "races.jsonl"
    trace.dump(_racy_words(n), path)
    report = engine.detect(trace.load(path), "plus", "general")
    assert len(report.races) == n
    human = "".join(f"race {r.kind} at 0x{r.addr:x}: strand {r.prior} vs strand {r.current}\n"
                    for r in report.races) + f"{n} race(s) found\n"
    code = cli.EXIT_RACES if n else cli.EXIT_OK
    for flags, expected in ((["--json"], report.to_json() + "\n"), ([], human)):
        assert run(["detect", "--algo", "plus", "--mode", "general", "--trace", str(path),
                    *flags]) == code
        assert capsys.readouterr() == (expected, "")
        proc = _detect_child(path, *flags)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (code, expected, b"")


@pytest.mark.parametrize("lines", [cli._CHUNK, cli._CHUNK + 1, 4096, 4097])
def test_a_streamed_dot_file_is_the_whole_dot_text(lines, tmp_path, capsys):
    path, dot = tmp_path / "t.jsonl", tmp_path / "t.dot"
    trace.dump(_dot_of(lines), path)
    expected = oracle.to_dot(oracle.build(trace.load(path)))
    assert len(expected.splitlines()) == lines
    assert run(["detect", "--algo", "plus", "--mode", "general", "--trace", str(path),
                "--dump-dag", str(dot)]) == cli.EXIT_OK
    assert dot.read_text() == expected
    dot.unlink()
    assert _detect_child(path, "--dump-dag", str(dot)).returncode == cli.EXIT_OK
    assert dot.read_text() == expected


@pytest.mark.parametrize("flags", [["--json"], []])
def test_the_output_phase_holds_no_whole_report(flags, tmp_path, monkeypatch):
    # After the walk, writing a 20,001-race report takes less memory than a
    # quarter of its text: it is written a chunk at a time, never joined whole.
    path, out = tmp_path / "races.jsonl", tmp_path / "report.txt"
    trace.dump(_racy_words(20_001), path)
    real, after_walk = engine.detect, []

    def detect(*args):
        report = real(*args)
        after_walk.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return report

    monkeypatch.setattr(engine, "detect", detect)
    tracemalloc.start()
    try:
        with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            assert run(["detect", "--algo", "plus", "--mode", "general", "--trace", str(path),
                        *flags]) == cli.EXIT_RACES
        output_peak = tracemalloc.get_traced_memory()[1] - after_walk[0]
    finally:
        tracemalloc.stop()
    assert output_peak < out.stat().st_size / 4, (output_peak, out.stat().st_size)


def test_no_file_stays_open_after_an_early_stop_or_an_error(tmp_path, capsys, monkeypatch):
    opened = []
    real_open = open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(trace, "open", recording_open, raising=False)
    good = tmp_path / "good.jsonl"
    run(["gen", "random", "--events", "150", "--seed", "4", "-o", str(good)])
    monkeypatch.setattr(cli, "open", recording_open, raising=False)  # the reader's file
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(_RACY.encode() + b'{"t":"w","a":\n')
    real = MultiBagsPlus.precedes
    with monkeypatch.context() as m:  # verify stops its walk at the first divergence
        m.setattr(MultiBagsPlus, "precedes", lambda self, u: not real(self, u))
        assert run(["verify", "--algo", "plus", "--trace", str(good)]) == cli.EXIT_BROKEN
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(bad)]) == cli.EXIT_BAD_INPUT
    with monkeypatch.context() as m:  # a hook fails with a bug, not with bad input
        def broken(self, child, frame):
            raise RuntimeError("broken hook")
        m.setattr(MultiBagsPlus, "on_return", broken)
        with pytest.raises(RuntimeError):
            futurerd.detect(trace.load(good), "plus", "general")
    capsys.readouterr()
    assert len(opened) == 3 and all(fh.closed for fh in opened)


def test_detect_through_the_reader_prints_what_the_library_reports(tmp_path, capsys):
    traces = {
        "random": gen_random(n_events=3000, p_spawn=0.15, p_create=0.05, p_get=0.05, seed=2,
                             inject_race=True),
        "lcs-structured": gen_lcs_structured(12, seed=1, inject_race=True),
        "lcs-general": gen_lcs_general(12, seed=1, inject_race=True),
    }
    for name, seq in traces.items():
        path = tmp_path / f"{name}.jsonl"
        trace.dump(seq, path)
        runs = [("plus", "general")]
        if name == "lcs-structured":
            runs.append(("multibags", "structured"))
        for algo, mode in runs:
            code = run(["detect", "--algo", algo, "--mode", mode, "--trace", str(path), "--json"])
            report = engine.detect(trace.load(path), algo, mode)
            assert report.races and code == cli.EXIT_RACES
            assert capsys.readouterr().out == report.to_json() + "\n"


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_reader_outlives_the_command(tmp_path, capsys, monkeypatch):
    good = tmp_path / "good.jsonl"
    trace.dump(gen_random(n_events=5000, p_spawn=0.15, p_create=0.05, p_get=0.05, seed=2), good)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(good.read_bytes() + b'{"t":"w","a":\n')
    argv = ["detect", "--algo", "plus", "--mode", "general", "--json", "--trace"]
    assert run(argv + [str(good)]) == cli.EXIT_OK
    _no_child_left()
    assert run(argv + [str(bad)]) == cli.EXIT_BAD_INPUT
    _no_child_left()
    calls = []
    real = MultiBagsPlus.on_return

    def broken(self, child, frame):  # a walk that raises part-way, with a bug
        calls.append(child)
        if len(calls) == 300:
            raise RuntimeError("broken hook")
        real(self, child, frame)

    monkeypatch.setattr(MultiBagsPlus, "on_return", broken)
    with pytest.raises(RuntimeError, match="broken hook"):
        run(argv + [str(good)])
    _no_child_left()


@pytest.mark.parametrize("exc", [InvariantError("a broken invariant"),
                                 UsageError("a misused structure")],
                         ids=["invariant", "usage"])
def test_an_internal_error_exits_3_with_no_verdict(exc, tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.jsonl"
    trace.dump(gen_random(n_events=5000, p_spawn=0.15, p_create=0.05, p_get=0.05, seed=2,
                          inject_race=True), path)
    calls = []
    real = MultiBagsPlus.on_return

    def broken(self, child, frame):  # a detector bug, part-way through the walk
        calls.append(child)
        if len(calls) == 300:
            raise exc
        real(self, child, frame)

    monkeypatch.setattr(MultiBagsPlus, "on_return", broken)
    assert run(["detect", "--algo", "plus", "--mode", "general", "--json",
                "--trace", str(path)]) == cli.EXIT_BROKEN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {exc}\n"
    _no_child_left()


def test_a_reader_frame_cut_short_gives_no_verdict(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.jsonl"
    trace.dump(gen_lcs_structured(4, seed=1, inject_race=True), path)

    def cut_short(lines, fd):  # the reader: a head promising 100 bytes, then 10 of them
        os.write(fd, trace._HEAD.pack(100) + bytes(10))
        os._exit(0)

    monkeypatch.setattr(trace, "_read_ahead", cut_short)
    assert run(["detect", "--algo", "multibags", "--mode", "structured", "--json",
                "--trace", str(path)]) == cli.EXIT_BROKEN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: the trace reader \(pid \d+\) exited with code 0 before the end "
                        r"of the trace\n", captured.err), captured.err
    _no_child_left()


@pytest.mark.parametrize("exc, code, message", [
    (None, cli.EXIT_BROKEN, "was killed by signal 9 before the end of the trace"),
    (RuntimeError("a reader bug"), cli.EXIT_BROKEN, "RuntimeError: a reader bug"),
    (OSError(5, "Input/output error"), cli.EXIT_BAD_INPUT, "error: [Errno 5] Input/output error\n"),
], ids=["killed", "crashed", "read-error"])
def test_a_reader_that_dies_after_its_first_frame_gives_no_verdict(exc, code, message, tmp_path,
                                                                   capsys, monkeypatch):
    path = tmp_path / "t.jsonl"
    trace.dump(gen_random(n_events=5000, p_spawn=0.15, p_create=0.05, p_get=0.05, seed=2,
                          inject_race=True), path)
    real = trace._batches

    def dying(*args, **kwargs):  # the reader runs it: one batch, then death by ``exc``
        parsed = real(*args, **kwargs)
        yield next(parsed)
        parsed.close()
        if exc is None:
            os.kill(os.getpid(), signal.SIGKILL)
        raise exc

    monkeypatch.setattr(trace, "_batches", dying)
    for argv in (["detect", "--algo", "plus", "--mode", "general", "--json"], ["stats"]):
        assert run(argv + ["--trace", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        if code == cli.EXIT_BROKEN:
            assert captured.err.startswith("error: the trace reader ")
        _no_child_left()


_CLOSED_PIPE_COMMANDS = [
    ["detect", "--algo", "plus", "--mode", "general", "--trace"],
    ["verify", "--algo", "plus", "--trace"],
    ["stats", "--trace"],
    ["gen", "lcs-structured", "--n", "3", "-o"],
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", _CLOSED_PIPE_COMMANDS, ids=lambda c: c[0])
def test_a_closed_pipe_exits_141_and_a_full_disk_exits_2(command, tmp_path):
    # The trace is race-free, so exit 1 would claim races that were not found.
    clean, invalid = tmp_path / "clean.jsonl", tmp_path / "invalid.jsonl"
    trace.dump(gen_lcs_structured(3), clean)
    invalid.write_text('{"t":"sync"}\n')
    env = {k: v for k, v in _command_env().items() if k != "PYTHONUNBUFFERED"}

    def run_into(path, stdout, stderr, unbuffered=False):
        """Run the command with ``stdout`` and ``stderr``; a None stream is a
        pipe whose reader has closed it."""
        r, w = os.pipe()
        os.close(r)
        argv = [sys.executable, "-m", "futurerd.cli", *command,
                "-" if command[0] == "gen" else str(path)]
        try:
            return subprocess.run(argv, stdout=w if stdout is None else stdout,
                                  stderr=w if stderr is None else stderr,
                                  env={**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env)
        finally:
            os.close(w)

    for unbuffered in (False, True):  # a write fails at the last flush, or at once
        proc = run_into(clean, None, subprocess.PIPE, unbuffered)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_PIPE, b"")
        assert run_into(clean, None, None, unbuffered).returncode == cli.EXIT_CLOSED_PIPE
        with open("/dev/full", "wb") as full:
            proc = run_into(clean, full, subprocess.PIPE, unbuffered)
        enospc = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert (proc.returncode, proc.stderr.decode()) == (cli.EXIT_BAD_INPUT,
                                                           f"error: {enospc}\n")
    if command[0] != "gen":  # its error line, then, meets the closed stderr
        assert run_into(invalid, None, None).returncode == cli.EXIT_CLOSED_PIPE
    _no_child_left()


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="finds the reader in /proc")
def test_a_killed_command_takes_its_reader_along_on_a_stalled_input():
    env = _command_env()
    proc = subprocess.Popen([sys.executable, "-m", "futurerd.cli", "detect", "--algo", "plus",
                             "--mode", "general", "--trace", "-"], stdin=subprocess.PIPE,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    try:
        proc.stdin.write(b'{"t":"r","a":4}\n' * 5000)  # then the producer stalls
        proc.stdin.flush()
        deadline = time.monotonic() + 10
        while not (readers := Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text()):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        reader = int(readers.split()[0])
        time.sleep(0.5)  # the reader parses what it has and blocks on the stalled input
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while _alive(reader):
            assert time.monotonic() < deadline, "the reader outlived the command"
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()


def test_without_fork_the_command_parses_in_process(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.jsonl"
    trace.dump(gen_lcs_structured(6, seed=1, inject_race=True), path)
    argv = ["detect", "--algo", "multibags", "--mode", "structured", "--trace", str(path),
            "--json"]
    assert run(argv) == cli.EXIT_RACES
    forked = capsys.readouterr()
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(trace, "ReaderTrace", None)  # any use of it would fail
    assert run(argv) == cli.EXIT_RACES
    assert capsys.readouterr() == forked
    _stdin(monkeypatch, path.read_bytes())
    assert run(argv[:-3] + ["--trace", "-", "--json"]) == cli.EXIT_RACES
    assert capsys.readouterr() == forked


_BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


@pytest.mark.parametrize("reader", [True, False], ids=["forked-reader", "in-process"])
def test_a_trace_may_start_with_a_byte_order_mark(reader, tmp_path, capsys, monkeypatch):
    # RFC 8259 lets a parser skip a leading BOM; elsewhere U+FEFF is bad JSON.
    plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
    trace.dump(gen_lcs_structured(4, inject_race=True), plain)
    bom.write_bytes(_BOM + plain.read_bytes())
    late = tmp_path / "late.jsonl"
    late.write_bytes(b'{"t":"w","a":4}\n' + _BOM + b'{"t":"w","a":4}\n')
    argv = ["detect", "--algo", "plus", "--mode", "general", "--json", "--trace"]
    assert run(argv + [str(plain)]) == cli.EXIT_RACES
    want = capsys.readouterr()
    if not reader:
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(trace, "ReaderTrace", None)  # any use of it would fail
    for path, code, out, err in [
            (bom, cli.EXIT_RACES, want.out, ""),
            (late, cli.EXIT_BAD_INPUT, "", "error: line 2: invalid JSON (Expecting value)\n")]:
        assert run(argv + [str(path)]) == code
        assert capsys.readouterr() == (out, err)
        _stdin(monkeypatch, path.read_bytes())
        assert run(argv + ["-"]) == code
        assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("reader", [True, False], ids=["forked-reader", "in-process"])
def test_a_byte_that_is_not_utf8_is_refused_at_its_line(reader, tmp_path, capsys, monkeypatch):
    # Past a batch and a frame of lines; a bad byte inside a JSON string, or
    # after leading spaces, or starting a UTF-8-encoded surrogate, is refused
    # too, and its column counts characters, an undecodable byte as one.
    head = b'{"t":"r","a":8}\n' * (trace._BATCH_LINES + trace._FRAME_LINES)
    line = len(head.splitlines()) + 1
    path = tmp_path / "t.jsonl"
    if not reader:
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(trace, "ReaderTrace", None)  # any use of it would fail
    for bad, byte, column in [(b'{"t":"w","a":4,"x":"\xff"}', 0xff, 21),
                              (b'  {"t":"w","a":4\xfe}', 0xfe, 17),
                              (b'{"t":"w","a":4,"x":"\xc3\xa9\xed\xa0\x80"}', 0xed, 22)]:
        path.write_bytes(head + bad + b'\n{"t":"w","a":8}\n')
        err = (f"error: line {line}: trace is not UTF-8 text "
               f"(byte 0x{byte:02x} at column {column})\n")
        for source in (str(path), "-"):
            _stdin(monkeypatch, path.read_bytes())
            assert run(["detect", "--algo", "plus", "--mode", "general", "--json",
                        "--trace", source]) == cli.EXIT_BAD_INPUT
            assert capsys.readouterr() == ("", err)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files in /proc")
@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_when_the_reader_cannot_start_the_command_parses_in_process(call, tmp_path, capsys,
                                                                     monkeypatch):
    path = tmp_path / "t.jsonl"
    trace.dump(gen_lcs_structured(6, seed=1, inject_race=True), path)
    runs = [(["detect", "--algo", "multibags", "--mode", "structured", "--json"], source)
            for source in (str(path), "-")] + [(["stats"], str(path)), (["stats"], "-")]

    def each_run():
        for argv, source in runs:
            if source == "-":
                _stdin(monkeypatch, path.read_bytes())
            yield run(argv + ["--trace", source]), capsys.readouterr()

    forked = list(each_run())
    assert [code for code, _ in forked] == [cli.EXIT_RACES] * 2 + [cli.EXIT_OK] * 2

    def refuse(*args):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, call, refuse)
    open_files = os.listdir("/proc/self/fd")
    assert list(each_run()) == forked
    assert os.listdir("/proc/self/fd") == open_files


@pytest.mark.skipif(sys.platform != "linux", reason="the reader starts its thread on Linux")
def test_a_reader_that_cannot_start_its_thread_exits_alone(tmp_path):
    # The reader is a fork of the command: an exception that escaped it would
    # run the rest of the command a second time, in the reader.
    path = tmp_path / "t.jsonl"
    trace.dump(gen_lcs_structured(4, seed=1, inject_race=True), path)
    env = _command_env()
    script = ("import threading\n"
              "def refuse(self):\n"
              "    raise RuntimeError(\"can't start new thread\")\n"
              "threading.Thread.start = refuse\n"
              "from futurerd.cli import main\n"
              "main()\n")
    proc = subprocess.run([sys.executable, "-c", script, "detect", "--algo", "multibags",
                           "--mode", "structured", "--trace", str(path), "--json"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN and proc.stdout == ""
    assert re.fullmatch(r"error: the trace reader \(pid \d+\) exited with code 1 before the end "
                        r"of the trace\n", proc.stderr), proc.stderr


def test_violation_outranks_an_earlier_hook_error(tmp_path, capsys):
    # multibags rejects the get of handle 2 as unstructured future use, but
    # the trace is invalid anyway: spawn 4 never returns.
    events = [cr(1, 1), cr(2, 2), rt(), rt(), cr(3, 3), gt(2), rt(), sp(4)]
    code, captured = _detect_invalid(tmp_path, capsys, events, "multibags", "structured")
    assert code == cli.EXIT_BAD_INPUT
    assert captured.out == ""
    assert captured.err == "error: invalid trace (1 violation(s)): 1 frame(s) never return\n"
    # Without the dangling spawn the hook's own error is the answer.
    code, captured = _detect_invalid(tmp_path, capsys, events[:-1], "multibags", "structured")
    assert code == cli.EXIT_BAD_INPUT
    assert captured.err.startswith("error: unstructured future use: creator of handle 2")


def test_closure_limit_exits_2_and_names_the_attached_sets(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.jsonl"
    run(["gen", "lcs-general", "--n", "3", "-o", str(out)])  # 31 attached sets
    monkeypatch.setattr(reachdag, "CLOSURE_BUDGET", 3)  # 5 sets' rows take 5*5//8 bytes
    capsys.readouterr()
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(out), "--json"]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the closure dag refuses 6 attached sets: its rows could take 4 bytes, "
        "over the budget of 3 bytes\n")
    # a fork-join trace keeps a single attached set, the root's
    fj = tmp_path / "fj.jsonl"
    run(["gen", "random", "--events", "300", "--p-create", "0", "--p-get", "0",
         "-o", str(fj)])
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(fj)]) == cli.EXIT_OK


def test_verify_over_the_oracle_budget_exits_2_and_names_the_budget(tmp_path, capsys,
                                                                    monkeypatch):
    out = tmp_path / "t.jsonl"
    run(["gen", "random", "--events", "150", "--seed", "4", "-o", str(out)])
    strands = trace.load(str(out)).counts.strands
    monkeypatch.setattr(oracle, "REACH_BUDGET", strands * strands // 8 - 1)
    capsys.readouterr()
    assert run(["verify", "--algo", "plus", "--trace", str(out)]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the brute-force dag refuses {strands} strands: its reachability rows "
        f"could take {strands * strands // 8:,} bytes, over the budget of "
        f"{strands * strands // 8 - 1:,} bytes\n")
    monkeypatch.setattr(oracle, "REACH_BUDGET", strands * strands // 8)
    assert run(["verify", "--algo", "plus", "--trace", str(out)]) == cli.EXIT_OK


def test_verify_clean_and_faulty(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.jsonl"
    run(["gen", "random", "--events", "150", "--seed", "4", "-o", str(out)])
    assert run(["verify", "--algo", "plus", "--trace", str(out)]) == cli.EXIT_OK
    assert "no divergence" in capsys.readouterr().out

    real = MultiBagsPlus.precedes

    def lying(self, u):
        return not real(self, u)

    monkeypatch.setattr(MultiBagsPlus, "precedes", lying)
    assert run(["verify", "--algo", "plus", "--trace", str(out)]) == cli.EXIT_BROKEN
    assert "DIVERGENCE" in capsys.readouterr().err


def test_verify_stops_at_a_divergence_before_it_reads_a_later_bad_line(tmp_path, capsys,
                                                                       monkeypatch):
    path = tmp_path / "t.jsonl"
    path.write_text(_RACY + '{"t":"q"}\n')
    assert run(["verify", "--algo", "plus", "--trace", str(path)]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: line 6: unknown event kind 'q'\n"
    real = MultiBagsPlus.precedes
    monkeypatch.setattr(MultiBagsPlus, "precedes", lambda self, u: not real(self, u))
    assert run(["verify", "--algo", "plus", "--trace", str(path)]) == cli.EXIT_BROKEN
    assert capsys.readouterr().err == (
        "DIVERGENCE at strand 1: detector says precedes(0)=False but the dag says True\n")


def test_verify_holds_the_race_contract_on_repeated_writes(tmp_path, capsys, monkeypatch):
    # The shadow keeps one last writer per word, so it reports two of the
    # three write-write pairs here; every report is real and the word is
    # covered, which is all it promises.
    out = tmp_path / "w.jsonl"
    trace.dump(seq_of(sp(1), wr(64), rt(), sp(2), wr(64), rt(), wr(64), sy(), sy()), str(out))
    for algo in ("plus", "multibags"):
        assert run(["verify", "--algo", algo, "--trace", str(out)]) == cli.EXIT_OK
        assert "2 of 3 racing pair(s) reported" in capsys.readouterr().out

    class Inventive(ShadowTable):
        def on_write(self, addr, strand, precedes):
            made_up = RaceReport(addr, WRITE_WRITE, 0, strand)
            self.races[made_up.key()] = made_up
            return super().on_write(addr, strand, precedes)

    monkeypatch.setattr(engine, "ShadowTable", Inventive)
    assert run(["verify", "--algo", "plus", "--trace", str(out)]) == cli.EXIT_BROKEN
    assert ("RACE CONTRACT BROKEN unsound=[(64, 'write-write', 0, 1), "
            "(64, 'write-write', 0, 3), (64, 'write-write', 0, 4)] missed_words=[]"
            in capsys.readouterr().err)


def test_verify_compares_unaligned_accesses_by_word(tmp_path, capsys):
    # Bytes 64 and 65 lie in one 4-byte word: the shadow reports the word at
    # 64, and the brute-force dag must key its races the same way.
    out = tmp_path / "u.jsonl"
    trace.dump(seq_of(sp(1), wr(64), rt(), wr(65), sy()), str(out))
    for algo in ("plus", "multibags"):
        assert run(["verify", "--algo", algo, "--trace", str(out)]) == cli.EXIT_OK
        assert "1 of 1 racing pair(s) reported" in capsys.readouterr().out
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(out), "--json"]) == cli.EXIT_RACES
    races = json.loads(capsys.readouterr().out)["races"]
    assert races == [{"addr": 64, "kind": "write-write", "prior": 1, "current": 2}]


def test_readme_json_example(tmp_path, capsys):
    out = tmp_path / "race.jsonl"
    run(["gen", "lcs-structured", "--n", "4", "--inject-race", "-o", str(out)])
    capsys.readouterr()
    assert run(["detect", "--algo", "multibags", "--mode", "structured",
                "--trace", str(out), "--json"]) == cli.EXIT_RACES
    assert capsys.readouterr().out == (
        '{"algo":"multibags","mode":"structured",'
        '"races":[{"addr":1098764,"kind":"write-write","prior":17,"current":20}],'
        '"stats":{"t1_events":91,"m":47,"n":16,"k":28,"strands":45,"queries":31,'
        '"union_ops":40,"find_ops":43,"attached_sets":0,'
        '"both_attached_syncs":0}}\n')


def test_stats_subcommand(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    run(["gen", "random", "--events", "100", "--seed", "1", "-o", str(out)])
    capsys.readouterr()
    assert run(["stats", "--trace", str(out)]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["events"] >= 100 and doc["strands"] == doc["spawns"] + doc[
        "creates"] + doc["syncs"] + doc["gets"] + doc["rets"] + 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t":"sync"}\n{"t":"ret"}\n')
    assert run(["stats", "--trace", str(bad)]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid trace (2 violation(s)): sync with no outstanding spawned child; "
        "ret event in the implicit root frame\n")


@pytest.mark.parametrize("algo", ["plus", "multibags"])
def test_verify_words_an_invalid_trace_as_stats_does(algo, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t":"sync"}\n{"t":"ret"}\n')
    assert run(["stats", "--trace", str(bad)]) == cli.EXIT_BAD_INPUT
    stats_err = capsys.readouterr().err
    assert run(["verify", "--algo", algo, "--trace", str(bad)]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == stats_err


def test_dump_dag(tmp_path):
    out = tmp_path / "t.jsonl"
    dot = tmp_path / "t.dot"
    run(["gen", "lcs-structured", "--n", "2", "-o", str(out)])
    run(["detect", "--algo", "plus", "--mode", "structured",
         "--trace", str(out), "--dump-dag", str(dot)])
    assert dot.read_text().startswith("digraph")


@pytest.mark.parametrize("events, algo, mode, message", [
    ([sp(1), wr(64), rt(), wr(64), sy(), sy()], "plus", "general",
     "invalid trace (1 violation(s)): sync with no outstanding spawned child"),
    ([cr(1, 1), rt(), gt(1), gt(1)], "multibags", "structured",
     "invalid trace (1 violation(s)): handle 1 gotten more than once"),
    ([sp(1), cr(2, 1), rt(), rt(), gt(1), sy()], "multibags", "structured",
     "unstructured future use: creator of handle 1 does not precede its get"),
])
def test_dump_dag_of_an_invalid_trace_exits_2_and_writes_nothing(events, algo, mode, message,
                                                                 tmp_path, capsys):
    # The dag is built only from a trace that detect's walk has accepted.
    dot = tmp_path / "t.dot"
    path = tmp_path / "invalid.jsonl"
    trace.dump(seq_of(*events), str(path))
    assert run(["detect", "--algo", algo, "--mode", mode, "--trace", str(path),
                "--dump-dag", str(dot)]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not dot.exists()


def test_dump_dag_from_stdin_writes_the_file_the_path_writes(tmp_path, capsys, monkeypatch):
    path = tmp_path / "race.jsonl"
    run(["gen", "lcs-general", "--n", "4", "--inject-race", "-o", str(path)])
    argv = ["detect", "--algo", "plus", "--mode", "general", "--dump-dag"]
    from_path, from_stdin = tmp_path / "path.dot", tmp_path / "stdin.dot"
    assert run(argv + [str(from_path), "--trace", str(path)]) == cli.EXIT_RACES
    _stdin(monkeypatch, path.read_bytes())
    assert run(argv + [str(from_stdin), "--trace", "-"]) == cli.EXIT_RACES
    assert from_stdin.read_text() == from_path.read_text() == oracle.to_dot(
        oracle.build(trace.load(path)))
    # An invalid trace on standard input writes no file either.
    capsys.readouterr()
    _stdin(monkeypatch, trace.serialize(seq_of(sp(1), wr(64), rt(), wr(64), sy(), sy())).encode())
    invalid = tmp_path / "invalid.dot"
    assert run(argv + [str(invalid), "--trace", "-"]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == (
        "error: invalid trace (1 violation(s)): sync with no outstanding spawned child\n")
    assert not invalid.exists()


def test_gen_round_trips_through_files(tmp_path):
    out = tmp_path / "t.jsonl"
    run(["gen", "random", "--events", "200", "--seed", "11",
         "--p-spawn", "0.2", "--p-create", "0.1", "--p-get", "0.05", "-o", str(out)])
    seq = trace.load(out)
    assert trace.serialize(seq) == out.read_text()


def _bad_argument(args, tmp_path, capsys):
    """Run ``args``; return argparse's message after checking it exited 2 and wrote nothing."""
    out = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit) as exc:
        run(args + ["-o", str(out)] if args[0] == "gen" else args)
    assert exc.value.code == cli.EXIT_BAD_INPUT
    assert not out.exists()
    return capsys.readouterr().err


def test_verify_rejects_a_negative_sample(tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    trace.dump(seq_of(sp(1), rt(), sy()), str(path))
    err = _bad_argument(["verify", "--algo", "plus", "--trace", str(path), "--sample", "-1"],
                        tmp_path, capsys)
    assert "--sample: must be at least 1, got -1" in err


def test_gen_rejects_zero_blocks(tmp_path, capsys):
    err = _bad_argument(["gen", "lcs-structured", "--n", "0"], tmp_path, capsys)
    assert "--n: must be at least 1, got 0" in err


def test_gen_rejects_a_probability_above_one(tmp_path, capsys):
    err = _bad_argument(["gen", "random", "--p-spawn", "2"], tmp_path, capsys)
    assert "--p-spawn: must be in [0, 1], got 2.0" in err


def test_gen_rejects_a_negative_event_budget(tmp_path, capsys):
    err = _bad_argument(["gen", "random", "--events", "-5"], tmp_path, capsys)
    assert "--events: must be at least 1, got -5" in err


@pytest.mark.parametrize("family", ["lcs-structured", "lcs-general"])
def test_gen_refuses_a_race_in_a_single_block_as_bad_input(family, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code = run(["gen", family, "--n", "1", "--inject-race", "-o", str(out)])
    assert code == cli.EXIT_BAD_INPUT and not out.exists()
    assert capsys.readouterr().err == "error: cannot inject a race with a single block\n"


def test_library_calls_leave_the_root_logger_alone(monkeypatch):
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    monkeypatch.setattr(root, "level", logging.WARNING)
    seq = seq_of(cr(1, 1), wr(64), rt(), wr(64), gt(1))
    assert futurerd.detect(seq, "plus", "general").races
    assert futurerd.verify(seq, "plus").ok
    assert root.handlers == [] and root.level == logging.WARNING


def test_an_in_process_run_cli_leaves_the_root_logger_alone(tmp_path, monkeypatch, capsys):
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    monkeypatch.setattr(root, "level", logging.WARNING)
    monkeypatch.setenv("FUTURERD_LOG", "info")
    path = tmp_path / "t.jsonl"
    trace.dump(seq_of(sp(1), wr(64), rt(), wr(64), sy()), str(path))
    assert run(["detect", "--algo", "plus", "--mode", "general", "--trace", str(path)]) == 1
    assert root.handlers == [] and root.level == logging.WARNING
    assert logging.getLogger("futurerd").level == logging.NOTSET


def test_only_the_command_turns_the_cycle_collector_off(tmp_path, monkeypatch):
    seq = seq_of(cr(1, 1), wr(64), rt(), wr(64), gt(1))
    path = tmp_path / "t.jsonl"
    trace.dump(seq, str(path))
    argv = ["detect", "--algo", "plus", "--mode", "general", "--trace", str(path), "--json"]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert cli.run_cli(argv) == cli.EXIT_RACES
            assert futurerd.detect(seq, "plus", "general").races
            assert futurerd.verify(seq, "plus").ok
            assert gc.isenabled() is enabled
        gc.enable()
        monkeypatch.setattr(sys, "argv", ["futurerd", *argv])
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert stop.value.code == cli.EXIT_RACES
        assert not gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("exc", [RuntimeError("a bug"), MemoryError()])
def test_a_crash_exits_3_with_its_traceback_never_1(exc, monkeypatch, capsys):
    def crash(argv=None):
        raise exc

    monkeypatch.setattr(cli, "run_cli", crash)
    was_enabled = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as stop:
            cli.main()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert stop.value.code == cli.EXIT_BROKEN
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and type(exc).__name__ in err


def test_futurerd_log_info_reaches_stderr_from_the_cli(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.dump(seq_of(sp(1), wr(64), rt(), wr(64), sy()), str(path))
    src = str(Path(futurerd.__file__).parent.parent)
    env = {**os.environ, "FUTURERD_LOG": "info",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "futurerd.cli", "detect", "--algo", "plus",
                           "--mode", "general", "--trace", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EXIT_RACES
    assert "futurerd: detect algo=plus mode=general strands=4 races=1" in proc.stderr


# Modules that only other commands, a crash, a reader error or FUTURERD_LOG use.
_NOT_FOR_DETECT = ("futurerd.oracle", "futurerd.generators", "dataclasses", "logging", "pickle",
                   "resource")


@pytest.mark.parametrize("algo, mode, gen", [("plus", "general", gen_lcs_general),
                                             ("multibags", "structured", gen_lcs_structured)])
def test_detect_imports_only_what_its_walk_runs(algo, mode, gen, tmp_path):
    path = tmp_path / "t.jsonl"
    trace.dump(gen(3, seed=1, inject_race=True), path)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "futurerd.cli", "detect",
                           "--algo", algo, "--mode", mode, "--trace", str(path), "--json"],
                          capture_output=True, text=True, env=_command_env(), timeout=60)
    assert proc.returncode == cli.EXIT_RACES, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"futurerd", "futurerd.engine", "futurerd.trace"} <= imported
    assert imported.isdisjoint(_NOT_FOR_DETECT), sorted(imported & set(_NOT_FOR_DETECT))


def test_every_exported_name_resolves_in_a_fresh_process():
    # oracle and generators load on first access: a star import, getattr and
    # dir each see every name of __all__.
    script = (
        "import sys, futurerd\n"
        "lazy = {'futurerd.oracle', 'futurerd.generators'}\n"
        "assert lazy.isdisjoint(sys.modules)\n"
        "assert set(futurerd.__all__) <= set(dir(futurerd))\n"
        "ns = {}\n"
        "exec('from futurerd import *', ns)\n"
        "assert lazy <= set(sys.modules)\n"
        "assert all(ns[n] is getattr(futurerd, n) for n in futurerd.__all__)\n"
        "from futurerd import oracle, generators\n"
        "assert futurerd.build is oracle.build and futurerd.gen_random is generators.gen_random\n"
        "try:\n"
        "    futurerd.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_command_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'futurerd' has no attribute 'no_such_name'\n"


def test_gen_verify_and_dump_dag_run_from_a_fresh_process(tmp_path):
    cmd = [sys.executable, "-m", "futurerd.cli"]
    path, dot = tmp_path / "t.jsonl", tmp_path / "t.dot"
    env = _command_env()
    subprocess.run(cmd + ["gen", "lcs-general", "--n", "3", "--inject-race", "-o", str(path)],
                   check=True, capture_output=True, env=env, timeout=60)
    assert path.read_text() == trace.serialize(gen_lcs_general(3, inject_race=True))
    proc = subprocess.run(cmd + ["verify", "--algo", "plus", "--trace", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_OK and proc.stdout.startswith("verified: "), proc.stderr
    proc = subprocess.run(cmd + ["detect", "--algo", "plus", "--mode", "general", "--trace",
                                 str(path), "--dump-dag", str(dot)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_RACES, proc.stderr
    assert dot.read_text() == oracle.to_dot(oracle.build(trace.load(path)))
