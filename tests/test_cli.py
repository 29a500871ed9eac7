import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import futurerd
from futurerd import cli, engine, reachdag, trace
from futurerd.multibags_plus import MultiBagsPlus
from futurerd.shadow import WRITE_WRITE, RaceReport, ShadowTable
from helpers import cr, gt, rt, seq_of, sp, sy, wr


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


def test_detect_stats_prints_the_phase_timings(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    run(["gen", "lcs-structured", "--n", "3", "--inject-race", "-o", str(out)])
    assert run(["detect", "--algo", "multibags", "--mode", "structured",
                "--trace", str(out), "--stats"]) == cli.EXIT_RACES
    lines = capsys.readouterr().out.splitlines()
    secs = {}
    for line in lines:
        key, _, val = line.strip().partition(": ")
        if val.endswith("s") and key in ("load", "validate", "replay", "elapsed"):
            secs[key] = float(val[:-1])
    assert set(secs) == {"load", "replay", "elapsed"}
    assert min(secs.values()) >= 0
    assert secs["elapsed"] >= max(secs["load"], secs["replay"])
    # The JSON report carries no timings and stays reproducible.
    assert run(["detect", "--algo", "multibags", "--mode", "structured",
                "--trace", str(out), "--json", "--stats"]) == cli.EXIT_RACES
    first = capsys.readouterr().out
    run(["detect", "--algo", "multibags", "--mode", "structured",
         "--trace", str(out), "--json", "--stats"])
    assert capsys.readouterr().out == first and "load" not in first


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
    monkeypatch.setattr(reachdag, "MAX_NODES", 5)
    capsys.readouterr()
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(out), "--json"]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: trace needs 6 attached sets, over the closure limit of 5")
    # a fork-join trace keeps a single attached set, the root's
    fj = tmp_path / "fj.jsonl"
    run(["gen", "random", "--events", "300", "--p-create", "0", "--p-get", "0",
         "-o", str(fj)])
    assert run(["detect", "--algo", "plus", "--mode", "general",
                "--trace", str(fj)]) == cli.EXIT_OK


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
            return super().on_write(addr, strand, precedes) + [
                RaceReport(addr, WRITE_WRITE, 0, strand)]

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


def test_dump_dag(tmp_path):
    out = tmp_path / "t.jsonl"
    dot = tmp_path / "t.dot"
    run(["gen", "lcs-structured", "--n", "2", "-o", str(out)])
    run(["detect", "--algo", "plus", "--mode", "structured",
         "--trace", str(out), "--dump-dag", str(dot)])
    assert dot.read_text().startswith("digraph")


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
