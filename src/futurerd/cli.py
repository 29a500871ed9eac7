"""Command-line interface.

Subcommands: detect, verify, gen, stats. ``--trace -`` reads the trace from
standard input and ``gen -o -`` writes it to standard output, so ``gen`` can
be piped into the others. Exit codes: 0 = no race found, 1 = race(s)
found, 2 = invalid input or arguments, an unreadable trace, a line that is
not UTF-8 (the error names it), an unwritable output file, a trace whose
closure rows could pass their 2 GiB budget (``reachdag.CLOSURE_BUDGET``,
k²/8 bytes for k attached sets), or, for ``verify``, a trace whose
brute-force dag passes its 256 MiB budget (``oracle.REACH_BUDGET`` charges
S²/8 bytes for S strands; the rows hold about S²/16), 3 = verification
divergence, a broken race contract, an internal invariant failure, the
death of the trace reader process before the end of the trace, or any
other crash (its traceback is printed), 141 =
stdout or stderr is a closed pipe (``detect | head -1``), as for SIGPIPE.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time

from . import engine, trace
from .errors import InputError, InvariantError, ReaderError, UsageError

EXIT_OK = 0
EXIT_RACES = 1
EXIT_BAD_INPUT = 2
EXIT_BROKEN = 3
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE


def _checked(cast, ok, rule: str):
    """An argparse type: ``cast(text)``, refused unless ``ok`` holds for it."""
    def parse(text: str):
        v = cast(text)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {v}")
        return v
    parse.__name__ = cast.__name__  # argparse's "invalid int value" names it
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "at least 1")
_PROBABILITY = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_TRACE_HELP = "the trace file, or - for standard input"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="futurerd",
                                description="trace-driven race detection for futures")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="run race detection over a trace")
    d.add_argument("--algo", choices=[engine.ALGO_MULTIBAGS, engine.ALGO_PLUS], required=True)
    d.add_argument("--mode", choices=[trace.MODE_STRUCTURED, trace.MODE_GENERAL], required=True)
    d.add_argument("--trace", required=True, metavar="FILE", help=_TRACE_HELP)
    d.add_argument("--json", action="store_true", help="print the machine-readable report")
    d.add_argument("--stats", action="store_true", help="include run statistics")
    d.add_argument("--dump-dag", metavar="FILE.dot", help="write the strand dag as GraphViz")

    v = sub.add_parser("verify", help="check detector answers against the brute-force dag")
    v.add_argument("--algo", choices=[engine.ALGO_MULTIBAGS, engine.ALGO_PLUS], required=True)
    v.add_argument("--trace", required=True, metavar="FILE", help=_TRACE_HELP)
    v.add_argument("--sample", type=_COUNT, default=None, metavar="N")
    v.add_argument("--seed", type=int, default=0, metavar="S")

    g = sub.add_parser("gen", help="generate a trace")
    g.add_argument("family", choices=["lcs-structured", "lcs-general", "random"])
    g.add_argument("--n", type=_COUNT, default=4, help="blocks per side (lcs families)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--inject-race", action="store_true")
    g.add_argument("--events", type=_COUNT, default=200, help="event budget (random family)")
    g.add_argument("--p-spawn", type=_PROBABILITY, default=0.15)
    g.add_argument("--p-create", type=_PROBABILITY, default=0.10)
    g.add_argument("--p-get", type=_PROBABILITY, default=0.08)
    g.add_argument("-o", "--out", required=True, metavar="FILE",
                   help="the trace file to write, or - for standard output")

    s = sub.add_parser("stats", help="print trace counts without detection")
    s.add_argument("--trace", required=True, metavar="FILE", help=_TRACE_HELP)
    return p


@contextlib.contextmanager
def _load(path: str):
    """The trace at ``path``, or on standard input for "-", parsed as it is walked.

    A ``trace.ReaderTrace`` parses it in a forked reader process, ahead of
    the one walk, and is closed, its reader killed and reaped, when the
    ``with`` block ends. The file is opened here, before the fork, and the
    reader reads its own copy. Without ``os.fork``, or when the reader
    cannot start (no process or descriptor to spare), the walk parses the
    trace itself: the file through ``trace.load``, standard input through
    ``trace.iterparse``. Each path reads the trace as ``trace.DECODING``
    says, so a byte that is not UTF-8 is a ``ParseError`` naming its line. A
    trace that cannot be opened or read raises ``OSError``, which ``run_cli``
    reports as bad input.
    """
    if path == "-":
        if sys.stdin is None:
            raise InputError("--trace -: standard input is closed")
        lines = io.TextIOWrapper(sys.stdin.buffer, **trace.DECODING)
        seq = trace.iterparse(lines)
    else:
        seq = trace.load(path)
        lines = open(path, "r", **trace.DECODING)
    try:
        reader = trace.ReaderTrace(lines) if hasattr(os, "fork") else contextlib.nullcontext(seq)
    except ReaderError:
        reader = contextlib.nullcontext(seq)
    finally:
        if path != "-":  # the reader has its own copy; the fallback opens the file again
            lines.close()
    with reader as seq:
        yield seq


def _write(path: str, text: str) -> None:
    """Write an output file, or standard output for "-"."""
    if path == "-":
        print(text, end="", flush=True)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_detect(args) -> int:
    startup_cpu = time.process_time()  # the interpreter, ``site`` and the imports
    start = time.perf_counter()
    with _load(args.trace) as seq:
        walk_start = time.perf_counter()
        events = seq
        if args.dump_dag:
            from . import oracle

            dag = oracle.OracleDag()
            events = oracle.follow(dag, seq)
        report = engine.detect(events, args.algo, args.mode)
        end = time.perf_counter()
    if args.dump_dag:  # built by the walk that has accepted the trace
        _write(args.dump_dag, oracle.to_dot(dag))
    if args.json:
        print(report.to_json())
    else:
        for r in report.races:
            print(f"race {r.kind} at 0x{r.addr:x}: strand {r.prior} vs strand {r.current}")
        print(f"{len(report.races)} race(s) found")
        if args.stats:
            for key, val in report.stats._asdict().items():
                print(f"  {key}: {val}")
            if isinstance(seq, trace.ReaderTrace):  # the reader's CPU, beside the walk
                print(f"  parse_cpu: {seq.parse_s:.6f}s")
                print(f"  replay: {end - walk_start:.6f}s")
            else:  # the walk reads and parses the trace as it goes
                print(f"  parse+replay: {end - walk_start:.6f}s")
            print(f"  elapsed: {end - start:.6f}s")
            print(f"  startup_cpu: {startup_cpu:.6f}s")
    return EXIT_RACES if report.races else EXIT_OK


def _cmd_verify(args) -> int:
    with _load(args.trace) as seq:
        report = engine.verify(seq, args.algo, sample=args.sample, seed=args.seed)
    if report.divergence is not None:
        print(f"DIVERGENCE {report.divergence.describe()}", file=sys.stderr)
        return EXIT_BROKEN
    if not report.ok:
        print(f"RACE CONTRACT BROKEN unsound={sorted(report.unsound_races)} "
              f"missed_words={sorted(report.missed_words)}", file=sys.stderr)
        return EXIT_BROKEN
    print(f"verified: {report.checked} reachability answers, no divergence; "
          f"{len(report.detector_races)} of {len(report.oracle_races)} racing pair(s) "
          f"reported, all real, on every racy word")
    return EXIT_OK


def _cmd_gen(args) -> int:
    from . import generators

    try:  # a generator's UsageError names a bad command-line argument here
        if args.family == "random":
            seq = generators.gen_random(
                n_events=args.events,
                p_spawn=args.p_spawn,
                p_create=args.p_create,
                p_get=args.p_get,
                seed=args.seed,
                inject_race=args.inject_race,
            )
        else:
            lcs = (generators.gen_lcs_structured if args.family == "lcs-structured"
                   else generators.gen_lcs_general)
            seq = lcs(args.n, seed=args.seed, inject_race=args.inject_race)
    except UsageError as exc:
        raise InputError(str(exc)) from exc
    _write(args.out, trace.serialize(seq))
    if args.out == "-":
        print(f"wrote {len(seq)} events to standard output", file=sys.stderr)
    else:
        print(f"wrote {len(seq)} events to {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    with _load(args.trace) as seq:
        counts = engine.stats_only(seq)
    print(json.dumps(counts, indent=2))
    return EXIT_OK


def run_cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = {"detect": _cmd_detect, "verify": _cmd_verify, "gen": _cmd_gen,
                "stats": _cmd_stats}[args.command](args)
        print(end="", flush=True)  # a failed write to standard output raises here
        return code
    except BrokenPipeError:  # a closed stdout or stderr: no one reads what follows
        return EXIT_CLOSED_PIPE
    except (InputError, OSError) as exc:  # OSError: reading the trace, writing a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (InvariantError, UsageError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_BROKEN
    except ReaderError as exc:  # no verdict on a trace that was not read to its end
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BROKEN


def main() -> None:
    """Process entry of the ``futurerd`` command and of ``python -m futurerd.cli``.

    Turns CPython's cycle collector off for the one command the process
    runs. The detector makes no reference cycles (a test pins this), so the
    collector would only rescan the shadow's entries and reader lists,
    over and over, and free nothing. It also sets up the process's logging
    from ``FUTURERD_LOG`` (off, info or debug; off by default), and imports
    ``logging`` only to do so. ``run_cli`` and the library leave the
    collector and the logging alone; a program that calls ``detect`` on
    large traces may turn the collector off itself.

    Exit code 1 means races only: any exception that ``run_cli`` does not
    map to an exit code, a bug or a ``MemoryError`` say, prints its
    traceback and exits 3, or 141 if stderr is a closed pipe. A stream whose
    write failed is pointed at ``os.devnull``, so the exit's flush cannot fail.
    """
    gc.disable()
    level = os.environ.get("FUTURERD_LOG", "off").lower()
    if level in ("info", "debug"):  # ``logging`` is imported only then
        import logging

        logging.basicConfig(level=level.upper(), format="futurerd: %(message)s")
    try:
        try:
            code = run_cli()
        except Exception:
            import traceback

            traceback.print_exc()
            code = EXIT_BROKEN
    except BrokenPipeError:
        code = EXIT_CLOSED_PIPE
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
