"""Benchmark of ``futurerd detect`` on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fj-structured --seed 1 --seconds 28 --trace 0

``--trace 0`` builds the workload's trace from ``--seed``, then spawns one
``python3 -m futurerd.cli detect ... --json`` child at a time, each after one
run of the fixed reference job ``reference.py``, back to back, for
``--seconds`` seconds, checks every child's exit code and race list against
the workload's known answer, and reports the end-to-end metrics.
``detect_rel`` is the median over those pairs of the ``detect`` wall time
divided by the reference job's wall time just before it, which cancels the
drift of the host's speed. ``setup_s`` is scaled the same way: each set-up
repeat follows one reference run, and its wall time is reported as seconds
on a host where the reference job takes ``REFERENCE_S``.
A futures-mixed run cycles over several traces (see
``workloads.trace_seeds``). ``--trace 1`` alternates one untraced child with
one traced in-process run on the trace of ``--seed`` itself for
``--seconds`` seconds and reports the per-layer metrics. ``--workload
all`` runs every workload in turn. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` under the current directory; with no
``src/futurerd`` there the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# (name, unit). The same lists appear in BENCHMARK.json.
END_TO_END = [
    ("detect_rel", "x"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("correct_share", "share"),
]
PER_LAYER = [
    ("trace.load_s", "s"),
    ("trace.validate_s", "s"),
    ("reachdag.nodes", "count"),
    ("reachdag.add_edge_calls", "count"),
    ("reachdag.add_edge_s", "s"),
    ("reachdag.row_visits", "count"),
    ("reachdag.newest_dst_share", "share"),
    ("reachdag.closure_bytes", "bytes"),
    ("reachdag.reach_calls", "count"),
    ("shadow.reads", "count"),
    ("shadow.writes", "count"),
    ("shadow.self_s", "s"),
    ("shadow.cells_touched", "count"),
    ("shadow.regions", "count"),
    ("shadow.queries_per_write", "queries/write"),
    ("shadow.unique_race_share", "share"),
    *((f"dsu.{forest}.{op}_calls", "count")
      for forest in ("forest", "d_sp", "d_nsp") for op in ("make", "find", "union")),
    ("dsu.self_s", "s"),
    ("multibags.hooks_s", "s"),
    ("multibags.precedes_s", "s"),
    ("multibags_plus.hooks_s", "s"),
    ("multibags_plus.precedes_s", "s"),
    ("engine.queries", "count"),
    ("engine.replay_s", "s"),
    ("engine.races", "count"),
    ("cli.output_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("traced.detect_s", "s"),
    ("traced.overhead_s", "s"),
]

SETUP_REPEATS = 3
# Fewer repeats when set-up is slow: gen_random has a heavy tail on a few
# futures-mixed seeds (tens of seconds), and a run must end within 180 s.
SETUP_BUDGET_S = 20.0
MIN_DETECT_RUNS = 3
RUN_DEADLINE_S = 170.0  # a child still running then is killed and counted failed
REFERENCE_CHECKSUM = "438597"  # what reference.py prints
# setup_s is reported in seconds on a host where reference.py takes this long:
# its median wall time on the machine described in baseline.json.
REFERENCE_S = 0.65


class Spawner:
    """Client of spawner.py, which launches and times the detect children."""

    def __init__(self) -> None:
        here = Path(__file__).resolve().parent
        self.proc = subprocess.Popen([sys.executable, str(here / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, out_path: Path, timeout_s: float):
        """(wall seconds from spawn to exit, exit code or None if killed, peak RSS in MB)."""
        req = {"argv": argv, "env": env, "out": str(out_path),
               "err": str(out_path.with_suffix(".err")), "timeout_s": timeout_s}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        rep = json.loads(line)
        return rep["wall_s"], rep["exit_code"], rep["maxrss_kb"] / 1024

    def close(self, abort: bool = False) -> None:
        if abort:
            self.proc.terminate()  # spawner.py kills the child it is running, then exits
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _last_json(text: str):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


class Bench:
    def __init__(self, spawner: Spawner, root: Path, work: Path, name: str, seed: int,
                 seconds: float):
        import workloads

        self.spawner = spawner
        self.w = workloads
        self.spec = workloads.WORKLOADS[name]
        self.name, self.seed, self.seconds = name, seed, seconds
        self.work = work
        self.started = time.perf_counter()
        self.out_path = work / f"{name}.out"
        here = Path(__file__).resolve().parent
        self.reference_argv = [sys.executable, str(here / "reference.py")]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.traces = []  # (detect argv, known answer), one per trace of the run

    def setup(self, seeds: list[int], repeats: int) -> tuple[list[float], list[float]]:
        """Build, serialize and write one trace per seed.

        Each repeat follows one reference run. Returns each repeat's wall
        seconds, and the same scaled to a host on which the reference job
        takes REFERENCE_S.
        """
        from futurerd import trace

        times, scaled, digests = [], [], None
        while len(times) < repeats and (not times or sum(times) < SETUP_BUDGET_S):
            reference = self.reference_once()
            start = time.perf_counter()
            seqs, texts = [], []
            gen_seeds = []
            for i, seed in enumerate(seeds):
                gen_seed, seq = self.w.build(self.name, seed)
                gen_seeds.append(gen_seed)
                seqs.append(seq)
                texts.append(trace.serialize(seqs[-1]))
                with open(self.work / f"{self.name}.{i}.jsonl", "w", encoding="utf-8") as fh:
                    fh.write(texts[-1])
            times.append(time.perf_counter() - start)
            scaled.append(times[-1] / reference * REFERENCE_S)
            hashes = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
            if digests is not None and hashes != digests:
                raise RuntimeError("the same seed built two different traces")
            digests = hashes
        self.traces = []
        for i, (seed, gen_seed, seq, digest) in enumerate(zip(seeds, gen_seeds, seqs, digests)):
            argv = ["detect", "--algo", self.spec.algo, "--mode", self.spec.mode,
                    "--trace", str(self.work / f"{self.name}.{i}.jsonl"), "--json"]
            answer = self.w.known_answer(self.name, gen_seed, seq)
            self.traces.append((argv, answer))
            print(f"# {self.name} trace seed={seed} (generator seed {gen_seed}): "
                  f"{len(seq)} events, {seq.counts.strands} strands, sha256 {digest[:16]}, "
                  f"expected exit {answer.exit_code}")
        return times, scaled

    def detect_once(self, i: int = 0):
        """One untraced child on trace ``i``; returns (seconds, peak MB, report or None)."""
        argv, answer = self.traces[i]
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        wall, code, rss = self.spawner.run([sys.executable, "-m", "futurerd.cli", *argv],
                                           self.env, self.out_path, left)
        report = _last_json(self.out_path.read_text(encoding="utf-8", errors="replace"))
        self.attempted += 1
        if not self.w.check(answer, code, report):
            self.failed += 1
            err = self.out_path.with_suffix(".err").read_text(errors="replace")[-2000:]
            print(f"# FAILED run: exit {code}, stderr: {err.strip()}", file=sys.stderr)
            report = None
        return wall, rss, report

    def reference_once(self) -> float:
        """One run of the reference job; returns its wall seconds from spawn to exit."""
        out = self.work / "reference.out"
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        wall, code, _ = self.spawner.run(self.reference_argv, self.env, out, left)
        if code != 0 or out.read_text(encoding="utf-8").strip() != REFERENCE_CHECKSUM:
            raise RuntimeError(f"the reference job failed (exit {code})")
        return wall

    def _measuring(self, start: float, durations: list[float], min_runs: int) -> bool:
        """Start another run only if a typical one still ends within --seconds."""
        if len(durations) < min_runs:
            return True
        return time.perf_counter() - start + statistics.median(durations) <= self.seconds

    def end_to_end(self) -> dict:
        setup, setup_scaled = self.setup(self.w.trace_seeds(self.name, self.seed),
                                         SETUP_REPEATS)
        walls, refs, rsss, cycles = [], [], [], []
        start = time.perf_counter()
        while self._measuring(start, cycles, MIN_DETECT_RUNS):
            cycle_start = time.perf_counter()
            refs.append(self.reference_once())
            wall, rss, _ = self.detect_once(len(walls) % len(self.traces))
            walls.append(wall)
            rsss.append(rss)
            cycles.append(time.perf_counter() - cycle_start)
        print(f"# detect_s runs: {' '.join(f'{x:.4f}' for x in walls)}")
        print(f"# reference_s runs: {' '.join(f'{x:.4f}' for x in refs)}")
        print(f"# setup wall s runs: {' '.join(f'{x:.4f}' for x in setup)}")
        print(f"# setup_s runs: {' '.join(f'{x:.4f}' for x in setup_scaled)}")
        print(f"# medians: detect_s {statistics.median(walls):.4f}, "
              f"reference_s {statistics.median(refs):.4f}")
        return {
            "detect_rel": statistics.median(w / r for w, r in zip(walls, refs)),
            "peak_rss_mb": statistics.median(rsss),
            "setup_s": statistics.median(setup_scaled),
            "correct_share": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict:
        import tracer

        self.setup([self.seed], 1)
        argv, answer = self.traces[0]
        walls, layers, spans, pairs = [], [], [], []
        start = time.perf_counter()
        while self._measuring(start, pairs, 1):
            pair_start = time.perf_counter()
            wall, _, report = self.detect_once()
            walls.append(wall)
            self.attempted += 1
            try:
                t, code, text = tracer.traced_detect(argv)
            except Exception:  # a crashing run counts as failed; the benchmark goes on
                traceback.print_exc()
                t, code, text = None, None, ""
            traced_report = _last_json(text)
            if (not self.w.check(answer, code, traced_report)
                    or (report is not None and traced_report["races"] != report["races"])):
                self.failed += 1
                print("# FAILED traced run: its races differ from the known answer "
                      "or the untraced run", file=sys.stderr)
            else:
                layers.append(tracer.layer_metrics(t, text))
                spans = tracer.span_table(t)
            del t
            pairs.append(time.perf_counter() - pair_start)
        if not layers:
            raise RuntimeError(f"no traced run of {self.name} gave the known answer")
        for line in spans:
            print(f"# {line}")
        m = {name: statistics.median(x[name] for x in layers)
             for name, _ in PER_LAYER if name != "traced.overhead_s"}
        m["traced.overhead_s"] = m["traced.detect_s"] - statistics.median(walls)
        print(f"# traced runs: {len(layers)}, untraced detect_s runs: "
              f"{' '.join(f'{x:.4f}' for x in walls)}")
        return m


def _result(values: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.rsplit("/", 1)[-1]]}
                    for k, v in values.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["fj-structured", "futures-mixed", "hot-sparse", "all"])
    p.add_argument("--seed", type=int, default=None, help="default: workloads.DEFAULT_SEED")
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "futurerd" / "cli.py").is_file():
        print(f"error: no futurerd sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import futurerd

    if Path(futurerd.__file__).resolve().parent != (src / "futurerd").resolve():
        print(f"error: imported futurerd from {futurerd.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = PER_LAYER if args.trace else END_TO_END
    values, attempted, failed = {}, 0, 0
    # A terminated run unwinds like an error, so the clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spawner = Spawner()
    finished = False
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
            for name in names:
                bench = Bench(spawner, root, Path(work), name, seed, args.seconds)
                got = bench.per_layer() if args.trace else bench.end_to_end()
                for metric, unit in metrics:
                    print(f"# {name} {metric} = {got[metric]:.6g} {unit}")
                prefix = f"{name}/" if len(names) > 1 else ""
                values.update({prefix + k: got[k] for k, _ in metrics})
                attempted += bench.attempted
                failed += bench.failed
        finished = True
    finally:
        spawner.close(abort=not finished)
    print(json.dumps(_result(values, dict(metrics), attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
