"""Per-layer tracing for the benchmark's traced run.

``traced_detect`` runs ``futurerd.cli.run_cli`` in-process after wrapping
the public methods of each layer's classes, and the module functions the CLI
and engine call between layers, with span recorders. Nothing under ``src/``
changes; the originals are restored when the run ends.

Spans are aggregated per operation rather than stored one by one, because a
run makes millions of calls. For every operation the tracer keeps the call
count, the total duration, and the self time: the duration minus the part
covered by its child spans. A nested call such as ``on_write`` ->
``precedes`` -> ``find`` therefore counts toward its own layer. It also
keeps, per (caller, callee) pair, the calls and time, so the span that
caused each span is recorded too.
"""

from __future__ import annotations

import contextlib
import io
import time
from collections import defaultdict

from futurerd import cli, dsu, engine, multibags, multibags_plus, reachdag, shadow, trace

HOOKS = ("on_child_begin", "on_strand_begin", "on_return", "on_sync", "on_get")
DSU_METHODS = ("make_set", "union_into", "find", "record", "relabel")
REACHDAG_METHODS = ("add_node", "reach", "row")


class Tracer:
    """Aggregated spans for one traced run."""

    def __init__(self) -> None:
        self.ops: dict[str, list] = {}  # op -> [calls, total seconds, self seconds]
        self.callers: dict[str, dict[str, list]] = {}  # op -> caller op -> [calls, seconds]
        self.counters: dict[str, int] = defaultdict(int)
        self.objects: dict[str, object] = {}
        self._stack: list[list] = []  # open spans: [seconds covered by children, op]

    def span(self, op: str, fn, after=None):
        """Wrap ``fn`` so every call records a span named ``op``.

        ``after(result, *args)`` runs inside the span once ``fn`` returns.
        """
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        acc = self.ops.setdefault(op, [0, 0.0, 0.0])
        callers = self.callers.setdefault(op, {})

        def wrapper(*args, **kwargs):
            frame = [0.0, op]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result
            finally:
                dur = clock() - start
                pop()
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    edge = callers.get(parent[1])
                    if edge is None:
                        edge = callers[parent[1]] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += dur

        return wrapper

    def calls(self, op: str) -> int:
        return self.ops[op][0] if op in self.ops else 0

    def total_s(self, op: str) -> float:
        return self.ops[op][1] if op in self.ops else 0.0

    def self_s(self, prefix: str) -> float:
        """Self seconds summed over the ops whose names start with ``prefix``."""
        return sum(a[2] for op, a in self.ops.items() if op.startswith(prefix))

    def calls_from(self, caller: str, callee_suffix: str) -> int:
        return sum(by[caller][0] for op, by in self.callers.items()
                   if op.endswith(callee_suffix) and caller in by)


@contextlib.contextmanager
def _patched(patches):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, new in patches:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


def _patches(t: Tracer) -> list:
    c = t.counters
    keep = t.objects

    def on_read(rep, table, *_):
        keep["shadow"] = table
        c["shadow_reports"] += rep is not None

    def on_write(reps, table, *_):
        keep["shadow"] = table
        c["shadow_reports"] += len(reps)

    inner_add_edge = reachdag.ReachDag.add_edge

    def add_edge(dag, src, dst):
        # len(dag) before the call is what add_edge loops over.
        n = len(dag)
        c["row_visits"] += n
        c["newest_dst"] += dst == n - 1
        return inner_add_edge(dag, src, dst)

    def keep_as(key):
        def after(result, *_):
            keep[key] = result
        return after

    p = [
        (trace, "load", t.span("trace.load", trace.load, keep_as("seq"))),
        (engine, "validate", t.span("trace.validate", engine.validate)),
        (engine, "detect", t.span("engine.detect", engine.detect, keep_as("report"))),
        (engine, "replay", t.span("engine.replay", engine.replay)),
        (engine, "make_reachability",
         t.span("engine.make_reachability", engine.make_reachability, keep_as("reach"))),
        (shadow.ShadowTable, "on_read",
         t.span("shadow.on_read", shadow.ShadowTable.on_read, on_read)),
        (shadow.ShadowTable, "on_write",
         t.span("shadow.on_write", shadow.ShadowTable.on_write, on_write)),
        (reachdag.ReachDag, "add_edge", t.span("reachdag.add_edge", add_edge)),
    ]
    for name in REACHDAG_METHODS:
        p.append((reachdag.ReachDag, name,
                  t.span(f"reachdag.{name}", getattr(reachdag.ReachDag, name))))
    for name in DSU_METHODS:
        p.append((dsu.DisjointSets, name, t.span(f"dsu.{name}", getattr(dsu.DisjointSets, name))))
    for layer, cls in (("multibags", multibags.MultiBags),
                       ("multibags_plus", multibags_plus.MultiBagsPlus)):
        for name in HOOKS:
            p.append((cls, name, t.span(f"{layer}.hooks.{name}", getattr(cls, name))))
        p.append((cls, "precedes", t.span(f"{layer}.precedes", cls.precedes)))
    return p


def traced_detect(argv: list[str]) -> tuple[Tracer, int, str]:
    """Run ``futurerd <argv>`` in-process under the tracer.

    Returns the tracer, the exit code and the text the command printed.
    """
    t = Tracer()
    out = io.StringIO()
    with _patched(_patches(t)), contextlib.redirect_stdout(out):
        code = t.span("cli.run_cli", cli.run_cli)(argv)
    return t, code, out.getvalue()


def layer_metrics(t: Tracer, report_text: str) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name."""
    objs = t.objects
    c = t.counters
    reach = objs.get("reach")
    report = objs.get("report")
    table = objs.get("shadow")
    m: dict[str, float] = {}

    m["trace.load_s"] = t.total_s("trace.load")
    m["trace.validate_s"] = t.total_s("trace.validate")

    dag = getattr(reach, "r", None)
    edges = t.calls("reachdag.add_edge")
    m["reachdag.nodes"] = len(dag) if dag is not None else 0
    m["reachdag.add_edge_calls"] = edges
    m["reachdag.add_edge_s"] = t.total_s("reachdag.add_edge")
    m["reachdag.row_visits"] = c["row_visits"]
    m["reachdag.newest_dst_share"] = c["newest_dst"] / edges if edges else 0.0
    m["reachdag.closure_bytes"] = (
        sum((dag.row(i).bit_length() + 7) // 8 for i in range(len(dag))) if dag is not None else 0
    )
    m["reachdag.reach_calls"] = t.calls("reachdag.reach")

    reads, writes = t.calls("shadow.on_read"), t.calls("shadow.on_write")
    seq = objs.get("seq")
    m["shadow.reads"] = reads
    m["shadow.writes"] = writes
    m["shadow.self_s"] = t.self_s("shadow.")
    m["shadow.cells_touched"] = table.cells_touched if table is not None else 0
    # The table allocates one leaf per distinct value of address bits [63:22].
    m["shadow.regions"] = len({ev.addr >> 22 for ev in seq.events if ev.addr is not None})
    m["shadow.queries_per_write"] = (
        t.calls_from("shadow.on_write", ".precedes") / writes if writes else 0.0
    )
    races = len(report.races)
    m["shadow.unique_race_share"] = races / c["shadow_reports"] if c["shadow_reports"] else 1.0

    forests = {"forest": getattr(reach, "forest", None),
               "d_sp": getattr(reach, "d_sp", None),
               "d_nsp": getattr(reach, "d_nsp", None)}
    for name, forest in forests.items():
        for op in ("make", "find", "union"):
            m[f"dsu.{name}.{op}_calls"] = getattr(forest, f"{op}_count", 0)
    m["dsu.self_s"] = t.self_s("dsu.")

    for layer in ("multibags", "multibags_plus"):
        m[f"{layer}.hooks_s"] = t.self_s(f"{layer}.hooks.")
        m[f"{layer}.precedes_s"] = t.self_s(f"{layer}.precedes")
    m["engine.queries"] = report.stats.queries
    m["engine.replay_s"] = t.total_s("engine.replay")
    m["engine.races"] = races
    m["cli.output_s"] = t.self_s("cli.run_cli")
    m["cli.report_bytes"] = len(report_text.encode())
    m["traced.detect_s"] = t.total_s("cli.run_cli")
    return m


def span_table(t: Tracer) -> list[str]:
    """Human-readable lines: per-operation spans, then caller -> callee edges."""
    lines = [f"{'span':<40}{'calls':>10}{'total_s':>10}{'self_s':>10}"]
    for op, (n, total, own) in sorted(t.ops.items(), key=lambda kv: -kv[1][2]):
        if n:
            lines.append(f"{op:<40}{n:>10}{total:>10.4f}{own:>10.4f}")
    edges = [(sec, f"{caller} -> {op}", n)
             for op, by in t.callers.items() for caller, (n, sec) in by.items()]
    lines.append(f"{'caller -> callee':<60}{'calls':>10}{'total_s':>10}")
    for sec, name, n in sorted(edges, reverse=True):
        lines.append(f"{name:<60}{n:>10}{sec:>10.4f}")
    return lines
