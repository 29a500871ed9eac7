"""Ground-truth strand dag built by brute force from a trace.

The dag makes every control dependence explicit (continue, spawn, create,
join, and get edges), keeps the per-strand access log, and answers
reachability from memoized descendant bitsets. It exists to check the
on-the-fly detectors, so it favors obviousness over speed and refuses traces
whose bitsets could pass ``REACH_BUDGET``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .errors import InputError, UsageError
from .trace import (
    CREATE,
    GET,
    MODE_GENERAL,
    READ,
    RET,
    SPAWN,
    SYNC,
    WRITE,
    EventSequence,
    validate,
)

# The descendant bitsets take up to S²/8 bytes for S strands, and about
# S²/16 in the usual shape.
REACH_BUDGET = 256 << 20
REACH_CAP = isqrt(8 * REACH_BUDGET)  # the most strands the budget admits: 46,340


def check_reach_budget(strands: int) -> None:
    """Raise ``InputError`` if the bitsets of ``strands`` strands could pass the budget."""
    need = strands * strands // 8
    if need > REACH_BUDGET:
        raise InputError(
            f"the brute-force dag refuses {strands} strands: its reachability rows "
            f"could take {need:,} bytes, over the budget of {REACH_BUDGET:,} bytes"
        )

CONTINUE_EDGE = "continue"
SPAWN_EDGE = "spawn"
CREATE_EDGE = "create"
JOIN_EDGE = "join"
GET_EDGE = "get"


@dataclass
class OracleDag:
    n: int = 0
    out: list[list[tuple[int, str]]] = field(default_factory=list)
    node_kinds: list[set[str]] = field(default_factory=list)
    frame_kind: list[str] = field(default_factory=list)  # root|spawn|create per strand
    accesses: list[list[tuple[int, str]]] = field(default_factory=list)
    creator_of: dict[int, int] = field(default_factory=dict)
    first_of: dict[int, int] = field(default_factory=dict)
    sink_of: dict[int, int] = field(default_factory=dict)
    getters_of: dict[int, list[int]] = field(default_factory=dict)
    _desc: list[int] | None = None

    @property
    def n_edges(self) -> int:
        return sum(len(o) for o in self.out)

    def edges(self):
        for u, adj in enumerate(self.out):
            for v, kind in adj:
                yield u, v, kind

    def reaches(self, u: int, v: int) -> bool:
        """True iff there is a nonempty directed path from u to v."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise UsageError(f"unknown strand in reaches({u}, {v})")
        if self._desc is None:
            check_reach_budget(self.n)
            desc = [0] * self.n
            for x in range(self.n - 1, -1, -1):
                m = 0
                for w, _ in self.out[x]:
                    m |= desc[w] | (1 << w)
                desc[x] = m
            self._desc = desc
        return bool((self._desc[u] >> v) & 1)


def build(seq: EventSequence) -> OracleDag:
    """Replay a trace into an explicit dag; an invalid trace raises ``replay``'s InputError."""
    validate(seq, MODE_GENERAL).counts_or_raise()
    return build_valid(seq)


def build_valid(seq: EventSequence) -> OracleDag:
    """``build`` for a trace that has already passed ``validate``; it checks nothing."""
    dag = OracleDag()

    def new_node(frame_kind: str) -> int:
        dag.out.append([])
        dag.node_kinds.append(set())
        dag.frame_kind.append(frame_kind)
        dag.accesses.append([])
        dag.n += 1
        return dag.n - 1

    # per open frame: [kind, handle, cont_pred strand, LIFO child-sink stack]
    frames: list[list] = [["root", None, None, []]]
    cur = new_node("root")

    for ev in seq:
        k = ev.kind
        if k == READ or k == WRITE:
            # keyed by word, like the shadow memory and its race reports
            dag.accesses[cur].append((ev.addr & ~3, "r" if k == READ else "w"))
        elif k == SPAWN or k == CREATE:
            dag.node_kinds[cur].add("spawn" if k == SPAWN else "creator")
            frames[-1][2] = cur
            frames.append([k, ev.handle, None, []])
            child = new_node(k)
            dag.out[cur].append((child, SPAWN_EDGE if k == SPAWN else CREATE_EDGE))
            if k == CREATE:
                dag.creator_of[ev.handle] = cur
                dag.first_of[ev.handle] = child
                dag.getters_of.setdefault(ev.handle, [])
            cur = child
        elif k == RET:
            kind, handle, _, _ = frames.pop()
            if kind == SPAWN:
                frames[-1][3].append(cur)
            else:
                dag.sink_of[handle] = cur
            nxt = new_node(frames[-1][0])
            dag.out[frames[-1][2]].append((nxt, CONTINUE_EDGE))
            cur = nxt
        elif k == SYNC:
            child_sink = frames[-1][3].pop()
            nxt = new_node(frames[-1][0])
            dag.out[cur].append((nxt, CONTINUE_EDGE))
            dag.out[child_sink].append((nxt, JOIN_EDGE))
            dag.node_kinds[nxt].add("sync")
            cur = nxt
        else:  # GET
            nxt = new_node(frames[-1][0])
            dag.out[cur].append((nxt, CONTINUE_EDGE))
            dag.out[dag.sink_of[ev.handle]].append((nxt, GET_EDGE))
            dag.node_kinds[nxt].add("getter")
            dag.getters_of[ev.handle].append(nxt)
            cur = nxt

    for kinds in dag.node_kinds:
        if not kinds:
            kinds.add("regular")
    return dag


def naive_races(dag: OracleDag) -> set[tuple[int, str, int, int]]:
    """All conflicting logically parallel access pairs.

    Returned as ``(addr, kind, prior, current)`` with ``addr`` the byte
    address of the 4-byte word and ``prior`` the strand that executed first;
    deduplicated per (addr, kind, pair).
    """
    by_addr: dict[int, list[tuple[int, bool]]] = {}
    for s in range(dag.n):
        seen = set()
        for addr, rw in dag.accesses[s]:
            key = (addr, rw)
            if key in seen:
                continue
            seen.add(key)
            by_addr.setdefault(addr, []).append((s, rw == "w"))
    races = set()
    for addr, accs in by_addr.items():
        # entries are in serial (strand id) order already
        for x in range(len(accs)):
            sa, wa = accs[x]
            for y in range(x + 1, len(accs)):
                sb, wb = accs[y]
                if sa == sb or not (wa or wb):
                    continue
                if dag.reaches(sa, sb):
                    continue
                if wa and wb:
                    kind = "write-write"
                elif wa:
                    kind = "write-read"
                else:
                    kind = "read-write"
                races.add((addr, kind, sa, sb))
    return races


def longest_path(dag: OracleDag, weights=None) -> int:
    """Maximum-weight path through the dag; node ids are a topological order."""
    if weights is None:
        w = lambda s: 1
    elif callable(weights):
        w = weights
    else:
        w = lambda s: weights.get(s, 1)
    score = [w(s) for s in range(dag.n)]
    best = 0
    for u in range(dag.n):
        su = score[u]
        if su > best:
            best = su
        for v, _ in dag.out[u]:
            cand = su + w(v)
            if cand > score[v]:
                score[v] = cand
    return best


def to_dot(dag: OracleDag) -> str:
    """GraphViz text dump for debugging."""
    lines = ["digraph strands {"]
    for s in range(dag.n):
        kinds = "/".join(sorted(dag.node_kinds[s]))
        lines.append(f'  n{s} [label="{s} {kinds}"];')
    for u, v, kind in dag.edges():
        lines.append(f'  n{u} -> n{v} [label="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
