"""Ground-truth strand dag built by brute force from a trace.

The dag makes every control dependence explicit (continue, spawn, create,
join, and get edges), keeps the per-strand access log, and answers
reachability from ancestor bitsets; ``follow`` builds it as a walk reads the
trace. It exists to check the on-the-fly detectors, so it favors obviousness
over speed. Once it keeps bitsets, from its first query, it refuses the
strand whose bitsets could pass ``REACH_BUDGET``; a dag never queried keeps
none and is not charged.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from math import isqrt

from .errors import InputError, UsageError
from .shadow import READ_WRITE, WRITE_READ, WRITE_WRITE
from .trace import (
    CREATE,
    GET,
    MODE_GENERAL,
    READ,
    RET,
    SPAWN,
    SYNC,
    WRITE,
    validate,
)

# The budget charges S²/8 bytes for the bitsets of S strands. The ancestor
# row of strand v holds v bits, so the rows take about half of that.
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
    _anc: list[int] | None = None  # bit u of row v: u reaches v; kept from the first query

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
        if self._anc is None:
            check_reach_budget(self.n)
            anc = [0] * self.n
            for x in range(self.n):  # ids are a topological order, so row x is final here
                m = anc[x] | (1 << x)
                for w, _ in self.out[x]:
                    anc[w] |= m
            self._anc = anc
        return bool((self._anc[v] >> u) & 1)

    def _add(self, frame_kind: str, *edges: tuple[int, str]) -> int:
        """Add the next strand, entered by an edge from each ``(pred, kind)``.

        Once rows are kept, a strand whose rows could pass the budget
        raises ``InputError`` and leaves the dag as it was.
        """
        v = self.n
        if self._anc is not None:
            check_reach_budget(v + 1)
        self.n += 1
        self.out.append([])
        self.node_kinds.append(set())
        self.frame_kind.append(frame_kind)
        self.accesses.append([])
        for u, kind in edges:
            self.out[u].append((v, kind))
        if self._anc is not None:  # every edge enters v, so its row is final here
            row = 0
            for u, _ in edges:
                row |= self._anc[u] | (1 << u)
            self._anc.append(row)
        return v


def build(seq: Iterable[tuple]) -> OracleDag:
    """The dag of a trace, in one walk; an invalid trace raises ``replay``'s InputError."""
    dag = OracleDag()
    validate(follow(dag, seq), MODE_GENERAL).counts_or_raise()
    return dag


def follow(dag: OracleDag, seq: Iterable[tuple]) -> Iterator[tuple]:
    """The events of ``seq``, any iterable of ``(kind, fn, handle, addr)`` events,
    each added to the empty ``dag`` just before it is yielded.

    Only a ``ret``, ``sync`` or ``get`` that can be joined is placed. The dag
    stops growing at the first event it cannot place, which the walk reading
    the events refuses, as its checks include these.
    """
    # per open frame: [kind, handle, cont_pred strand, LIFO child-sink stack]
    frames: list[list] = [["root", None, None, []]]
    cur = dag._add("root")
    seq = iter(seq)
    for ev in seq:
        k, _, h, a = ev
        if k == READ or k == WRITE:
            # keyed by word, like the shadow memory and its race reports
            dag.accesses[cur].append((a & ~3, k))
        elif k == SPAWN or k == CREATE:
            dag.node_kinds[cur].add("spawn" if k == SPAWN else "creator")
            frames[-1][2] = cur
            frames.append([k, h, None, []])
            child = dag._add(k, (cur, SPAWN_EDGE if k == SPAWN else CREATE_EDGE))
            if k == CREATE:
                dag.creator_of[h] = cur
                dag.first_of[h] = child
                dag.getters_of.setdefault(h, [])
            cur = child
        elif k == RET and len(frames) > 1:
            kind, handle, _, _ = frames.pop()
            if kind == SPAWN:
                frames[-1][3].append(cur)
            else:
                dag.sink_of[handle] = cur
            cur = dag._add(frames[-1][0], (frames[-1][2], CONTINUE_EDGE))
        elif k == SYNC and frames[-1][3]:
            cur = dag._add(frames[-1][0], (cur, CONTINUE_EDGE),
                           (frames[-1][3].pop(), JOIN_EDGE))
            dag.node_kinds[cur].add("sync")
        elif k == GET and h in dag.sink_of:
            cur = dag._add(frames[-1][0], (cur, CONTINUE_EDGE), (dag.sink_of[h], GET_EDGE))
            dag.node_kinds[cur].add("getter")
            dag.getters_of[h].append(cur)
        else:  # an event the walk refuses: pass the rest through
            yield ev
            yield from seq
            return
        yield ev

    for kinds in dag.node_kinds:
        if not kinds:
            kinds.add("regular")


def naive_races(dag: OracleDag) -> set[tuple[int, str, int, int]]:
    """All conflicting logically parallel access pairs.

    Returned as ``(addr, kind, prior, current)`` with ``addr`` the byte
    address of the 4-byte word and ``prior`` the strand that executed first;
    deduplicated per (addr, kind, pair).
    """
    by_addr: dict[int, list[tuple[int, bool]]] = {}
    for s in range(dag.n):
        for addr, rw in dict.fromkeys(dag.accesses[s]):  # each (addr, rw) once
            by_addr.setdefault(addr, []).append((s, rw == WRITE))
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
                    kind = WRITE_WRITE
                elif wa:
                    kind = WRITE_READ
                else:
                    kind = READ_WRITE
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
