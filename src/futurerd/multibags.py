"""Reachability for structured futures: one disjoint-set forest of S/P bags.

Every function instance owns one bag. While the instance runs, its bag is
S-labeled and collects the instance's strands; when it returns, the bag is
relabeled P (it is *not* merged into the parent, which is what makes
non-nested join points work); when its future is joined by ``get``, the bag
is absorbed into the joining frame's S bag. A previously executed strand
precedes the current one exactly when it sits in an S bag.

``spawn``/``sync`` are handled as ``create``/``get`` on implicit handles,
joining the most recently spawned outstanding child.

The structured restriction is enforced dynamically at each ``get``: the
handle's creator strand must itself be in an S bag (i.e. precede the join);
a P-labeled creator means the future was created by a logically parallel
strand and the trace is outside this algorithm's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dsu import LABEL_P, LABEL_S, BagRecord, DisjointSets
from .errors import InputError, InvariantError, UsageError
from .trace import CREATE, SPAWN


@dataclass(slots=True)
class _Frame:
    kind: str  # root|spawn|create
    handle: int | None = None
    bag: int | None = None
    children: list[int] = field(default_factory=list)  # LIFO bags of unsynced spawns


@dataclass(slots=True)
class _Handle:
    creator: int
    bag: int | None = None
    consumed: bool = False


class MultiBags:
    def __init__(self) -> None:
        self.forest = DisjointSets()
        self._frames: list[_Frame] = [_Frame(kind="root")]
        self._handles: dict[int, _Handle] = {}
        self._cur = -1

    # -- replay hooks: trace.walk checks each event's frame grammar first ----

    def on_child_begin(self, kind: str, fn: int | None, handle: int | None) -> None:
        if kind == CREATE:
            self._handles[handle] = _Handle(creator=self._cur)
        self._frames.append(_Frame(kind=kind, handle=handle))

    def on_strand_begin(self, s: int) -> None:
        frame = self._frames[-1]
        if frame.bag is None:
            sid = self.forest.make_set(BagRecord(label=LABEL_S))
            frame.bag = sid
            if frame.kind == CREATE:
                self._handles[frame.handle].bag = sid
        else:
            sid = self.forest.add_element(frame.bag)
        if sid != s:
            raise InvariantError(f"strand {s} allocated element {sid}")
        self._cur = s

    def on_return(self) -> None:
        frame = self._frames.pop()
        self.forest.relabel(frame.bag, LABEL_P)
        if frame.kind == SPAWN:
            self._frames[-1].children.append(frame.bag)

    def on_sync(self) -> None:
        frame = self._frames[-1]
        child_bag = frame.children.pop()
        if self.forest.record(child_bag).label != LABEL_P:
            raise InvariantError("synced child's bag is not P-labeled")
        self.forest.union_into(frame.bag, child_bag)

    def on_get(self, handle: int) -> None:
        rec = self._handles[handle]
        if rec.consumed:
            raise InputError(f"single-touch violated: handle {handle} gotten twice")
        if self.forest.find_record(rec.creator).label != LABEL_S:
            raise InputError(
                f"unstructured future use: creator of handle {handle} "
                "does not precede its get"
            )
        if self.forest.record(rec.bag).label != LABEL_P:
            raise InvariantError("gotten future's bag is not P-labeled")
        self.forest.union_into(self._frames[-1].bag, rec.bag)
        rec.consumed = True

    # -- queries ------------------------------------------------------------

    def precedes(self, u: int) -> bool:
        """Did strand ``u`` happen before the current strand?"""
        if not 0 <= u <= self._cur:
            raise UsageError(f"strand {u} has not executed")
        return self.forest.find_record(u).label == LABEL_S

    # -- accounting ---------------------------------------------------------

    @property
    def find_ops(self) -> int:
        return self.forest.find_count

    @property
    def union_ops(self) -> int:
        return self.forest.union_count

    @property
    def attached_sets(self) -> int:
        return 0  # no cross-dag bookkeeping in this algorithm

    @property
    def both_attached_syncs(self) -> int:
        return 0
