"""Reachability for structured futures: one disjoint-set forest of S/P bags.

Every function instance owns one bag. While the instance runs, its bag is
S-labeled and collects the instance's strands; when it returns, the bag is
relabeled P (it is *not* merged into the parent, which is what makes
non-nested join points work); when its future is joined by ``get``, the bag
is absorbed into the joining frame's S bag. A previously executed strand
precedes the current one exactly when it sits in an S bag.

A strand's id is also its element. Each control hook places the strand that
follows it: a child's first strand starts the child's bag, named by that
strand (the fork strand + 1), and any other strand joins its frame's bag. A
bag's record is its bare label.

``spawn``/``sync`` are handled as ``create``/``get`` on implicit handles,
joining the most recently spawned outstanding child.

The structured restriction is enforced dynamically at each ``get``: the
handle's creator strand must itself be in an S bag (i.e. precede the join);
a P-labeled creator means the future was created by a logically parallel
strand and the trace is outside this algorithm's contract.
"""

from __future__ import annotations

from .dsu import LABEL_P, LABEL_S, DisjointSets
from .errors import InputError, InvariantError, UsageError
from .trace import CREATE


class MultiBags:
    def __init__(self) -> None:
        self.forest = DisjointSets()
        self._bags = [self.forest.make_set(LABEL_S)]  # per open frame, innermost last
        self._spawned: list[int] = []  # unsynced spawns' bags; frames nest, so one stack
        self._handles: dict[int, int] = {}  # handle -> creator strand, until its get
        self._cur = -1

    def _placed(self, sid: int) -> None:
        """Check that the next strand got element ``sid``."""
        if sid != self._cur + 1:
            raise InvariantError(f"strand {self._cur + 1} allocated element {sid}")

    def _continue(self) -> None:
        """Next strand: joins the bag of the innermost frame."""
        self._placed(self.forest.add_element(self._bags[-1]))

    # -- replay hooks: trace.walk checks each event's frame grammar first ----

    def on_child_begin(self, kind: str, handle: int | None) -> None:
        bag = self._cur + 1
        if kind == CREATE:
            self._handles[handle] = self._cur
        else:
            self._spawned.append(bag)
        self._bags.append(bag)
        self._placed(self.forest.make_set(LABEL_S))

    def on_strand_begin(self, s: int) -> None:
        self._cur = s

    def on_return(self) -> None:
        self.forest.relabel(self._bags.pop(), LABEL_P)
        self._continue()

    def on_sync(self) -> None:
        child_bag = self._spawned.pop()
        if self.forest.record(child_bag) != LABEL_P:
            raise InvariantError("synced child's bag is not P-labeled")
        self.forest.union_into(self._bags[-1], child_bag)
        self._continue()

    def on_get(self, handle: int) -> None:
        creator = self._handles.pop(handle, None)  # the walk rejects unknown handles
        if creator is None:
            raise InputError(f"single-touch violated: handle {handle} gotten twice")
        if self.forest.find_record(creator) != LABEL_S:
            raise InputError(
                f"unstructured future use: creator of handle {handle} "
                "does not precede its get"
            )
        if self.forest.record(creator + 1) != LABEL_P:
            raise InvariantError("gotten future's bag is not P-labeled")
        self.forest.union_into(self._bags[-1], creator + 1)
        self._continue()

    # -- queries ------------------------------------------------------------

    def precedes(self, u: int) -> bool:
        """Did strand ``u`` happen before the current strand?"""
        if not 0 <= u <= self._cur:
            raise UsageError(f"strand {u} has not executed")
        return self.forest.find_record(u) == LABEL_S

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
