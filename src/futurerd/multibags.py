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
bag's record is its bare label. ``trace.walk`` keeps the frame stack, with a
bag id as each frame's record, and hands each hook the bags of the child and
of the frame, so the detector keeps no per-frame state of its own.

``spawn``/``sync`` are handled as ``create``/``get`` on implicit handles,
joining the most recently spawned outstanding child.

``multibags_plus.MultiBagsPlus`` extends this class for general futures: its
S/P bags are this forest, run by these hooks, except that its ``get`` adds
the next strand to the frame's bag and absorbs nothing.

A query runs in one Python frame, as the shadow makes one per prior access:
``precedes`` walks the forest to the strand's root itself, with the path
compression and find count of ``DisjointSets.find``, and answers True for an
S bag. For a P bag it returns ``_past_p_bag(u)``, which is False here, where
the bags are exact, and which ``MultiBagsPlus`` overrides with its further
steps.

The structured restriction is enforced dynamically at each ``get``: the
handle's creator strand must itself be in an S bag (i.e. precede the join);
a P-labeled creator means the future was created by a logically parallel
strand and the trace is outside this algorithm's contract.
"""

from __future__ import annotations

from .dsu import LABEL_P, LABEL_S, DisjointSets
from .errors import InputError, InvariantError, UsageError


class MultiBags:
    both_attached_syncs = 0  # no cross-dag bookkeeping in this algorithm

    def __init__(self) -> None:
        self.forest = DisjointSets()
        self.root = self.forest.make_set(LABEL_S)  # a frame's record is its bag
        self._cur = -1

    def _placed(self, sid: int) -> None:
        """Check that the next strand got element ``sid``."""
        if sid != self._cur + 1:
            raise InvariantError(f"strand {self._cur + 1} allocated element {sid}")

    # -- replay hooks: trace.walk checks each event's frame grammar first ----

    def on_child_begin(self, kind: str, handle: int | None) -> int:
        bag = self.forest.make_set(LABEL_S)
        self._placed(bag)
        return bag

    def on_strand_begin(self, s: int) -> None:
        self._cur = s

    def on_return(self, child: int, frame: int) -> None:
        self.forest.relabel(child, LABEL_P)
        self._placed(self.forest.add_element(frame))

    def on_sync(self, child: int, frame: int) -> None:
        if self.forest.record(child) != LABEL_P:
            raise InvariantError("synced child's bag is not P-labeled")
        self.forest.union_into(frame, child)
        self._placed(self.forest.add_element(frame))

    def on_get(self, handle: int, future: int, frame: int) -> None:
        if not self.forest.is_live(future):  # unioned by an earlier get
            raise InputError(f"single-touch violated: handle {handle} gotten twice")
        if self.forest.find_record(future - 1) != LABEL_S:  # the creator strand
            raise InputError(
                f"unstructured future use: creator of handle {handle} "
                "does not precede its get"
            )
        if self.forest.record(future) != LABEL_P:
            raise InvariantError("gotten future's bag is not P-labeled")
        self.forest.union_into(frame, future)
        self._placed(self.forest.add_element(frame))

    # -- queries ------------------------------------------------------------

    def precedes(self, u: int) -> bool:
        """Did strand ``u`` happen before the current strand?

        The walk to the root is ``DisjointSets._root``'s, inline, and counts
        as one find; ``dsu.py`` names the fields it reads.
        """
        if not 0 <= u <= self._cur:
            raise UsageError(f"strand {u} has not executed")
        forest = self.forest
        forest.find_count += 1
        parent = forest._parent
        root = parent[u]
        if parent[root] != root:  # u is two or more links below its root
            while parent[root] != root:
                root = parent[root]
            e = u
            while parent[e] != root:  # path compression
                parent[e], e = root, parent[e]
        return forest._records[forest._sid_at[root]] == LABEL_S or self._past_p_bag(u)

    def _past_p_bag(self, u: int) -> bool:
        """``precedes`` for a strand ``u`` in a P bag: the bags are exact here."""
        return False

    # -- accounting ---------------------------------------------------------

    @property
    def find_ops(self) -> int:
        return self.forest.find_count

    @property
    def union_ops(self) -> int:
        return self.forest.union_count

    @property
    def attached_sets(self) -> int:
        return 0
