"""Tagged disjoint-set forest with directional unions.

A classic union-find (union by rank, path compression) where every live set
carries a caller-owned metadata record. ``union_into(a, b)`` merges b into a
and keeps a's record no matter which physical root survives the link, so the
logical direction of a union is independent of the physical one.

Sets and elements share one id space: ``make_set`` allocates a fresh element
and the returned set id *is* that element's id. ``add_element(sid)`` allocates
a fresh element straight into a live set; it is the paper's MakeSet followed
by Union, without the throwaway record, and counts as one of each. ``find(e)``
maps any element to the id of the live set containing it, and
``find_record(e)`` to that set's record. A live set always holds the element
that names it (``union_into(a, b)`` keeps ``a``), so the updates find a set's
root from its id, and only roots map back to set ids.

An S/P bag's record is its bare label, ``LABEL_S`` or ``LABEL_P``, which
``relabel`` replaces; a ``d_nsp`` set's record is a mutable ``NspRecord``.

``MultiBags.precedes``, the race detector's one query per prior access, is
the one reader of these fields outside the class: it walks ``_parent`` to
the root and compresses the path as ``_root`` does, bumps ``find_count``,
and reads the label at ``_records[_sid_at[root]]``, which relies on a
root's set always being live. ``_root``, ``find`` and ``find_record`` serve
the updates and ``d_nsp``.
"""

from __future__ import annotations

from .errors import UsageError

LABEL_S = "S"
LABEL_P = "P"


class DisjointSets:
    """A forest of disjoint sets over densely numbered elements."""

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._rank: list[int] = []
        self._sid_at: list[int] = []  # physical root -> live set id
        self._records: dict[int, object] = {}
        self.make_count = 0
        self.find_count = 0
        self.union_count = 0

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def is_live(self, sid: int) -> bool:
        return sid in self._records

    def record(self, sid: int):
        """Mutable metadata record of a live set."""
        rec = self._records.get(sid)
        if rec is None:
            self._reject(sid)
        return rec

    def find(self, elem: int) -> int:
        """Return the live set containing ``elem``.

        Amortized cost is the usual inverse-Ackermann bound.
        """
        self.find_count += 1
        return self._sid_at[self._root(elem)]

    def find_record(self, elem: int):
        """``record(find(elem))`` in one call; counts as one find."""
        self.find_count += 1
        return self._records[self._sid_at[self._root(elem)]]  # a root's set is always live

    def _root(self, elem: int) -> int:
        """The physical root of ``elem``'s tree, compressing the path; not counted."""
        if not 0 <= elem < len(self._parent):
            raise UsageError(f"unknown element {elem}")
        parent = self._parent
        root = elem
        while parent[root] != root:
            root = parent[root]
        while parent[elem] != root:  # path compression
            parent[elem], elem = root, parent[elem]
        return root

    # -- updates ----------------------------------------------------------

    def make_set(self, record) -> int:
        """Create a singleton set holding one fresh element.

        The returned id doubles as the new element's id.
        """
        e = len(self._parent)
        self._parent.append(e)
        self._rank.append(0)
        self._sid_at.append(e)
        self._records[e] = record
        self.make_count += 1
        return e

    def add_element(self, sid: int) -> int:
        """Add a fresh element to live set ``sid`` and return its id.

        Same result, counts and physical link as ``union_into(sid,
        make_set(...))``: the new element hangs under ``sid``'s root.
        """
        if sid not in self._records:
            self._reject(sid)
        root = self._root(sid)
        e = len(self._parent)
        self._parent.append(root)
        self._rank.append(0)
        self._sid_at.append(e)
        if self._rank[root] == 0:
            self._rank[root] = 1
        self.make_count += 1
        self.union_count += 1
        return e

    def union_into(self, a: int, b: int) -> int:
        """Union set ``b`` into set ``a`` and destroy ``b``.

        The survivor keeps ``a``'s id and record regardless of how the trees
        are physically linked.
        """
        if a == b:
            raise UsageError(f"union of set {a} with itself")
        if a not in self._records:
            self._reject(a)
        if b not in self._records:
            self._reject(b)
        ra, rb = self._root(a), self._root(b)
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        elif self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._parent[rb] = ra
        self._sid_at[ra] = a
        del self._records[b]
        self.union_count += 1
        return a

    def relabel(self, sid: int, label: str) -> None:
        self.record(sid)  # rejects a dead set
        self._records[sid] = label

    def _reject(self, sid: int):
        raise UsageError(f"unknown or destroyed set {sid}")
