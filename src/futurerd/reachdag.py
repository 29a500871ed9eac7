"""Dag with an eagerly maintained full transitive closure.

The closure is kept as one growable *ancestor* row per node: bit i of
``_anc[j]`` is set when i reaches j. ``reach`` is strict: a node never
reaches itself.

Node ids follow creation order, but that is not a topological order: a
caller may wire a new node into older ones (``MultiBagsPlus`` promotes a
fork to a node only at its both-attached sync, after its children have
theirs), so a descendant can have a lower id than its ancestor. What callers
do guarantee is that edges follow execution order, so an edge never closes
a cycle.

Adding ``src -> dst`` ORs ``_anc[src] | 1 << src`` into the row of ``dst``
and of every descendant of ``dst``:

* an edge into the newest node, while that node has no out-edge, is one OR:
  the node has no descendants;
* an edge whose bits ``dst`` already has is a no-op, since every descendant
  of ``dst`` has them too;
* any other edge scans the rows for the descendants of ``dst``.
  ``add_fork_edge`` lets the caller bound that scan from below.

The closure needs about k²/16 bytes for k nodes, and k²/8 at worst, so
``add_node`` refuses to grow past ``MAX_NODES``.
"""

from __future__ import annotations

from .errors import ClosureLimitError, InvariantError, UsageError

# 2^17 nodes is about 1 GiB of ancestor rows in the usual shape (row j holds
# bits below j) and 2 GiB at worst.
MAX_NODES = 1 << 17


class ReachDag:
    def __init__(self) -> None:
        self._anc: list[int] = []  # _anc[j] bit i set <=> i reaches j
        self._newest_is_sink = True  # the newest node has no out-edge yet

    def __len__(self) -> int:
        return len(self._anc)

    def add_node(self) -> int:
        n = len(self._anc)
        if n >= MAX_NODES:
            raise ClosureLimitError(n + 1, MAX_NODES)
        self._anc.append(0)
        self._newest_is_sink = True
        return n

    def add_edge(self, src: int, dst: int) -> None:
        anc = self._anc
        n = len(anc)
        self._check_edge(src, dst, n)
        if dst == n - 1 and self._newest_is_sink:
            anc[dst] |= anc[src] | (1 << src)
        else:
            self._propagate(src, dst, 0)

    def add_fork_edge(self, src: int, dst: int, lo: int) -> None:
        """Add ``src -> dst`` where every descendant of ``dst`` (and ``dst``
        itself) has an id of at least ``lo``; only rows ``lo..`` are scanned."""
        n = len(self._anc)
        self._check_edge(src, dst, n)
        if not 0 <= lo <= dst:
            raise UsageError(f"scan bound {lo} above the target of edge {src}->{dst}")
        self._propagate(src, dst, lo)

    def _check_edge(self, src: int, dst: int, n: int) -> None:
        if not (0 <= src < n and 0 <= dst < n):
            raise UsageError(f"unknown node in edge {src}->{dst}")
        # Callers only add edges along execution order; a cycle means the
        # caller's bookkeeping is broken, not that the input was bad.
        if src == dst:
            raise InvariantError(f"self edge on node {src}")
        if (self._anc[src] >> dst) & 1:
            raise InvariantError(f"edge {src}->{dst} would close a cycle")

    def _propagate(self, src: int, dst: int, lo: int) -> None:
        anc = self._anc
        n = len(anc)
        if src == n - 1:
            self._newest_is_sink = False
        new_bits = anc[src] | (1 << src)
        if anc[dst] | new_bits == anc[dst]:
            return
        for d in range(lo, n):
            if d == dst or (anc[d] >> dst) & 1:
                anc[d] |= new_bits

    def reach(self, a: int, b: int) -> bool:
        n = len(self._anc)
        if not (0 <= a < n and 0 <= b < n):
            raise UsageError(f"unknown node in reach({a}, {b})")
        return bool((self._anc[b] >> a) & 1)

    def row(self, a: int) -> int:
        """Descendants of ``a`` as a bitmask (test hook; scans every row)."""
        bits = "".join("1" if (r >> a) & 1 else "0" for r in reversed(self._anc))
        return int(bits or "0", 2)
