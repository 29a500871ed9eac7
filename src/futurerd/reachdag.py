"""Dag with a full transitive closure, kept eagerly per edge and lazily per
closed window.

The closure is kept as one growable *ancestor* row per node: bit i of the
row of j is set when i reaches j. ``reach`` is strict: a node never reaches
itself.

``add_edge(src, dst)`` takes only an edge into the newest node ``dst``
from an older node ``src``, while ``dst`` forks no closed window. ``dst``
then has no descendants, so the edge is one OR of the row of ``src`` and
``1 << src`` into the row of ``dst``, and it cannot close a cycle. Any other
edge raises ``UsageError``.

``close_window(fork, lo)`` makes ``fork`` reach every node from ``lo`` on
but itself, in one step and without touching a row. It stands for the
fork->source edges of ``MultiBagsPlus``' both-attached syncs, whose spawn
windows are closed under descendants and nest. A fork promoted at its sync
is the newest node, above its window, so node ids are not a topological
order: a descendant can have a lower id than its ancestor. The window keeps
the fork's bits once, and its nodes owe them:

* ``_win[d]`` is the innermost closed window that holds node ``d``, or -1;
* ``_up[w]`` is the window that adopted window ``w`` (``w`` itself while it
  is outermost), and ``_bits[w]`` the bits ``w`` owes up to ``_up[w]``.
  ``_owed`` ORs the bits on the path to the outermost window and compresses
  the path, as a weighted union-find does.

A node's row is ``_anc[d] | _owed(_win[d])``, and every reader uses that
row. Closing a window adopts the outermost closed windows inside it and
assigns ``_win`` only to the nodes between them, so each node is assigned
once and each window adopted once.

The rows need about k²/16 bytes for k nodes, and k²/8 at worst; the owed
bits add at most one row per closed window. ``add_node`` refuses to grow
past ``MAX_NODES``, the most nodes whose rows fit ``CLOSURE_BUDGET``.
"""

from __future__ import annotations

from math import isqrt

from .errors import ClosureLimitError, InvariantError, UsageError

CLOSURE_BUDGET = 2 << 30  # bytes of ancestor rows, which take up to k²/8 for k nodes
MAX_NODES = isqrt(8 * CLOSURE_BUDGET)  # the most nodes the budget admits: 2^17


class ReachDag:
    def __init__(self) -> None:
        self._anc: list[int] = []  # eager part of each node's row; see _row
        self._win: list[int] = []  # innermost closed window holding each node, or -1
        self._up: list[int] = []  # per window: the window that adopted it, or itself
        self._bits: list[int] = []  # per window: the bits it owes up to _up
        self._outer: list[tuple[int, int, int]] = []  # outermost windows: (lo, end, id), by lo
        self._newest_is_sink = True  # the newest node forks no closed window

    def __len__(self) -> int:
        return len(self._anc)

    def add_node(self) -> int:
        n = len(self._anc)
        if n >= MAX_NODES:
            raise ClosureLimitError(n + 1, CLOSURE_BUDGET)
        self._anc.append(0)
        self._win.append(-1)
        self._newest_is_sink = True
        return n

    def add_edge(self, src: int, dst: int) -> None:
        if not (0 <= src < dst == len(self._anc) - 1 and self._newest_is_sink):
            raise UsageError(f"edge {src}->{dst} does not enter the newest node from "
                             f"an older one, before that node forks a window")
        self._anc[dst] |= self._row(src) | (1 << src)

    def close_window(self, fork: int, lo: int) -> None:
        """Make ``fork`` reach every node from ``lo`` on, except itself.

        ``fork`` is older than ``lo``, or it is the newest node. The caller
        guarantees that no node of the window reaches a node below ``lo``.
        """
        n = len(self._anc)
        if not 0 <= fork < n:
            raise UsageError(f"unknown fork node {fork}")
        if fork < lo <= n:
            end = n
        elif 0 <= lo <= fork == n - 1:
            end = fork
        else:
            raise UsageError(f"window {lo}.. of fork {fork}: the fork must be "
                             f"below the window or the newest node")
        fork_row = self._row(fork)
        if fork_row >> lo:
            raise InvariantError(f"window {lo}.. of fork {fork} would close a cycle")
        if lo == end:
            return
        outer = self._outer
        i = len(outer)
        while i and outer[i - 1][1] > lo:
            i -= 1
        inside = outer[i:]
        if inside and (inside[0][0] < lo or inside[-1][1] > end):
            raise InvariantError(f"window {lo}..{end - 1} does not nest with the closed "
                                 f"windows: a node would join two windows")
        del outer[i:]
        if fork == n - 1:
            self._newest_is_sink = False
        wid = len(self._bits)
        win, up = self._win, self._up
        gap = lo
        for a_lo, a_end, a in inside:
            win[gap:a_lo] = [wid] * (a_lo - gap)
            up[a] = wid
            gap = a_end
        win[gap:end] = [wid] * (end - gap)
        up.append(wid)
        self._bits.append(fork_row | (1 << fork))
        outer.append((lo, end, wid))

    def _row(self, d: int) -> int:
        w = self._win[d]
        return self._anc[d] if w < 0 else self._anc[d] | self._owed(w)

    def _owed(self, w: int) -> int:
        """The bits window ``w`` and every window above it owe."""
        up, bits = self._up, self._bits
        path = []
        while up[w] != w:
            path.append(w)
            w = up[w]
        for x in reversed(path):  # nearest the root first, so up[x] is compressed
            if up[x] != w:
                bits[x] |= bits[up[x]]
                up[x] = w
        return bits[path[0]] | bits[w] if path else bits[w]

    def _owing(self, a: int) -> list[bool]:
        """Per window, whether it owes bit ``a``; the extra last entry, read
        at index -1, is for nodes in no window."""
        up, bits = self._up, self._bits
        owes = [False] * (len(bits) + 1)
        for w in range(len(bits) - 1, -1, -1):  # _up[w] is w or a later window
            owes[w] = owes[up[w]] or bool((bits[w] >> a) & 1)
        return owes

    def reach(self, a: int, b: int) -> bool:
        n = len(self._anc)
        if not (0 <= a < n and 0 <= b < n):
            raise UsageError(f"unknown node in reach({a}, {b})")
        if (self._anc[b] >> a) & 1:
            return True
        w = self._win[b]
        return w >= 0 and bool((self._owed(w) >> a) & 1)

    def row(self, a: int) -> int:
        """Descendants of ``a`` as a bitmask (test hook; scans every row)."""
        owes = self._owing(a)
        bits = "".join("1" if owes[w] or (r >> a) & 1 else "0"
                       for r, w in zip(reversed(self._anc), reversed(self._win)))
        return int(bits or "0", 2)
