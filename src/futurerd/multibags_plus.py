"""Reachability for general futures.

Two disjoint-set forests plus one closure-maintained dag answer "did strand u
happen before the currently executing strand v" for programs whose futures
may be multi-touch and may be joined by logically parallel strands.

* the inherited ``forest`` holds the S/P bags of ``MultiBags`` (the paper's
  D_SP), kept by its hooks, with spawn treated like create and sync like
  get, and with *nothing* done on get. An S-labeled bag still certifies
  precedence, but a P-labeled bag is no longer conclusive: the path may run
  through get edges.
* ``d_nsp`` partitions strands into sets that each cover a chunk of a single
  fork-join region. Each set carries an ``NspRecord``. A set is *attached*
  when it mirrors a node of the reachability dag ``r``: its ``r_node`` is
  that node, and its ``att_pred`` and ``att_succ`` are the set itself. It is
  *unattached* (``r_node`` is None) when it covers a completed fork-join
  subdag that no create/get edge touches. Its two proxies into ``r`` are then
  ``att_pred`` (an attached set wholly before it, fixed at creation) and
  ``att_succ`` (an attached set containing its eventual join point, set at
  most once). Either way, a query reads ``att_succ`` of the earlier strand's
  set and ``att_pred`` of the current one.
* ``r`` records, with a full transitive closure, every ordering that crosses
  create or get edges between attached sets. Node 0 is the root's set.

A strand's id is also its element in both forests. Each control hook places
the strand that follows it: in ``forest`` by ``MultiBags``' hook (a bag is
named by its first strand), and in ``d_nsp`` by the rules below.

``trace.walk`` keeps the frame stack, with a ``_Child`` as each frame's
record (its fork strand, and its sink once it returns), and hands each hook
the records of the child and of the frame. The detector itself keeps one
stack, ``_windows``: the spawned children not yet synced, across all open
frames, which nest, so the innermost window is on top.

Key maintenance rules, enforced here and checked by the test suite against a
brute-force dag at every step:

* Two attached sets are never unioned; an unattached set unions into an
  attached one, never the reverse.
* A create makes (up to) three attached sets: the creator strand's, the
  future's first, and the creator's continuation, with edges creator->future
  and creator->continuation.
* A get makes (up to) two: the strand before the get, and the getter, with
  edges from both the pre-get strand's set and the future's sink set into
  the getter's set. The sink set is attached already: a future's frame
  syncs its spawns before it returns, and each of its top-level strands
  starts in an attached set.
* A sync either collapses a clean fork-join region into the fork's set
  (both sides unattached), or grafts the fork/join onto the one attached
  side and leaves the clean side a proxy pair, or (both sides attached)
  promotes the fork and join themselves to attached sets.

*Dormancy.* Until the first create, ``d_nsp`` stays empty and the hooks do
only ``MultiBags``' work and record strand ids on the spawn records. No get
can come before a create, and with only spawns and syncs the S/P bags are
exact, so a dormant ``precedes`` answers from the bag's label alone: S means
True, P means False. A trace without futures thus runs ``MultiBags``' code.
The first create calls ``_wake``, which builds in one pass over the strands
the ``d_nsp`` the eager rules would have built by then, and the detector
stays awake from there on. In that state only the
root's set is attached. Each open spawn window (``_windows``) has a left
source strand, the child's first (``fork + 1``), and, once the child has
returned, a right source strand, the continuation's first (``sink + 1``).
Each starts a fresh unattached set with ``att_pred`` = 0, the root's set.
Every other strand is in the set of the latest start at or below it,
because a closed window has collapsed into its fork's set. Strand 0 and the strands before the
first start form the root's set.

Each ``add_edge`` enters the node just created from an older one, the one
kind of edge ``ReachDag.add_edge`` takes, and costs one OR. The two
fork->source edges of a both-attached sync enter older nodes instead, and
they rely on the *spawn window* invariant. Every set that holds a strand
run between a spawn and its sync was created in that window, so its dag node
was created there too. Every edge added in the window ends at a node of the
window. So the two source nodes and their descendants are exactly the nodes
from ``len(r)`` at the spawn (``_Child.r_floor``) on, except the fork's own
node, which is older or was just promoted. The sync therefore adds both
edges as one ``ReachDag.close_window(fork, r_floor)``, which touches no row:
the window's nodes owe the fork's bits, and readers add them. Spawn windows
nest, as ``close_window`` requires. The owed bits add at most one row per
closed window to the closure's k²/8 bytes.
"""

from __future__ import annotations

from .dsu import DisjointSets
from .errors import InvariantError
from .multibags import MultiBags
from .reachdag import ReachDag
from .trace import SPAWN


class NspRecord:
    """Metadata of a ``d_nsp`` set; see the module docstring. A plain
    ``__slots__`` class: one is made per set, on every control event."""

    __slots__ = ("r_node", "att_pred", "att_succ")

    def __init__(self, r_node: int | None = None, att_pred: int | None = None,
                 att_succ: int | None = None) -> None:
        self.r_node = r_node  # dag node; None while the set is unattached
        self.att_pred = att_pred
        self.att_succ = att_succ


class _Child:
    """A frame's record, kept by ``trace.walk`` on its frame stack; a plain
    ``__slots__`` class, as one is made per spawn and create."""

    __slots__ = ("fork", "r_floor", "cont_node", "sink")

    def __init__(self, fork: int, r_floor: int = 0, cont_node: int | None = None) -> None:
        # the parent's strand before the child; the child's S/P bag is fork + 1
        self.fork = fork
        # spawned: len(r) at the spawn, the lowest id a node of the window gets
        self.r_floor = r_floor
        self.cont_node = cont_node  # created: dag node of the creator's continuation
        self.sink: int | None = None  # the child's last strand, set when it returns


class MultiBagsPlus(MultiBags):
    def __init__(self) -> None:
        super().__init__()
        self.root = _Child(fork=-1)  # no fork strand; its bag, fork + 1, is strand 0's
        self.d_nsp = DisjointSets()  # empty while dormant; see _wake
        self.r = ReachDag()
        self.r.add_node()  # node 0: the root's set
        self._windows: list[_Child] = []  # open spawn windows; frames nest, so one stack
        self._dormant = True

    def _wake(self) -> None:
        """End dormancy: build ``d_nsp`` as of the current strand.

        The result is the partition and records the eager hooks would have
        built; the module docstring states the rule.
        """
        starts = set()
        for child in self._windows:
            starts.add(child.fork + 1)
            if child.sink is not None:
                starts.add(child.sink + 1)
        nsp = self.d_nsp
        sid = nsp.make_set(NspRecord(0, att_pred=0, att_succ=0))
        for s in range(1, self._cur + 1):
            if s in starts:
                sid = nsp.make_set(NspRecord(att_pred=0))
            else:
                nsp.add_element(sid)
        self._dormant = False

    # -- d_nsp helpers ------------------------------------------------------

    def _nsp_union(self, into: int, other: int) -> int:
        other_rec = self.d_nsp.record(other)
        if other_rec.r_node is not None:  # attached side must survive
            raise InvariantError(f"attached set {other} absorbed into set {into}")
        if other_rec.att_succ is not None:
            # a set with a join proxy is sealed; absorbing it would drop
            # ordering information
            raise InvariantError(f"set {other} with an attached successor absorbed")
        return self.d_nsp.union_into(into, other)

    def _attachify(self, sid: int) -> int:
        """Ensure the set is attached; return its dag node. Idempotent."""
        rec = self.d_nsp.record(sid)
        if rec.r_node is not None:
            return rec.r_node
        pred_node = self._rnode(rec.att_pred)
        node = self.r.add_node()
        self.r.add_edge(pred_node, node)
        rec.r_node = node
        rec.att_pred = rec.att_succ = sid
        return node

    def _rnode(self, sid: int) -> int:
        node = self.d_nsp.record(sid).r_node
        if node is None:
            raise InvariantError(f"set {sid} has no dag node (unattached)")
        return node

    def _start_unattached(self, pred_elem: int) -> None:
        """Next strand: a fresh unattached set behind ``pred_elem``'s set."""
        att_pred = self.d_nsp.find_record(pred_elem).att_pred
        self._placed(self.d_nsp.make_set(NspRecord(att_pred=att_pred)))

    def _start_attached(self, node: int) -> None:
        """Next strand: a fresh attached set for dag node ``node``."""
        s = self._cur + 1  # an attached set is its own proxy both ways
        self._placed(self.d_nsp.make_set(NspRecord(node, att_pred=s, att_succ=s)))

    # -- replay hooks: trace.walk checks each event's frame grammar first ----

    def on_child_begin(self, kind: str, handle: int | None) -> _Child:
        fork = self._cur
        # The hooks call MultiBags' hooks by name: a super() call cost about
        # 0.25 us more on CPython 3.11 (2-core x86-64), on every control event.
        MultiBags.on_child_begin(self, kind, handle)  # the same S bag for either kind
        if kind == SPAWN:
            child = _Child(fork, r_floor=len(self.r))
            self._windows.append(child)
            if not self._dormant:
                self._start_unattached(fork)
            return child
        if self._dormant:
            self._wake()
        rn = self._attachify(self.d_nsp.find(fork))
        r_future = self.r.add_node()
        self.r.add_edge(rn, r_future)
        r_cont = self.r.add_node()
        self.r.add_edge(rn, r_cont)
        self._start_attached(r_future)
        return _Child(fork, cont_node=r_cont)

    def on_return(self, child: _Child, frame: _Child) -> None:
        MultiBags.on_return(self, child.fork + 1, frame.fork + 1)
        child.sink = self._cur
        if child.cont_node is not None:
            self._start_attached(child.cont_node)
        elif not self._dormant:
            self._start_unattached(child.fork)

    def on_sync(self, child: _Child, frame: _Child) -> None:
        MultiBags.on_sync(self, child.fork + 1, frame.fork + 1)  # absorbs the child's P bag
        if self._windows.pop() is not child:
            raise InvariantError("sync does not close the innermost spawn window")
        if self._dormant:
            return

        nsp = self.d_nsp
        fork_set = nsp.find(child.fork)
        left_src = nsp.find(child.fork + 1)
        left_sink = nsp.find(child.sink)
        right_src = nsp.find(child.sink + 1)
        right_sink = nsp.find(self._cur)
        la = nsp.record(left_sink).r_node is not None
        ra = nsp.record(right_sink).r_node is not None

        if not la and not ra:
            # Both sides are clean completed subdags: the whole parallel
            # composition collapses into the fork's set.
            if left_sink != left_src or right_sink != right_src:
                raise InvariantError("unattached subdag is split across sets")
            self._nsp_union(fork_set, left_sink)
            self._nsp_union(fork_set, right_sink)
            self._placed(nsp.add_element(fork_set))
        elif la and ra:
            # Promote fork and join; wire them around both subdags. The
            # fork->source edges close the spawn window (module docstring).
            self.both_attached_syncs += 1
            rf = self._attachify(fork_set)
            self._rnode(left_src)  # both sources are attached
            self._rnode(right_src)
            self.r.close_window(rf, child.r_floor)
            r_join = self.r.add_node()
            self.r.add_edge(self._rnode(left_sink), r_join)
            self.r.add_edge(self._rnode(right_sink), r_join)
            self._start_attached(r_join)
        else:
            if la:
                att_src, att_sink = left_src, left_sink
                unattached, un_src = right_sink, right_src
            else:
                att_src, att_sink = right_src, right_sink
                unattached, un_src = left_sink, left_src
            if nsp.record(att_src).r_node is None:
                raise InvariantError("attached subdag has an unattached source set")
            if unattached != un_src or unattached == fork_set:
                raise InvariantError("unattached subdag is split across sets")
            if nsp.record(fork_set).r_node is None:
                # Grow the attached side backwards over the fork; the union
                # keeps att_src's id, and att_sink is attached, so not the fork.
                self._nsp_union(att_src, fork_set)
            # The clean side keeps its set; the join point is its proxy.
            un_rec = nsp.record(unattached)
            if un_rec.att_succ is not None:
                raise InvariantError("attached successor assigned twice")
            un_rec.att_succ = att_sink
            self._placed(nsp.add_element(att_sink))

    def on_get(self, handle: int, future: _Child, frame: _Child) -> None:
        # _attachify never unions, so each set is found once.
        pre = self.d_nsp.find(self._cur)
        pre_node = self._attachify(pre)
        sink_node = self._rnode(self.d_nsp.find(future.sink))
        r_get = self.r.add_node()
        self.r.add_edge(pre_node, r_get)
        # The sink's set is never ``pre``: ``pre`` is in the getter's S bag, the sink in
        # the future's P bag, and a set lies in one bag (``_past_p_bag``, point (1)).
        self.r.add_edge(sink_node, r_get)
        self._start_attached(r_get)
        # The S/P side gains only the next strand: bags cannot absorb a
        # multi-touch future.
        self._placed(self.forest.add_element(frame.fork + 1))

    # -- queries ------------------------------------------------------------

    def _past_p_bag(self, u: int) -> bool:
        """``precedes`` for a strand ``u`` in a P bag: a path may run through gets.

        ``u`` precedes the current strand when its set's join proxy ``a1``
        reaches the current set's fork proxy ``a2`` in ``r``, and ``a1`` is
        never ``a2``. Proof, calling a set S or P by its bag's label: (1) a
        ``d_nsp`` set lies in one bag. A new set holds one strand; a sync
        adds its join to, and unions, only sets of its fork strand and its
        window, all in the frame's bag once the child's bag joins it; a get
        unions nothing. (2) ``a1`` is P: it is ``u``'s set, or the set that
        got the join of the sync that sealed ``u``'s set, so in ``u``'s bag. (3)
        ``a2`` is S: it is the current set, or was copied at a spawn or a
        return from the set of the frame's fork strand. An unattached set
        gains only strands of its frame and of that frame's synced children,
        so ``a2`` holds a strand of the current frame or of an ancestor, and
        none of these has returned. ``_wake`` builds what the hooks would.
        """
        if self._dormant:
            return False  # no future yet, so the S/P bags are exact
        a1 = self.d_nsp.find_record(u).att_succ
        if a1 is None:
            # No join point has sealed u's region yet, so nothing downstream
            # of it can be running.
            return False
        a2 = self.d_nsp.find_record(self._cur).att_pred
        return self.r.reach(self._rnode(a1), self._rnode(a2))

    # -- accounting ---------------------------------------------------------

    @property
    def find_ops(self) -> int:
        return super().find_ops + self.d_nsp.find_count

    @property
    def union_ops(self) -> int:
        return super().union_ops + self.d_nsp.union_count

    @property
    def attached_sets(self) -> int:
        return len(self.r)
