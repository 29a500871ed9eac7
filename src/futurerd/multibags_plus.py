"""Reachability for general futures.

Two disjoint-set forests plus one closure-maintained dag answer "did strand u
happen before the currently executing strand v" for programs whose futures
may be multi-touch and may be joined by logically parallel strands.

* ``d_sp`` holds S/P bags exactly like the structured algorithm, with spawn
  treated like create and sync like get, and with *nothing* done on get. An
  S-labeled bag still certifies precedence, but a P-labeled bag is no longer
  conclusive: the path may run through get edges.
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
  create or get edges between attached sets.

Key maintenance rules, enforced here and checked by the test suite against a
brute-force dag at every step:

* Two attached sets are never unioned; an unattached set unions into an
  attached one, never the reverse.
* A create makes (up to) three attached sets: the creator strand's, the
  future's first, and the creator's continuation, with edges creator->future
  and creator->continuation.
* A get makes (up to) two: the strand before the get, and the getter, with
  edges from both the pre-get strand's set and the future's sink set into
  the getter's set.
* A sync either collapses a clean fork-join region into the fork's set
  (both sides unattached), or grafts the fork/join onto the one attached
  side and leaves the clean side a proxy pair, or (both sides attached)
  promotes the fork and join themselves to attached sets.

Every edge of ``r`` enters the node just created, which costs one OR, except
the two fork->source edges of a both-attached sync. Those enter older nodes,
and they rely on the *spawn window* invariant. Every set that holds a strand
run between a spawn and its sync was created in that window, so its dag node
was created there too. Every edge added in the window ends at a node of the
window. So the descendants of either source node all have ids of at least
``len(r)`` at the spawn (``_SpawnRec.r_floor``), and the fork edges scan only
those rows. The fork's own node is older or was just promoted, and it is
never a descendant of a source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dsu import LABEL_P, LABEL_S, BagRecord, DisjointSets
from .errors import InputError, InvariantError, UsageError
from .reachdag import ReachDag
from .trace import CREATE, SPAWN


@dataclass(slots=True)
class NspRecord:
    """Metadata of a ``d_nsp`` set; see the module docstring."""

    r_node: int | None = None  # dag node; None while the set is unattached
    att_pred: int | None = None
    att_succ: int | None = None


@dataclass(slots=True)
class _SpawnRec:
    fork_elem: int
    r_floor: int  # len(r) at the spawn: the lowest id a node of the window can get
    left_source_elem: int | None = None
    left_sink_elem: int | None = None
    right_source_elem: int | None = None
    child_dsp_bag: int | None = None


@dataclass(slots=True)
class _Frame:
    kind: str  # root|spawn|create
    handle: int | None = None
    dsp_bag: int | None = None
    pending: tuple | None = None  # placement directive for this frame's next strand
    spawn_stack: list[_SpawnRec] = field(default_factory=list)
    spawn_rec: _SpawnRec | None = None  # parent-side record, for spawned frames


@dataclass(slots=True)
class _Handle:
    creator_elem: int
    sink_elem: int | None = None


class MultiBagsPlus:
    def __init__(self) -> None:
        self.d_sp = DisjointSets()
        self.d_nsp = DisjointSets()
        self.r = ReachDag()
        self._frames: list[_Frame] = [_Frame(kind="root", pending=("root",))]
        self._handles: dict[int, _Handle] = {}
        self._cur = -1
        self.both_attached_syncs = 0

    # -- d_nsp helpers ------------------------------------------------------

    def _nsp_union(self, into: int, other: int) -> int:
        into_attached = self.d_nsp.record(into).r_node is not None
        other_rec = self.d_nsp.record(other)
        if into_attached and other_rec.r_node is not None:
            raise InvariantError(f"union of two attached sets {into} and {other}")
        if other_rec.r_node is not None:  # attached side must survive
            raise InvariantError(f"attached set {other} unioned into unattached {into}")
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

    # -- replay hooks -------------------------------------------------------

    def on_child_begin(self, kind: str, fn: int | None, handle: int | None) -> None:
        if kind not in (SPAWN, CREATE):
            raise UsageError(f"bad child kind {kind!r}")
        frame = self._frames[-1]
        fork = self._cur
        if kind == SPAWN:
            rec = _SpawnRec(fork_elem=fork, r_floor=len(self.r))
            frame.spawn_stack.append(rec)
            frame.pending = ("spawn_cont", fork)
            child = _Frame(kind=SPAWN, pending=("child_unattached", fork))
            child.spawn_rec = rec
        else:
            if handle in self._handles:
                raise InputError(f"duplicate future handle {handle}")
            self._attachify(self.d_nsp.find(fork))
            rn = self._rnode(self.d_nsp.find(fork))
            r_future = self.r.add_node()
            self.r.add_edge(rn, r_future)
            r_cont = self.r.add_node()
            self.r.add_edge(rn, r_cont)
            self._handles[handle] = _Handle(creator_elem=fork)
            frame.pending = ("fresh_attached", r_cont)
            child = _Frame(kind=CREATE, handle=handle, pending=("fresh_attached", r_future))
        self._frames.append(child)

    def on_strand_begin(self, s: int) -> None:
        frame = self._frames[-1]
        # S/P bag side: identical treatment for spawned and created children.
        if frame.dsp_bag is None:
            sid = self.d_sp.make_set(BagRecord(label=LABEL_S))
            frame.dsp_bag = sid
        else:
            sid = self.d_sp.add_element(frame.dsp_bag)
        if sid != s:
            raise InvariantError(f"strand {s} allocated d_sp element {sid}")

        directive = frame.pending
        frame.pending = None
        if directive is None:
            raise InvariantError(f"no placement directive for strand {s}")
        tag = directive[0]
        # An attached set is its own proxy both ways; its id will be s.
        if tag == "root":
            nid = self.d_nsp.make_set(NspRecord(self.r.add_node(), att_pred=s, att_succ=s))
        elif tag == "child_unattached" or tag == "spawn_cont":
            pred_set = self.d_nsp.find(directive[1])
            nid = self.d_nsp.make_set(NspRecord(att_pred=self.d_nsp.record(pred_set).att_pred))
            if tag == "child_unattached":
                frame.spawn_rec.left_source_elem = nid
            else:
                frame.spawn_stack[-1].right_source_elem = nid
        elif tag == "fresh_attached":
            nid = self.d_nsp.make_set(NspRecord(directive[1], att_pred=s, att_succ=s))
        elif tag == "into":
            nid = self.d_nsp.add_element(self.d_nsp.find(directive[1]))
        else:
            raise InvariantError(f"unknown directive {directive!r}")
        if nid != s:
            raise InvariantError(f"strand {s} allocated d_nsp element {nid}")
        self._cur = s

    def on_return(self) -> None:
        if len(self._frames) == 1:
            raise InputError("return from the root frame")
        frame = self._frames.pop()
        self.d_sp.relabel(frame.dsp_bag, LABEL_P)
        sink = self._cur
        if frame.kind == SPAWN:
            frame.spawn_rec.left_sink_elem = sink
            frame.spawn_rec.child_dsp_bag = frame.dsp_bag
        else:
            self._handles[frame.handle].sink_elem = sink

    def on_sync(self) -> None:
        frame = self._frames[-1]
        if not frame.spawn_stack:
            raise InputError("sync with no outstanding spawned child")
        rec = frame.spawn_stack.pop()
        if rec.left_sink_elem is None or rec.right_source_elem is None:
            raise InvariantError("sync before the spawned child completed")

        # S/P side first: the child's P bag joins this frame's S bag.
        if self.d_sp.record(rec.child_dsp_bag).label != LABEL_P:
            raise InvariantError("synced child's bag is not P-labeled")
        self.d_sp.union_into(frame.dsp_bag, rec.child_dsp_bag)

        nsp = self.d_nsp
        fork_set = nsp.find(rec.fork_elem)
        left_src = nsp.find(rec.left_source_elem)
        left_sink = nsp.find(rec.left_sink_elem)
        right_src = nsp.find(rec.right_source_elem)
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
            frame.pending = ("into", rec.fork_elem)
        elif la and ra:
            # Promote fork and join; wire them around both subdags.
            self.both_attached_syncs += 1
            self._attachify(fork_set)
            rf = self._rnode(nsp.find(rec.fork_elem))
            self.r.add_fork_edge(rf, self._rnode(left_src), rec.r_floor)
            self.r.add_fork_edge(rf, self._rnode(right_src), rec.r_floor)
            r_join = self.r.add_node()
            self.r.add_edge(self._rnode(left_sink), r_join)
            self.r.add_edge(self._rnode(right_sink), r_join)
            frame.pending = ("fresh_attached", r_join)
        else:
            if la:
                att_src, att_sink_elem = left_src, rec.left_sink_elem
                unattached, un_src = right_sink, right_src
            else:
                att_src, att_sink_elem = right_src, self._cur
                unattached, un_src = left_sink, left_src
            if nsp.record(att_src).r_node is None:
                raise InvariantError("attached subdag has an unattached source set")
            if unattached != un_src or unattached == fork_set:
                raise InvariantError("unattached subdag is split across sets")
            if nsp.record(fork_set).r_node is None:
                # Grow the attached side backwards over the fork.
                self._nsp_union(att_src, fork_set)
            # The clean side keeps its set; the join point is its proxy.
            un_rec = nsp.record(unattached)
            if un_rec.att_succ is not None:
                raise InvariantError("attached successor assigned twice")
            un_rec.att_succ = nsp.find(att_sink_elem)
            frame.pending = ("into", att_sink_elem)

    def on_get(self, handle: int) -> None:
        rec = self._handles.get(handle)
        if rec is None:
            raise InputError(f"get of unknown handle {handle}")
        if rec.sink_elem is None:
            raise InputError(f"get of handle {handle} before its future returned")
        frame = self._frames[-1]
        pre = self.d_nsp.find(self._cur)
        self._attachify(pre)
        sink = self.d_nsp.find(rec.sink_elem)
        self._attachify(sink)  # futures start attached, so normally a no-op
        r_get = self.r.add_node()
        self.r.add_edge(self._rnode(self.d_nsp.find(self._cur)), r_get)
        if self.d_nsp.find(rec.sink_elem) != self.d_nsp.find(self._cur):
            self.r.add_edge(self._rnode(self.d_nsp.find(rec.sink_elem)), r_get)
        frame.pending = ("fresh_attached", r_get)
        # d_sp deliberately untouched: bags cannot absorb a multi-touch future.

    # -- queries ------------------------------------------------------------

    def precedes(self, u: int) -> bool:
        """Did strand ``u`` happen before the current strand?"""
        if not 0 <= u <= self._cur:
            raise UsageError(f"strand {u} has not executed")
        if self.d_sp.find_record(u).label == LABEL_S:
            return True
        uu = self.d_nsp.find(u)
        a1 = self.d_nsp.record(uu).att_succ
        if a1 is None:
            # No join point has sealed u's region yet, so nothing downstream
            # of it can be running.
            return False
        vv = self.d_nsp.find(self._cur)
        a2 = self.d_nsp.record(vv).att_pred
        if a1 == a2:
            return uu != vv
        return self.r.reach(self._rnode(a1), self._rnode(a2))

    # -- accounting ---------------------------------------------------------

    @property
    def find_ops(self) -> int:
        return self.d_sp.find_count + self.d_nsp.find_count

    @property
    def union_ops(self) -> int:
        return self.d_sp.union_count + self.d_nsp.union_count

    @property
    def attached_sets(self) -> int:
        return len(self.r)
