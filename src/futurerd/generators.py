"""Benchmark and fuzzing trace generators.

Three families:

* :func:`gen_lcs_structured`: blocked dynamic-programming wavefront where a
  serial traversal creates one future per block and joins each block's upper
  neighbor right before creating the block that needs it. Single-touch, and
  every join happens downstream of the matching create.
* :func:`gen_lcs_general`: the same block grid, but every block's future
  joins its left and upper neighbors from inside its own body, so handles are
  touched up to twice and joins happen in logically parallel siblings.
* :func:`gen_random`: seeded random well-formed traces mixing spawn/sync,
  create/get, and memory accesses; race-free by construction unless asked to
  plant exactly one race.

The two block-grid families differ only in their traversal order and their
``get`` events; the grid's base address and each block's body are built by
:func:`_grid_base` and :func:`_block_body`.

All generated accesses are 4-byte aligned; every address is written at most
once per trace, which is what makes the race analysis of generated traces
exact: a planted race is exactly one conflicting pair.
"""

from __future__ import annotations

import itertools
import random

from .errors import UsageError
from .trace import CREATE, GET, READ, RET, SPAWN, SYNC, WRITE, Event, EventSequence

WORD = 4
_ADDR_BASE = 1 << 20
MAX_DEPTH = 12  # gen_random opens frames at most this many levels below the root


def _grid_base(nblocks: int, seed: int, inject_race: bool) -> int:
    """Check a grid's arguments and return its base address, drawn from ``seed``."""
    if nblocks < 1:
        raise UsageError("nblocks must be >= 1")
    if inject_race and nblocks < 2:
        raise UsageError("cannot inject a race with a single block")
    return _ADDR_BASE + WORD * 256 * random.Random(seed).randrange(64)


def _block_body(ev: list[Event], base: int, n: int, i: int, j: int, read_up: bool,
                inject_race: bool) -> None:
    """Append the body of block (i, j) of the ``n x n`` grid of cells at ``base``.

    The block reads the cells of its upper neighbor (when ``read_up``), its
    left and its upper-left neighbors, then writes its own cell and returns.
    With ``inject_race``, block (1, n-2) first writes the cell of block
    (0, n-1), which is logically parallel to it: one write-write race.
    """
    own = base + WORD * (i * n + j)
    if read_up:
        ev.append(Event(READ, addr=own - WORD * n))
    if j >= 1:
        ev.append(Event(READ, addr=own - WORD))
    if i >= 1 and j >= 1:
        ev.append(Event(READ, addr=own - WORD * (n + 1)))
    if inject_race and (i, j) == (1, n - 2):
        ev.append(Event(WRITE, addr=base + WORD * (n - 1)))
    ev.append(Event(WRITE, addr=own))
    ev.append(Event(RET))


def gen_lcs_structured(nblocks: int, seed: int = 0, inject_race: bool = False) -> EventSequence:
    """Wavefront-with-futures trace over an ``nblocks x nblocks`` grid.

    The root walks anti-diagonal wavefronts in series. For each block (i, j)
    with j >= 1 it first gets the handle of block (i, j-1); then it creates
    the block's future. A block body reads the neighbor cells it provably
    depends on and writes its own cell. Blocks in the last column never have
    their handles gotten, so their below-neighbors skip the corresponding
    read (it would be unordered).

    With ``inject_race`` the block at (1, nblocks-2) additionally writes the
    cell owned by the logically parallel block (0, nblocks-1), planting
    exactly one write-write race.
    """
    base = _grid_base(nblocks, seed, inject_race)
    n = nblocks
    handle: dict[tuple[int, int], int] = {}  # in creation order, from 1
    ev: list[Event] = []
    for wave in range(2 * n - 1):
        for i in range(max(0, wave - (n - 1)), min(wave, n - 1) + 1):
            j = wave - i
            if j >= 1:
                ev.append(Event(GET, handle=handle[i, j - 1]))
            h = handle[i, j] = len(handle) + 1
            ev.append(Event(CREATE, fn=h, handle=h))
            _block_body(ev, base, n, i, j, i >= 1 and j < n - 1, inject_race)
    return EventSequence(ev)


def gen_lcs_general(nblocks: int, seed: int = 0, inject_race: bool = False) -> EventSequence:
    """Row-major all-futures trace over an ``nblocks x nblocks`` grid.

    The root creates every block's future up front (row-major); each body
    joins its upper and left neighbors itself, then reads their cells and
    writes its own. Interior handles are gotten twice, and joins happen in
    sibling futures, so this family is rejected by the structured detector
    and needs the general one.
    """
    base = _grid_base(nblocks, seed, inject_race)
    n = nblocks
    ev: list[Event] = []
    for i in range(n):
        for j in range(n):
            h = 1 + i * n + j
            ev.append(Event(CREATE, fn=h, handle=h))
            if i >= 1:
                ev.append(Event(GET, handle=h - n))
            if j >= 1:
                ev.append(Event(GET, handle=h - 1))
            _block_body(ev, base, n, i, j, i >= 1, inject_race)
    return EventSequence(ev)


class _GenFrame:
    """A frame open in ``gen_random``.

    A non-root frame was spawned exactly when its handle is None.
    """

    __slots__ = ("handle", "readable", "base", "exported", "pending_syncs")

    def __init__(self, handle: int | None, readable: list[int]):
        self.handle = handle
        self.readable = readable  # addresses this frame may read without racing
        self.base = len(readable)  # readable is shared; entries past base go at ret
        self.exported = []  # addresses settled under this frame, handed out on join
        self.pending_syncs = []  # exports of returned, not-yet-synced spawned children


def gen_random(
    n_events: int = 200,
    p_spawn: float = 0.15,
    p_create: float = 0.10,
    p_get: float = 0.08,
    p_access: float | None = None,
    seed: int = 0,
    inject_race: bool = False,
) -> EventSequence:
    """Random well-formed trace in general mode.

    ``n_events`` is a soft budget: the unwinding that closes all frames and
    syncs all children may add a few trailing events. Reads only target
    addresses whose unique writer provably precedes the reading strand
    (earlier in the same frame, in an ancestor before this lineage forked,
    or inside an already joined child), writes always use fresh addresses,
    so the trace is race-free unless ``inject_race`` plants its single
    conflicting pair. When no chance to plant it arises, ``inject_race``
    appends a ``create``/``w``/``ret``/``r`` tail to the root, a future whose
    write races with the root's read, even with ``p_create=0``; such a trace
    is then not fork-join.
    """
    for name, p in (("p_spawn", p_spawn), ("p_create", p_create), ("p_get", p_get)):
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"{name} must be in [0, 1]")
    if p_access is None:
        p_access = max(0.0, 1.0 - p_spawn - p_create - p_get - 0.12)
    rng = random.Random(seed)
    next_id = itertools.count(1).__next__
    fresh_addr = itertools.count(_ADDR_BASE, WORD).__next__
    ev: list[Event] = []
    stack = [_GenFrame(None, [])]
    closed_handles: list[int] = []
    handle_exports: dict[int, list[int]] = {}
    plant = inject_race  # a race is still to be planted

    def write(frame: _GenFrame) -> None:
        a = fresh_addr()
        ev.append(Event(WRITE, addr=a))
        frame.readable.append(a)
        frame.exported.append(a)

    def close_one(frame: _GenFrame) -> bool:
        """Sync ``frame``'s last spawned child, else return from ``frame``.

        False, and no event, at a root with no child to sync.
        """
        nonlocal plant
        if frame.pending_syncs:
            exported = frame.pending_syncs.pop()
            ev.append(Event(SYNC))
            frame.readable.extend(exported)
            frame.exported.extend(exported)
            return True
        if len(stack) == 1:
            return False
        stack.pop()
        del frame.readable[frame.base:]
        ev.append(Event(RET))
        if frame.handle is None:
            stack[-1].pending_syncs.append(frame.exported)
        else:
            closed_handles.append(frame.handle)
            handle_exports[frame.handle] = frame.exported
        if plant and frame.exported:
            # The child is not joined yet, so one read of something it wrote
            # is exactly one racing pair.
            ev.append(Event(READ, addr=frame.exported[0]))
            plant = False
        return True

    p_fork = p_spawn + p_create
    p_join = p_fork + p_get
    while len(ev) < n_events:
        frame = stack[-1]
        u = rng.random()
        if u < p_fork and len(stack) <= MAX_DEPTH:
            h = next_id()
            handle = None if u < p_spawn else h
            ev.append(Event(SPAWN if handle is None else CREATE, fn=h, handle=handle))
            stack.append(_GenFrame(handle, frame.readable))
        elif u < p_join and closed_handles:
            h = rng.choice(closed_handles)
            ev.append(Event(GET, handle=h))
            frame.readable.extend(handle_exports[h])
            frame.exported.extend(handle_exports[h])
        elif u < p_join + p_access:
            if rng.random() < 0.5 and frame.readable:
                ev.append(Event(READ, addr=rng.choice(frame.readable)))
            else:
                write(frame)
        elif not close_one(frame):
            write(frame)
    while close_one(stack[-1]):
        pass

    if plant:
        # No opportunity arose organically; append one deliberately.
        h, a = next_id(), fresh_addr()
        ev += [Event(CREATE, fn=h, handle=h), Event(WRITE, addr=a), Event(RET),
               Event(READ, addr=a)]
    return EventSequence(ev)
