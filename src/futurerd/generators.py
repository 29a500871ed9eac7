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

All generated accesses are 4-byte aligned; every address is written at most
once per trace, which is what makes the race analysis of generated traces
exact: a planted race is exactly one conflicting pair.
"""

from __future__ import annotations

import random

from .errors import UsageError
from .trace import CREATE, GET, READ, RET, SPAWN, SYNC, WRITE, Event, EventSequence

WORD = 4
_ADDR_BASE = 1 << 20


def _cell_addr(base: int, n: int, i: int, j: int) -> int:
    return base + WORD * (i * n + j)


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
    if nblocks < 1:
        raise UsageError("nblocks must be >= 1")
    if inject_race and nblocks < 2:
        raise UsageError("cannot inject a race with a single block")
    rng = random.Random(seed)
    base = _ADDR_BASE + WORD * 256 * rng.randrange(64)
    n = nblocks
    handle = {}
    next_id = 1
    ev: list[Event] = []
    for wave in range(2 * n - 1):
        for i in range(max(0, wave - (n - 1)), min(wave, n - 1) + 1):
            j = wave - i
            if j >= 1:
                ev.append(Event(GET, handle=handle[(i, j - 1)]))
            handle[(i, j)] = next_id
            ev.append(Event(CREATE, fn=next_id, handle=next_id))
            next_id += 1
            if i >= 1 and j < n - 1:
                ev.append(Event(READ, addr=_cell_addr(base, n, i - 1, j)))
            if j >= 1:
                ev.append(Event(READ, addr=_cell_addr(base, n, i, j - 1)))
            if i >= 1 and j >= 1:
                ev.append(Event(READ, addr=_cell_addr(base, n, i - 1, j - 1)))
            if inject_race and (i, j) == (1, n - 2):
                ev.append(Event(WRITE, addr=_cell_addr(base, n, 0, n - 1)))
            ev.append(Event(WRITE, addr=_cell_addr(base, n, i, j)))
            ev.append(Event(RET))
    return EventSequence(ev)


def gen_lcs_general(nblocks: int, seed: int = 0, inject_race: bool = False) -> EventSequence:
    """Row-major all-futures trace over an ``nblocks x nblocks`` grid.

    The root creates every block's future up front (row-major); each body
    joins its upper and left neighbors itself, then reads their cells and
    writes its own. Interior handles are gotten twice, and joins happen in
    sibling futures, so this family is rejected by the structured detector
    and needs the general one.
    """
    if nblocks < 1:
        raise UsageError("nblocks must be >= 1")
    if inject_race and nblocks < 2:
        raise UsageError("cannot inject a race with a single block")
    rng = random.Random(seed)
    base = _ADDR_BASE + WORD * 256 * rng.randrange(64)
    n = nblocks
    ev: list[Event] = []
    for i in range(n):
        for j in range(n):
            fid = 1 + i * n + j
            ev.append(Event(CREATE, fn=fid, handle=fid))
            if i >= 1:
                ev.append(Event(GET, handle=1 + (i - 1) * n + j))
            if j >= 1:
                ev.append(Event(GET, handle=1 + i * n + (j - 1)))
            if i >= 1:
                ev.append(Event(READ, addr=_cell_addr(base, n, i - 1, j)))
            if j >= 1:
                ev.append(Event(READ, addr=_cell_addr(base, n, i, j - 1)))
            if i >= 1 and j >= 1:
                ev.append(Event(READ, addr=_cell_addr(base, n, i - 1, j - 1)))
            if inject_race and (i, j) == (1, n - 2):
                ev.append(Event(WRITE, addr=_cell_addr(base, n, 0, n - 1)))
            ev.append(Event(WRITE, addr=_cell_addr(base, n, i, j)))
            ev.append(Event(RET))
    return EventSequence(ev)


class _GenFrame:
    __slots__ = ("kind", "handle", "readable", "base", "exported", "pending_syncs")

    def __init__(self, kind: str, handle: int | None, readable: list[int]):
        self.kind = kind
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
    max_depth: int = 12,
) -> EventSequence:
    """Random well-formed trace in general mode.

    ``n_events`` is a soft budget: the unwinding that closes all frames and
    syncs all children may add a few trailing events. Reads only target
    addresses whose unique writer provably precedes the reading strand
    (earlier in the same frame, in an ancestor before this lineage forked,
    or inside an already joined child), writes always use fresh addresses,
    so the trace is race-free unless ``inject_race`` plants its single
    conflicting pair.
    """
    for name, p in (("p_spawn", p_spawn), ("p_create", p_create), ("p_get", p_get)):
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"{name} must be in [0, 1]")
    if p_access is None:
        p_access = max(0.0, 1.0 - p_spawn - p_create - p_get - 0.12)
    rng = random.Random(seed)
    ev: list[Event] = []
    stack = [_GenFrame("root", None, [])]
    closed_handles: list[int] = []
    handle_exports: dict[int, list[int]] = {}
    next_id = 1
    next_addr = _ADDR_BASE
    injected = False

    def fresh_addr() -> int:
        nonlocal next_addr
        a = next_addr
        next_addr += WORD
        return a

    def do_write(frame: _GenFrame) -> None:
        a = fresh_addr()
        ev.append(Event(WRITE, addr=a))
        frame.readable.append(a)
        frame.exported.append(a)

    def do_ret() -> None:
        nonlocal injected
        child = stack.pop()
        del child.readable[child.base:]
        ev.append(Event(RET))
        parent = stack[-1]
        if child.kind == "spawn":
            parent.pending_syncs.append(child.exported)
        else:
            closed_handles.append(child.handle)
            handle_exports[child.handle] = child.exported
        if inject_race and not injected and child.exported:
            # The child is not joined yet, so one read of something it wrote
            # is exactly one racing pair.
            ev.append(Event(READ, addr=child.exported[0]))
            injected = True

    def do_sync(frame: _GenFrame) -> None:
        exported = frame.pending_syncs.pop()
        ev.append(Event(SYNC))
        frame.readable.extend(exported)
        frame.exported.extend(exported)

    while len(ev) < n_events:
        frame = stack[-1]
        u = rng.random()
        if u < p_spawn and len(stack) <= max_depth:
            ev.append(Event(SPAWN, fn=next_id))
            next_id += 1
            stack.append(_GenFrame("spawn", None, frame.readable))
        elif u < p_spawn + p_create and len(stack) <= max_depth:
            h = next_id
            next_id += 1
            ev.append(Event(CREATE, fn=h, handle=h))
            stack.append(_GenFrame("create", h, frame.readable))
        elif u < p_spawn + p_create + p_get and closed_handles:
            h = rng.choice(closed_handles)
            ev.append(Event(GET, handle=h))
            frame.readable.extend(handle_exports[h])
            frame.exported.extend(handle_exports[h])
        elif u < p_spawn + p_create + p_get + p_access:
            if rng.random() < 0.5 and frame.readable:
                ev.append(Event(READ, addr=rng.choice(frame.readable)))
            else:
                do_write(frame)
        else:
            if frame.pending_syncs:
                do_sync(frame)
            elif len(stack) > 1:
                do_ret()
            else:
                do_write(frame)

    while True:
        frame = stack[-1]
        if frame.pending_syncs:
            do_sync(frame)
        elif len(stack) > 1:
            do_ret()
        else:
            break

    if inject_race and not injected:
        # No opportunity arose organically; append one deliberately.
        h = next_id
        ev.append(Event(CREATE, fn=h, handle=h))
        a = fresh_addr()
        ev.append(Event(WRITE, addr=a))
        ev.append(Event(RET))
        ev.append(Event(READ, addr=a))

    return EventSequence(ev)
