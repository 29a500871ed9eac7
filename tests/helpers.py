"""Shared test helpers: compact event constructors and replay utilities."""

from __future__ import annotations

import random

from futurerd import oracle
from futurerd.trace import CREATE, GET, READ, RET, SPAWN, SYNC, WRITE, Event, EventSequence


def sp(f):
    return Event(SPAWN, fn=f)


def cr(f, h):
    return Event(CREATE, fn=f, handle=h)


def sy():
    return Event(SYNC)


def gt(h):
    return Event(GET, handle=h)


def rt():
    return Event(RET)


def rd(a):
    return Event(READ, addr=a)


def wr(a):
    return Event(WRITE, addr=a)


def seq_of(*events) -> EventSequence:
    return EventSequence(list(events))


def fold_words(seq, pool, seed):
    """Map each distinct address of ``seq`` onto one of ``pool`` aligned words.

    The map is seeded, so each word is written many times, often by
    parallel strands.
    """
    rng = random.Random(seed)
    word_of = {a: 4 * rng.randrange(pool)
               for a in sorted({ev.addr for ev in seq.events if ev.addr is not None})}
    return EventSequence([ev if ev.addr is None else ev._replace(addr=word_of[ev.addr])
                          for ev in seq.events])


def replay_collect(seq, reach):
    """Replay and collect {strand: frozenset of preceding strands per detector}."""
    from futurerd.engine import replay

    answers = {}

    def after(s):
        answers[s] = frozenset(u for u in range(s) if reach.precedes(u))

    replay(seq, reach, after_strand=after)
    return answers


def descendants(edges, starts):
    """Nodes an edge list reaches from ``starts`` by a nonempty path."""
    out = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
    seen, todo = set(), list(starts)
    while todo:
        for v in out.get(todo.pop(), ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def oracle_answers(seq):
    """Ground-truth {strand: frozenset of strands that precede it}."""
    dag = oracle.build(seq)
    return {s: frozenset(u for u in range(s) if dag.reaches(u, s)) for s in range(dag.n)}


def strands_of(seq):
    """Read off ``seq``: the kind of frame each strand runs in ("root", SPAWN
    or CREATE), by strand id, and the first strand of each future, by handle."""
    kinds, frames, first = ["root"], ["root"], {}
    for k, _, h, _ in seq:
        if k == SPAWN or k == CREATE:
            frames.append(k)
            if k == CREATE:
                first[h] = len(kinds)
        elif k == RET:
            frames.pop()
        elif k != SYNC and k != GET:
            continue
        kinds.append(frames[-1])
    return kinds, first


def getters_of(dag, h):
    """The strands that get future ``h``, in serial order: the get edges from its sink."""
    return [v for v, kind in dag.out[dag.sink_of[h]] if kind == oracle.GET_EDGE]


def sp_reaches(dag):
    """Reachability over SP edges only (continue/spawn/join), as a bitset list."""
    desc = [0] * dag.n
    for x in range(dag.n - 1, -1, -1):
        m = 0
        for w, kind in dag.out[x]:
            if kind in (oracle.CONTINUE_EDGE, oracle.SPAWN_EDGE, oracle.JOIN_EDGE):
                m |= desc[w] | (1 << w)
        desc[x] = m
    return desc


def desugar_spawns(seq) -> EventSequence:
    """Rewrite spawn/sync into create/get on fresh implicit handles (LIFO)."""
    next_handle = max(
        (ev.handle for ev in seq.events if ev.handle is not None), default=0
    ) + 1
    out = []
    stacks = [[]]  # per frame: implicit handles of outstanding spawns
    for ev in seq.events:
        if ev.kind == SPAWN:
            h = next_handle
            next_handle += 1
            stacks[-1].append(h)
            out.append(Event(CREATE, fn=ev.fn, handle=h))
            stacks.append([])
        elif ev.kind == CREATE:
            out.append(ev)
            stacks.append([])
        elif ev.kind == RET:
            stacks.pop()
            out.append(ev)
        elif ev.kind == SYNC:
            out.append(Event(GET, handle=stacks[-1].pop()))
        else:
            out.append(ev)
    return EventSequence(out)


def deep_fork_join_then(body, levels, seed, body_in_child):
    """Run the events of ``body`` inside ``levels`` open spawn windows.

    Each level spawns a child. The path then either descends into the child,
    a new frame, or lets the child return and goes on in the continuation,
    whose window stays open until its sync after ``body``. The innermost
    level descends when ``body_in_child``. Accesses to a small address pool,
    which race between the open sides, and closed spawn/sync pairs are
    placed between the levels. ``body`` must be balanced, as a whole
    ``gen_random`` trace is, and may use function ids below 10**6.
    """
    rng = random.Random(seed)
    events = []
    fn = iter(range(10**6, 2 * 10**6))

    def filler(depth=0):
        for _ in range(rng.randrange(4)):
            u = rng.random()
            if u < 0.35:
                events.append(wr(4 * rng.randrange(16)))
            elif u < 0.7:
                events.append(rd(4 * rng.randrange(16)))
            elif depth < 2:  # a closed window, collapsed before the body runs
                events.append(sp(next(fn)))
                filler(depth + 1)
                events.append(rt())
                filler(depth + 1)
                events.append(sy())

    closers = []
    for level in range(levels):
        filler()
        events.append(sp(next(fn)))
        descend = body_in_child if level == levels - 1 else rng.random() < 0.5
        if not descend:
            filler()
            events.append(rt())
        closers.append(descend)
    filler()
    events.extend(body)
    for descend in reversed(closers):
        filler()
        if descend:
            events.append(rt())
            filler()
        events.append(sy())
    return EventSequence(events)
