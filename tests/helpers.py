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


def oracle_answers(seq):
    """Ground-truth {strand: frozenset of strands that precede it}."""
    dag = oracle.build(seq)
    return {s: frozenset(u for u in range(s) if dag.reaches(u, s)) for s in range(dag.n)}


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
