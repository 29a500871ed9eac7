import tracemalloc

from futurerd import oracle
from futurerd.shadow import ShadowTable
from helpers import cr, gt, rt, seq_of, sp, sy, wr

ALWAYS = lambda u: True
NEVER = lambda u: False


def test_read_of_untouched_word():
    t = ShadowTable()
    assert t.on_read(4096, 3, NEVER) is None
    assert t._cells[4096 >> 2].readers == [3]


def test_ordered_write_then_read_is_clean():
    t = ShadowTable()
    assert t.on_write(4096, 1, ALWAYS) == []
    assert t.on_read(4096, 2, lambda u: u == 1) is None


def test_parallel_write_then_read_races():
    # Ground truth from a real dag: future body writes, continuation reads
    # before the join.
    seq = seq_of(cr(1, 1), wr(256), rt(), gt(1))
    dag = oracle.build(seq)
    t = ShadowTable()
    assert t.on_write(256, 1, lambda u: dag.reaches(u, 1)) == []
    rep = t.on_read(256, 2, lambda u: dag.reaches(u, 2))
    assert rep is not None and rep.key() == (256, "write-read", 1, 2)


def test_write_after_own_read_is_clean_and_clears():
    t = ShadowTable()
    t.on_read(128, 5, NEVER)
    assert t.on_write(128, 5, NEVER) == []
    assert t._cells[128 >> 2].readers == []
    assert t._cells[128 >> 2].last_writer == 5


def test_parallel_sibling_writes_race():
    seq = seq_of(sp(1), wr(512), rt(), sp(2), wr(512), rt(), sy(), sy())
    dag = oracle.build(seq)
    t = ShadowTable()
    reports = []
    for strand in (1, 3):
        reports += t.on_write(512, strand, lambda u, s=strand: dag.reaches(u, s))
    assert [r.key() for r in reports] == [(512, "write-write", 1, 3)]
    assert oracle.naive_races(dag) == {(512, "write-write", 1, 3)}


def test_three_parallel_readers_then_write():
    t = ShadowTable()
    for s in (1, 2, 3):
        t.on_read(64, s, NEVER)
    reports = t.on_write(64, 9, NEVER)
    assert sorted(r.key() for r in reports) == [
        (64, "read-write", 1, 9),
        (64, "read-write", 2, 9),
        (64, "read-write", 3, 9),
    ]
    assert t._cells[64 >> 2].readers == []


def test_consecutive_duplicate_readers_suppressed():
    t = ShadowTable()
    for _ in range(5):
        t.on_read(32, 7, NEVER)
    t.on_read(32, 8, NEVER)
    t.on_read(32, 7, NEVER)
    assert t._cells[32 >> 2].readers == [7, 8, 7]


def test_bytes_of_one_word_share_a_cell():
    t = ShadowTable()
    t.on_write(4096, 1, NEVER)
    rep = t.on_read(4096 + 3, 2, NEVER)
    assert rep is not None and rep.addr == 4096
    assert t._cells[4096 >> 2] is t._cells[4099 >> 2] and t.cells_touched == 1
    assert t.on_read(4100, 2, NEVER) is None and t.cells_touched == 2


def test_far_apart_addresses_get_separate_cells():
    t = ShadowTable()
    t.on_write(1 << 12, 1, NEVER)
    t.on_write(1 << 40, 2, NEVER)
    assert t._cells[(1 << 12) >> 2] is not t._cells[(1 << 40) >> 2]
    assert t._cells[(1 << 12) >> 2].last_writer == 1
    assert t._cells[(1 << 40) >> 2].last_writer == 2
    assert t.cells_touched == 2


def test_sparse_writes_cost_memory_per_word_not_per_region():
    # One write in each of 40 separate 4 MiB regions: a table that allocates
    # per region rather than per word peaks in the hundreds of megabytes.
    tracemalloc.start()
    try:
        t = ShadowTable()
        for i in range(40):
            t.on_write(i << 22, i, NEVER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.cells_touched == 40
    assert peak < 1 << 20


def test_reader_list_after_write_stays_small():
    t = ShadowTable()
    for s in range(6):
        t.on_read(16, s, ALWAYS)
    t.on_write(16, 9, ALWAYS)
    assert len(t._cells[16 >> 2].readers) == 0
    t.on_read(16, 10, ALWAYS)
    assert len(t._cells[16 >> 2].readers) == 1


def test_query_count_bounded_by_two_m_plus_writes():
    t = ShadowTable()
    calls = 0

    def counting(u):
        nonlocal calls
        calls += 1
        return True

    accesses = 0
    writes = 0
    import random

    rng = random.Random(0)
    for i in range(2000):
        addr = 4 * rng.randrange(8)
        if rng.random() < 0.4:
            t.on_write(addr, i, counting)
            writes += 1
        else:
            t.on_read(addr, i, counting)
        accesses += 1
    assert calls <= 2 * accesses + writes


def test_queries_count_each_precedes_call():
    calls = []

    def precedes(u):
        calls.append(u)
        return u % 2 == 0

    t = ShadowTable()
    t.on_read(16, 1, precedes)  # no writer yet: no query
    t.on_write(16, 1, precedes)  # own read: no query
    t.on_read(16, 1, precedes)  # own write: no query
    assert t.queries == 0 and calls == []
    for s in (2, 3, 4):
        t.on_read(16, s, precedes)  # one query each, against writer 1
    assert [r.key() for r in t.on_write(16, 5, precedes)] == [
        (16, "read-write", 1, 5), (16, "read-write", 3, 5), (16, "write-write", 1, 5)]
    assert calls == [1, 1, 1, 1, 2, 3, 4, 1]
    assert t.queries == len(calls) == 8
