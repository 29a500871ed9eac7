import random
import sys
import tracemalloc

from futurerd import oracle
from futurerd.shadow import _PAGE_MIN, _PAGE_WORDS, ShadowTable
from helpers import cr, gt, rt, seq_of, sp, sy, wr

ALWAYS = lambda u: True
NEVER = lambda u: False


def every_cell(t):
    """word -> cell, for every word the table holds, in its dict or in a page."""
    cells = dict(t._cells)
    for block, page in t._pages.items():
        cells.update((block * _PAGE_WORDS + i, c) for i, c in enumerate(page) if c is not None)
    return cells


def traced_bytes(fill):
    """(bytes that ``fill()`` leaves allocated, its result), by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = fill()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


def test_read_of_untouched_word():
    t = ShadowTable()
    assert t.on_read(4096, 3, NEVER) is None
    assert t._cells == {4096 >> 2: [None, 3]}  # no writer, one reader


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
    assert repr(rep) == "RaceReport(addr=256, kind='write-read', prior=1, current=2)"


def test_write_after_own_read_is_clean_and_clears():
    t = ShadowTable()
    t.on_read(128, 5, NEVER)
    assert t.on_write(128, 5, NEVER) == []
    assert t._cells == {128 >> 2: 5}  # the writer alone: no reader list


def test_parallel_sibling_writes_race():
    seq = seq_of(sp(1), wr(512), rt(), sp(2), wr(512), rt(), sy(), sy())
    dag = oracle.build(seq)
    t = ShadowTable()
    reports = []
    for strand in (1, 3):
        reports += t.on_write(512, strand, lambda u, s=strand: dag.reaches(u, s))
    assert [r.key() for r in reports] == [(512, "write-write", 1, 3)]
    assert oracle.naive_races(dag) == {(512, "write-write", 1, 3)}


def test_races_keeps_the_first_report_of_each_key_in_serial_order():
    t = ShadowTable()
    t.on_write(64, 1, NEVER)
    first = t.on_read(64, 2, NEVER)  # write-read (1, 2)
    t.on_write(128, 3, NEVER)
    again = t.on_read(64, 2, NEVER)  # the same pair races again: a second report
    assert first is not again and first.key() == again.key() == (64, "write-read", 1, 2)
    writes = t.on_write(128, 4, NEVER)  # write-write (3, 4)
    assert list(t.races) == [(64, "write-read", 1, 2), (128, "write-write", 3, 4)]
    assert list(t.races.values()) == [first, *writes]


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
    assert t._cells[64 >> 2] == 9


def test_consecutive_duplicate_readers_suppressed():
    t = ShadowTable()
    for _ in range(5):
        t.on_read(32, 7, NEVER)
    t.on_read(32, 8, NEVER)
    t.on_read(32, 7, NEVER)
    assert t._cells[32 >> 2] == [None, 7, 8, 7]


def test_bytes_of_one_word_share_a_cell():
    t = ShadowTable()
    t.on_write(4096, 1, NEVER)
    rep = t.on_read(4096 + 3, 2, NEVER)
    assert rep is not None and rep.addr == 4096
    assert t._cells == {4099 >> 2: [1, 2]}  # writer 1, then reader 2
    assert t.cells_touched == 1
    assert t.on_read(4100, 2, NEVER) is None and t.cells_touched == 2


def test_far_apart_addresses_get_separate_cells():
    t = ShadowTable()
    t.on_write(1 << 12, 1, NEVER)
    t.on_write(1 << 40, 2, NEVER)
    assert t._cells == {(1 << 12) >> 2: 1, (1 << 40) >> 2: 2}
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


def test_cells_touched_counts_words_read_or_written():
    t = ShadowTable()
    t.on_read(0, 1, NEVER)  # read only
    t.on_write(4, 1, NEVER)  # written only
    t.on_read(8, 1, NEVER)
    t.on_write(8, 2, NEVER)  # read, then written: its reader list is gone
    t.on_write(12, 1, NEVER)
    t.on_read(12, 2, NEVER)  # written, then read
    assert t.cells_touched == 4


def test_a_word_written_and_not_read_since_keeps_no_reader_list():
    # Each word is read once and then written, and not read again. What the
    # table keeps for them must cost less than an empty list per word on top
    # of one plain dict from word to strand.
    n = 2000
    addrs = [4 * i for i in range(1 << 16, (1 << 16) + n)]

    def fill_table():
        t = ShadowTable()
        for a in addrs:
            t.on_read(a, 1, ALWAYS)
            t.on_write(a, 2, ALWAYS)
        return t

    plain, _ = traced_bytes(lambda: {a >> 2: 2 for a in addrs})
    table, t = traced_bytes(fill_table)
    assert t.cells_touched == n and t.queries == n
    cells = every_cell(t)  # dense words: most of them are in pages
    assert sorted(cells) == [a >> 2 for a in addrs] and t.pages > 0
    assert all(type(cell) is int for cell in cells.values())  # the bare writer strand
    assert table - plain < n * sys.getsizeof([]) // 2, (table, plain)


def test_reader_list_after_write_stays_small():
    t = ShadowTable()
    for s in range(6):
        t.on_read(16, s, ALWAYS)
    t.on_write(16, 9, ALWAYS)
    assert t._cells[16 >> 2] == 9
    t.on_read(16, 10, ALWAYS)
    assert t._cells[16 >> 2] == [9, 10]


def test_query_count_bounded_by_two_m_plus_writes():
    t = ShadowTable()
    calls = 0

    def counting(u):
        nonlocal calls
        calls += 1
        return True

    accesses = 0
    writes = 0
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


class TwoDictShadow:
    """The shadow's rule restated over two dicts: the last writer by word,
    and the readers since that write by word."""

    def __init__(self):
        self.writer, self.readers, self.queries = {}, {}, 0

    def on_read(self, addr, strand, precedes):
        word, report = addr >> 2, None
        w = self.writer.get(word)
        if w is not None and w != strand:
            self.queries += 1
            if not precedes(w):
                report = (addr & ~3, "write-read", w, strand)
        readers = self.readers.setdefault(word, [])
        if not readers or readers[-1] != strand:
            readers.append(strand)
        return report

    def on_write(self, addr, strand, precedes):
        word, reports = addr >> 2, []
        for kind, prior in ([("read-write", r) for r in self.readers.pop(word, [])]
                            + [("write-write", self.writer.get(word))]):
            if prior is not None and prior != strand:
                self.queries += 1
                if not precedes(prior):
                    reports.append((addr & ~3, kind, prior, strand))
        self.writer[word] = strand
        return reports


def test_shadow_matches_the_two_dict_rule_on_random_accesses():
    for seed in range(200):
        rng = random.Random(seed)
        words = rng.randrange(1, 6)
        strands = rng.randrange(1, 6)
        answers = [rng.random() < 0.5 for _ in range(400)]
        tables = (ShadowTable(), TwoDictShadow())
        got = ([], [])
        asked = [0, 0]  # each table takes the same answers in the order it asks
        for _ in range(120):
            addr = 4 * rng.randrange(words) + rng.randrange(4)
            strand = rng.randrange(strands)
            write = rng.random() < 0.4
            for i, t in enumerate(tables):
                def precedes(u, i=i):
                    asked[i] += 1
                    return answers[asked[i] % len(answers)]
                if write:
                    got[i].extend(t.on_write(addr, strand, precedes))
                else:
                    got[i].append(t.on_read(addr, strand, precedes))
        assert [r and r.key() for r in got[0]] == got[1], seed
        # The race list: the first occurrence of each report, in serial order.
        assert list(tables[0].races) == list(dict.fromkeys(filter(None, got[1]))), seed
        assert tables[0].queries == tables[1].queries == asked[0] == asked[1], seed
        assert tables[0].cells_touched == len(tables[1].writer.keys() | tables[1].readers.keys())


def test_shadow_matches_the_two_dict_rule_across_pages():
    # The model test above draws at most 5 words, so no block gets a page.
    # Here four dense blocks and 200 scattered words: 60 words of each block
    # are read first, so they hold reader lists when their block is paged.
    for seed in range(4):
        rng = random.Random(seed)
        base = rng.randrange(1, 1 << 20) * _PAGE_WORDS
        blocks = [base + b * _PAGE_WORDS for b in (0, 1, 5, 9)]
        scattered = [rng.randrange(1 << 34) for _ in range(200)]
        listed = [w + i for w in blocks for i in rng.sample(range(_PAGE_WORDS), 60)]
        answers = [rng.random() < 0.6 for _ in range(997)]
        tables = (ShadowTable(), TwoDictShadow())
        got = ([], [])
        asked = [0, 0]  # each table takes the same answers in the order it asks

        def access(word, strand, write):
            addr = 4 * word + rng.randrange(4)  # any byte of the word
            for i, t in enumerate(tables):
                def precedes(u, i=i):
                    asked[i] += 1
                    return answers[asked[i] % len(answers)]
                if write:
                    got[i].extend(t.on_write(addr, strand, precedes))
                else:
                    got[i].append(t.on_read(addr, strand, precedes))

        for word in rng.sample(listed + scattered, len(listed) + len(scattered)):
            access(word, rng.randrange(6), rng.random() < 0.2)
        assert tables[0].pages == 0
        assert sum(type(c) is list for c in every_cell(tables[0]).values()) > 100
        for w in blocks[:2]:  # fill two blocks in address order: each gets a page
            for word in range(w, w + _PAGE_WORDS):
                access(word, rng.randrange(6), rng.random() < 0.5)
        assert tables[0].pages == 2
        words = blocks[:2] * 4 + listed + scattered
        for _ in range(3000):
            w = rng.choice(words)
            word = w + rng.randrange(_PAGE_WORDS) if w in blocks else w
            access(word, rng.randrange(6), rng.random() < 0.4)
        assert [r and r.key() for r in got[0]] == got[1], seed
        assert list(tables[0].races) == list(dict.fromkeys(filter(None, got[1]))), seed
        assert tables[0].queries == tables[1].queries == asked[0] == asked[1], seed
        model = tables[1].writer.keys() | tables[1].readers.keys()
        assert tables[0].cells_touched == len(model) == len(every_cell(tables[0])), seed
        assert every_cell(tables[0]).keys() == model, seed


def test_a_page_costs_no_more_than_the_dict_entries_of_page_min_words():
    # A dict entry and its key int, averaged over one doubling of the dict
    # (a dict holds from a third to two thirds of its slots as it grows).
    per_word = []
    for n in range(6_000, 12_000, 500):
        used, _ = traced_bytes(lambda: {w: 1 for w in range(1 << 20, (1 << 20) + n)})
        per_word.append(used / n)
    page, _ = traced_bytes(lambda: [None] * _PAGE_WORDS)
    assert page <= _PAGE_MIN * sum(per_word) / len(per_word), (page, per_word)


def test_a_dense_run_of_words_costs_about_8_bytes_a_word():
    n = 64 * _PAGE_WORDS
    used, t = traced_bytes(lambda: _written(range(1 << 20, (1 << 20) + n)))
    assert t.cells_touched == n and t.pages == 64
    assert used < 8.5 * n, used  # a reference to the shared strand int per word, in 64 pages
    # Reader lists cost what they cost in the dict: a list per read word.
    lists, t = traced_bytes(lambda: _written(range(1 << 20, (1 << 20) + n), read=True))
    assert t.pages == 64 and lists < used + n * (sys.getsizeof([1, 2]) + 8), (lists, used)


def test_scattered_words_make_no_page():
    rng = random.Random(5)
    # 200 words a 4 MiB region apart, and 32-word clusters in 600 regions
    words = ([r << 20 for r in rng.sample(range(1 << 20), 200)]
             + [(r << 20) + i for r in rng.sample(range(1 << 20), 600) for i in range(32)])
    rng.shuffle(words)
    used, t = traced_bytes(lambda: _written(words))
    plain, _ = traced_bytes(lambda: {4 * w >> 2: 1 for w in words})  # a fresh key int a word
    assert t.pages == 0 and t.cells_touched == len(words)
    assert used < plain * 1.05, (used, plain)


def _written(words, read=False):
    """A table in which strand 1 wrote each word, and then strand 2 read it if ``read``."""
    t = ShadowTable()
    for w in words:
        t.on_write(4 * w, 1, ALWAYS)
        if read:
            t.on_read(4 * w, 2, ALWAYS)
    return t
