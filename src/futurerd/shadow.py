"""Access-history shadow memory.

Per 4-byte word we keep the last writer strand and the reader strands since
that write, in one cell. While no strand has read a word since its last
write, its cell is the bare writer strand, an ``int``; once one has, it is a
list ``[last writer or None, readers...]``. A write stores the bare strand
again, so a word written and not read since holds no list.

A cell lives in one of two containers. A scattered word has an entry in a
dict keyed by word (``addr >> 2``), made on first touch. A dense block of
``_PAGE_WORDS`` words (4 KiB of address space) has a page instead: a plain
list of its ``_PAGE_WORDS`` cells, ``None`` for a word not yet touched, kept
by ``word >> _PAGE_BITS``. A page refers to the same strand ints and lists a
dict entry would, so a read boxes no new int, where an ``array('q')`` page
would box one on every read.

A dict entry and its key ``int`` cost 60-86 B a word as the dict fills and
grows, 72 B on average (``tracemalloc``, CPython 3.11), and a page 8,248 B;
so a page costs no more than the entries it replaces once its block holds
about 115 words, and ``_PAGE_MIN`` rounds that up to 128. Each time the dict
has doubled, a first touch samples the words added since the last check
and moves each block they point at that holds ``_PAGE_MIN`` words of the
dict, reader lists included, into a new page. So memory stays proportional
to the distinct words accessed, however sparse their addresses, and a
block of fewer than ``_PAGE_MIN`` words never gets a page.

Race checks go through a caller-supplied ``precedes`` callback so the table
stays independent of the reachability algorithm in use; ``queries`` counts
the calls it makes.
"""

from __future__ import annotations

from itertools import islice, pairwise, repeat

WRITE_READ = "write-read"
READ_WRITE = "read-write"
WRITE_WRITE = "write-write"

_PAGE_BITS = 10
_PAGE_WORDS = 1 << _PAGE_BITS  # cells in a page
_PAGE_MASK = _PAGE_WORDS - 1
_PAGE_MIN = 128  # words a block holds before it gets a page
_SAMPLE_STEP = _PAGE_MIN // 4  # new words a check samples one of


class RaceReport:
    """One race on a word: ``kind`` between strand ``prior`` and strand ``current``.

    A plain class with a ``__dict__``, so ``vars(report)`` is its four fields
    in order. Reports compare by identity; ``key()`` is a report's value.
    """

    def __init__(self, addr: int, kind: str, prior: int, current: int) -> None:
        self.addr = addr  # byte address of the 4-byte word
        self.kind = kind
        self.prior = prior
        self.current = current

    def key(self) -> tuple[int, str, int, int]:
        return (self.addr, self.kind, self.prior, self.current)

    def __repr__(self) -> str:
        return "RaceReport(addr={!r}, kind={!r}, prior={!r}, current={!r})".format(*self.key())


class ShadowTable:
    """Access history, and ``races``: the first report of each ``key()`` in serial
    order. ``on_read`` and ``on_write`` return each report they make, repeats included."""

    def __init__(self) -> None:
        # A cell: the last writer strand, or [last writer or None, readers since that write...]
        self._cells: dict[int, int | list] = {}  # word -> cell, for words of blocks with no page
        self._pages: dict[int, list] = {}  # word >> _PAGE_BITS -> its block's cells
        self._checked = 0  # words of _cells, in insertion order, that the last check saw
        self._check_at = _PAGE_MIN  # the size of _cells at which a first touch checks again
        self.queries = 0  # precedes calls made so far
        self.races: dict[tuple, RaceReport] = {}  # key() -> its first report

    @property
    def cells_touched(self) -> int:
        """Number of distinct words accessed so far."""
        return len(self._cells) + sum(_PAGE_WORDS - page.count(None)
                                      for page in self._pages.values())

    @property
    def pages(self) -> int:
        """Number of blocks whose words are kept in a page."""
        return len(self._pages)

    def on_read(self, addr: int, strand: int, precedes) -> RaceReport | None:
        """Record a read; report a race against an unordered last writer."""
        word = addr >> 2
        pages = self._pages
        if pages and (page := pages.get(word >> _PAGE_BITS)) is not None:
            cells, word = page, word & _PAGE_MASK
            cell = page[word]
        else:
            cells = self._cells
            cell = cells.get(word)
            if cell is None and len(cells) >= self._check_at:
                self._page_dense_blocks()
                return self.on_read(addr, strand, precedes)  # the word's block may have a page now
        if cell.__class__ is list:
            w = cell[0]
            if cell[-1] != strand:  # a list always holds a reader, so this is the last one
                cell.append(strand)
        else:
            w = cell  # the bare last writer, or None for an untouched word
            cells[word] = [w, strand]
        if w is not None and w != strand:
            self.queries += 1
            if not precedes(w):
                return self._report(addr & ~3, WRITE_READ, w, strand)
        return None

    def on_write(self, addr: int, strand: int, precedes) -> list[RaceReport]:
        """Record a write; report races against unordered readers and writer.

        The word's reader list is dropped and its last writer replaced whether
        or not races were found.
        """
        word = addr >> 2
        pages = self._pages
        if pages and (page := pages.get(word >> _PAGE_BITS)) is not None:
            cells, word = page, word & _PAGE_MASK
            w = page[word]
        else:
            cells = self._cells
            w = cells.get(word)
            if w is None and len(cells) >= self._check_at:
                self._page_dense_blocks()
                return self.on_write(addr, strand, precedes)  # the word's block may have a page now
        cells[word] = strand
        reports = []
        queries = 0
        if w.__class__ is list:
            readers = iter(w)  # the writer, then the readers, with no copy of the list
            w = next(readers)
            for r in readers:
                if r != strand:
                    queries += 1
                    if not precedes(r):
                        reports.append(self._report(addr & ~3, READ_WRITE, r, strand))
        if w is not None and w != strand:
            queries += 1
            if not precedes(w):
                reports.append(self._report(addr & ~3, WRITE_WRITE, w, strand))
        self.queries += queries
        return reports

    def _page_dense_blocks(self) -> None:
        """Move each dense block that the words added since the last check
        fall in from the dict into a page.

        The check sorts a sample, every ``_SAMPLE_STEP``-th new word. A block
        that two sampled words fall in has its words in the dict counted, and
        gets a page if they are ``_PAGE_MIN`` or more. A block that holds
        ``_PAGE_MIN`` of the new words holds about four sampled ones, while
        scattered words share no block, so they cost a sort of one word in
        ``_SAMPLE_STEP`` and no count, where sorting every new word would
        cost a sort and a list of them all. A dense block the sample misses
        keeps its words in the dict: that costs memory, never an answer.
        """
        cells, pages = self._cells, self._pages
        sample = sorted(islice(cells, self._checked, None, _SAMPLE_STEP))
        last = None
        for a, b in pairwise(sample):
            block = a >> _PAGE_BITS
            if block == last or block != b >> _PAGE_BITS:
                continue
            last = block
            words = range(block << _PAGE_BITS, (block + 1) << _PAGE_BITS)
            if sum(map(cells.__contains__, words)) >= _PAGE_MIN:
                # filled in place, so the page keeps its exact size: appends would leave slack
                pages[block] = page = [None] * _PAGE_WORDS
                page[:] = map(cells.pop, words, repeat(None))
        self._checked = len(cells)
        self._check_at = max(2 * len(cells), _PAGE_MIN)

    def _report(self, *key) -> RaceReport:
        report = RaceReport(*key)
        self.races.setdefault(key, report)  # a repeated key keeps its first report
        return report
