"""Access-history shadow memory.

Per 4-byte word we keep the last writer strand and the reader strands since
that write, in one dict keyed by word (``addr >> 2``). While no strand has
read a word since its last write, its value is the bare writer strand, an
``int``; once one has, it is a list ``[last writer or None, readers...]``.
A write stores the bare strand again, so a word written and not read since
holds no list. Entries are made on first touch, so memory is proportional to
the distinct words accessed, however sparse their addresses. Race checks go
through a caller-supplied ``precedes`` callback so the table stays
independent of the reachability algorithm in use; ``queries`` counts the
calls it makes.
"""

from __future__ import annotations

WRITE_READ = "write-read"
READ_WRITE = "read-write"
WRITE_WRITE = "write-write"


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
    def __init__(self) -> None:
        # word -> last writer strand, or [last writer or None, readers since that write...]
        self._cells: dict[int, int | list] = {}
        self.queries = 0  # precedes calls made so far

    @property
    def cells_touched(self) -> int:
        """Number of distinct words accessed so far."""
        return len(self._cells)

    def on_read(self, addr: int, strand: int, precedes) -> RaceReport | None:
        """Record a read; report a race against an unordered last writer."""
        word = addr >> 2
        cells = self._cells
        cell = cells.get(word)
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
                return RaceReport(addr & ~3, WRITE_READ, w, strand)
        return None

    def on_write(self, addr: int, strand: int, precedes) -> list[RaceReport]:
        """Record a write; report races against unordered readers and writer.

        The word's reader list is dropped and its last writer replaced whether
        or not races were found.
        """
        word = addr >> 2
        cells = self._cells
        w = cells.get(word)
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
                        reports.append(RaceReport(addr & ~3, READ_WRITE, r, strand))
        if w is not None and w != strand:
            queries += 1
            if not precedes(w):
                reports.append(RaceReport(addr & ~3, WRITE_WRITE, w, strand))
        self.queries += queries
        return reports
