"""Access-history shadow memory.

Per 4-byte word we keep the last writer strand and the list of reader strands
since that write. Cells live in one dict keyed by word (``addr >> 2``) and
are created on first touch, so memory is proportional to the distinct words
accessed, however sparse their addresses. Race checks go through a
caller-supplied ``precedes`` callback so the table stays independent of the
reachability algorithm in use; ``queries`` counts the calls it makes.
"""

from __future__ import annotations

from dataclasses import dataclass

WRITE_READ = "write-read"
READ_WRITE = "read-write"
WRITE_WRITE = "write-write"


@dataclass(frozen=True)
class RaceReport:
    addr: int  # byte address of the 4-byte word
    kind: str
    prior: int
    current: int

    def key(self) -> tuple[int, str, int, int]:
        return (self.addr, self.kind, self.prior, self.current)


class _Cell:
    __slots__ = ("last_writer", "readers")

    def __init__(self):
        self.last_writer = None
        self.readers = []


class ShadowTable:
    def __init__(self) -> None:
        self._cells: dict[int, _Cell] = {}
        self.queries = 0  # precedes calls made so far

    @property
    def cells_touched(self) -> int:
        """Number of distinct words accessed so far."""
        return len(self._cells)

    def on_read(self, addr: int, strand: int, precedes) -> RaceReport | None:
        """Record a read; report a race against an unordered last writer."""
        cell = self._cells.get(addr >> 2)
        if cell is None:
            cell = self._cells[addr >> 2] = _Cell()
        report = None
        w = cell.last_writer
        if w is not None and w != strand:
            self.queries += 1
            if not precedes(w):
                report = RaceReport(addr & ~3, WRITE_READ, w, strand)
        readers = cell.readers
        if not readers or readers[-1] != strand:
            readers.append(strand)
        return report

    def on_write(self, addr: int, strand: int, precedes) -> list[RaceReport]:
        """Record a write; report races against unordered readers and writer.

        The reader list is emptied and the last writer replaced whether or
        not races were found.
        """
        cell = self._cells.get(addr >> 2)
        if cell is None:
            cell = self._cells[addr >> 2] = _Cell()
        reports = []
        queries = 0
        for r in cell.readers:
            if r != strand:
                queries += 1
                if not precedes(r):
                    reports.append(RaceReport(addr & ~3, READ_WRITE, r, strand))
        w = cell.last_writer
        if w is not None and w != strand:
            queries += 1
            if not precedes(w):
                reports.append(RaceReport(addr & ~3, WRITE_WRITE, w, strand))
        self.queries += queries
        cell.readers = []
        cell.last_writer = strand
        return reports
