"""Access-history shadow memory.

Per 4-byte word we keep the last writer strand and the list of reader strands
since that write, in two dicts keyed by word (``addr >> 2``): the last writer
by word, and the readers by word. A write drops the word's reader list, so a
word written and not read since holds only its writer entry. Entries are
made on first touch, so memory is proportional to the distinct words
accessed, however sparse their addresses. Race checks go through a
caller-supplied ``precedes`` callback so the table stays independent of the
reachability algorithm in use; ``queries`` counts the calls it makes.
"""

from __future__ import annotations

WRITE_READ = "write-read"
READ_WRITE = "read-write"
WRITE_WRITE = "write-write"


class RaceReport:
    """One race on a word: ``kind`` between strand ``prior`` and strand ``current``.

    A plain class with a ``__dict__``, so ``vars(report)`` is its four fields
    in order. Equality, hashing and ``repr`` follow ``key()``.
    """

    def __init__(self, addr: int, kind: str, prior: int, current: int) -> None:
        self.addr = addr  # byte address of the 4-byte word
        self.kind = kind
        self.prior = prior
        self.current = current

    def key(self) -> tuple[int, str, int, int]:
        return (self.addr, self.kind, self.prior, self.current)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return "RaceReport(addr={!r}, kind={!r}, prior={!r}, current={!r})".format(*self.key())


class ShadowTable:
    def __init__(self) -> None:
        self._writer: dict[int, int] = {}  # word -> last writer strand
        self._readers: dict[int, list[int]] = {}  # word -> reader strands since that write
        self.queries = 0  # precedes calls made so far

    @property
    def cells_touched(self) -> int:
        """Number of distinct words accessed so far."""
        return len(self._writer.keys() | self._readers.keys())

    def on_read(self, addr: int, strand: int, precedes) -> RaceReport | None:
        """Record a read; report a race against an unordered last writer."""
        word = addr >> 2
        report = None
        w = self._writer.get(word)
        if w is not None and w != strand:
            self.queries += 1
            if not precedes(w):
                report = RaceReport(addr & ~3, WRITE_READ, w, strand)
        readers = self._readers.get(word)
        if readers is None:
            self._readers[word] = [strand]
        elif readers[-1] != strand:
            readers.append(strand)
        return report

    def on_write(self, addr: int, strand: int, precedes) -> list[RaceReport]:
        """Record a write; report races against unordered readers and writer.

        The word's reader list is dropped and its last writer replaced whether
        or not races were found.
        """
        word = addr >> 2
        reports = []
        queries = 0
        for r in self._readers.pop(word, ()):
            if r != strand:
                queries += 1
                if not precedes(r):
                    reports.append(RaceReport(addr & ~3, READ_WRITE, r, strand))
        w = self._writer.get(word)
        if w is not None and w != strand:
            queries += 1
            if not precedes(w):
                reports.append(RaceReport(addr & ~3, WRITE_WRITE, w, strand))
        self.queries += queries
        self._writer[word] = strand
        return reports
