"""A catalogue of reachability faults, each of which ``engine.verify`` must catch.

Each mutant is the detector's own source with one edit, compiled in place of
the method it edits for one test. ``verify`` then runs over a fixed corpus
until a trace fails, and the test names how it fails: a divergence from the
brute-force dag, or an error that the ``verify`` command reports with exit 3.
A mutant whose edit no longer matches the source fails its test, so the
catalogue follows the code. The shadow's faults are not here yet: they need
a check of the exact report list, which ``verify`` does not make.
"""

from __future__ import annotations

import __future__
import inspect
import sys
import textwrap

import pytest

from futurerd import engine, gen_lcs_general, gen_lcs_structured, gen_random, trace
from futurerd.dsu import DisjointSets
from futurerd.errors import InvariantError, UsageError
from futurerd.multibags import MultiBags
from futurerd.multibags_plus import MultiBagsPlus

DIVERGENCE = "divergence"

# (id, class, method, source text, its replacement, how verify fails on some trace)
MUTANTS = [
    ("skip-close-window", MultiBagsPlus, "on_sync",
     "self.r.close_window(rf, child.r_floor)", "pass", DIVERGENCE),
    ("r-floor-minus-one", MultiBagsPlus, "on_sync",
     "self.r.close_window(rf, child.r_floor)", "self.r.close_window(rf, child.r_floor - 1)",
     DIVERGENCE),
    # Each swapped union destroys the set the hook goes on to use, and the
    # forest refuses it before any answer can be compared.
    ("union-into-swapped", DisjointSets, "union_into",
     "def union_into(self, a: int, b: int)", "def union_into(self, b: int, a: int)",
     UsageError.__name__),
    ("return-without-relabel", MultiBags, "on_return",
     "self.forest.relabel(child, LABEL_P)", "pass", DIVERGENCE),
    ("wake-without-right-source", MultiBagsPlus, "_wake",
     "starts.add(child.sink + 1)", "pass", DIVERGENCE),
    ("past-p-bag-false", MultiBagsPlus, "_past_p_bag",
     "if self._dormant:", "if True:", DIVERGENCE),
    ("continuation-from-sink", MultiBagsPlus, "on_return",
     "self._start_unattached(child.fork)", "self._start_unattached(child.sink)", DIVERGENCE),
]


def _plant(monkeypatch, cls, name, old, new) -> None:
    """Compile ``cls.name`` with ``old`` replaced by ``new`` and patch it in."""
    source = textwrap.dedent(inspect.getsource(cls.__dict__[name]))
    assert source.count(old) == 1, f"{cls.__name__}.{name} no longer holds {old!r}"
    namespace = dict(vars(sys.modules[cls.__module__]))
    code = compile(source.replace(old, new), f"<mutant {cls.__name__}.{name}>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    monkeypatch.setattr(cls, name, namespace[name])


@pytest.fixture(scope="module")
def corpus() -> list[tuple[str, trace.EventSequence, str]]:
    """Small traces of every shape, each with the algorithms its mode admits."""
    entries = [(f"random-{seed}", gen_random(n_events=200, seed=seed), "plus")
               for seed in range(40)]
    for n in range(2, 6):
        entries.append((f"lcs-general-{n}", gen_lcs_general(n, seed=n), "plus"))
        structured = gen_lcs_structured(n, seed=n)
        entries += [(f"lcs-structured-{n}", structured, algo) for algo in ("multibags", "plus")]
    for seed in range(10):
        fj = gen_random(n_events=200, p_spawn=0.24, p_create=0.0, p_get=0.0, seed=seed)
        entries += [(f"fork-join-{seed}", fj, algo) for algo in ("multibags", "plus")]
    return entries


def _outcome(seq, algo) -> str:
    try:
        report = engine.verify(seq, algo)
    except (InvariantError, UsageError) as exc:  # the command's exit 3
        return type(exc).__name__
    if report.divergence is not None:
        return DIVERGENCE
    return "ok" if report.ok else "broken race contract"


def _failing(corpus, failure):
    """The first entry of ``corpus`` on which ``verify`` fails as ``failure``
    says, and the other failures before it."""
    others = []
    for entry in corpus:
        outcome = _outcome(*entry[1:])
        if outcome == failure:
            return entry, others
        if outcome != "ok":
            others.append((entry[0], outcome))
    return None, others


def test_the_corpus_verifies_clean(corpus):
    assert [_outcome(seq, algo) for _, seq, algo in corpus] == ["ok"] * len(corpus)


@pytest.mark.parametrize("mutant, cls, method, old, new, failure", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_verify_catches_the_mutant(mutant, cls, method, old, new, failure, corpus,
                                   monkeypatch):
    _plant(monkeypatch, cls, method, old, new)
    entry, others = _failing(corpus, failure)
    assert entry is not None, f"{mutant}: no {failure} on the corpus, only {others}"


def test_closing_a_window_from_r_floor_plus_one_changes_no_answer(corpus, monkeypatch):
    """An equivalent mutant: it leaves node ``L`` = ``r_floor`` out of its window.

    ``L`` is the first node made in the window. Until then every set of the
    window is unattached, with the ``att_pred`` of the fork's set, whose node
    ``P`` is then ``L``'s one predecessor. The fork's node ``F`` is ``P``, if
    its set was attached at the spawn, or is promoted at the sync behind
    ``P`` too. So ``L``'s row lacks at most ``F``'s bit, and only
    ``reach(F, L)``, or a row copied from ``L``'s, could change. Neither is
    read after the sync. A query's target is the current set's ``att_pred``:
    from the sync on, the current set holds only later strands, and each set
    made later copies its ``att_pred`` from such a set. Each later edge
    leaves such a set, or a future's sink, which is never ``L``, since it is
    made after its creator's node. Every other node of the window still owes
    ``F``'s bit.
    """
    def mode(algo):
        return trace.MODE_STRUCTURED if algo == "multibags" else trace.MODE_GENERAL

    expected = [engine.detect(seq, algo, mode(algo)).races for _, seq, algo in corpus]
    _plant(monkeypatch, MultiBagsPlus, "on_sync", "self.r.close_window(rf, child.r_floor)",
           "self.r.close_window(rf, child.r_floor + 1)")
    for (name, seq, algo), races in zip(corpus, expected):
        assert _outcome(seq, algo) == "ok", name
        got = engine.detect(seq, algo, mode(algo)).races
        assert [r.key() for r in got] == [r.key() for r in races], name
