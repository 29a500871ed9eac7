"""Differential property test: ``detect`` against ``verify`` and the two
algorithms against each other, on drawn random traces.

``verify`` checks every reachability answer against the brute-force dag and
the race reports against the shadow's race contract, so ``detect`` agreeing
with ``verify``'s own report list ties ``detect`` to the dag as well. The
walk-gate test checks that ``trace.walk``'s grammar is the only input check
that ``detect`` needs. The deep-nesting test covers traces whose first
create, which ends ``plus``'s dormancy, runs under many open spawn windows.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from futurerd import cli, engine
from futurerd.errors import InputError
from futurerd.generators import gen_random
from futurerd.multibags_plus import MultiBagsPlus
from futurerd.trace import (ACCESS_KINDS, CREATE, GET, MODE_GENERAL, MODE_STRUCTURED, RET,
                            SPAWN, EventSequence, serialize, validate)
from helpers import cr, deep_fork_join_then, desugar_spawns, fold_words, gt, rd, rt, wr


def _first_gets_only(seq) -> EventSequence:
    gotten = set()
    events = []
    for ev in seq.events:
        if ev.kind == GET:
            if ev.handle in gotten:
                continue
            gotten.add(ev.handle)
        events.append(ev)
    return EventSequence(events)


@st.composite
def traces(draw):
    """(trace, shape) drawn from gen_random.

    A structured trace is fork-join only, and may have its spawns rewritten
    as single-touch futures, or is a general draw with each handle's repeat
    ``get``s dropped, kept when MultiBags accepts it: its creates and gets
    need not nest. Folding maps the addresses onto a few words, so words are
    written many times.
    """
    shape = draw(st.sampled_from(["general", "fork-join", "desugared", "single-touch"]))
    p_spawn = draw(st.floats(0.05, 0.3))
    if shape in ("general", "single-touch"):
        p_create = draw(st.floats(0.0, 0.25))
        p_get = draw(st.floats(0.0, 0.3))
    else:
        p_create = p_get = 0.0
    seed = draw(st.integers(0, 10**6))
    seq = gen_random(n_events=draw(st.integers(10, 300)), p_spawn=p_spawn,
                     p_create=p_create, p_get=p_get, seed=seed,
                     inject_race=draw(st.booleans()))
    if shape == "desugared":
        seq = desugar_spawns(seq)
    elif shape == "single-touch":
        seq = _first_gets_only(seq)
        assume(validate(seq, MODE_STRUCTURED).ok)
        try:
            engine.detect(seq, "multibags", "structured")
        except InputError as exc:
            assert "creator of handle" in str(exc)
            assume(False)
    if draw(st.booleans()):
        seq = fold_words(seq, draw(st.integers(1, 6)), seed)
    return seq, shape


def _keys(report):
    keys = [r.key() for r in report.races]
    assert len(keys) == len(set(keys))
    return set(keys)


@settings(max_examples=150, deadline=None)
@given(traces())
def test_detect_matches_verify_and_the_algorithms_agree(drawn):
    seq, shape = drawn
    checked = engine.verify(seq, "plus")
    assert checked.ok, (checked.divergence, checked.unsound_races, checked.missed_words)
    plus = engine.detect(seq, "plus", "general")
    assert _keys(plus) == checked.detector_races
    if shape != "general":
        assert validate(seq, MODE_STRUCTURED).ok
        checked = engine.verify(seq, "multibags")
        assert checked.ok, (checked.divergence, checked.unsound_races, checked.missed_words)
        multibags = engine.detect(seq, "multibags", "structured")
        assert _keys(multibags) == checked.detector_races
        assert [r.key() for r in multibags.races] == [r.key() for r in plus.races]
        assert multibags.stats.queries == plus.stats.queries
    if shape == "fork-join" and not seq.counts.creates:
        # No create (inject_race may append one), so plus never builds d_nsp.
        assert (plus.stats.find_ops, plus.stats.union_ops) == (
            multibags.stats.find_ops, multibags.stats.union_ops)


def _deep_trace(seed, body_in_child):
    """A general trace whose first create runs under 20-27 open spawn windows."""
    h = 10**5
    body = [cr(h, h), wr(4), rt(), rd(4), gt(h)] + gen_random(
        n_events=120, p_spawn=0.15, p_create=0.12, p_get=0.1, seed=seed).events
    return deep_fork_join_then(body, 20 + seed % 8, seed, body_in_child)


@pytest.mark.parametrize("body_in_child", [True, False], ids=["left-child", "continuation"])
def test_first_create_after_deep_fork_join_nesting(body_in_child, monkeypatch, tmp_path):
    woken = []
    wake = MultiBagsPlus._wake

    def spy(mbp):
        windows = mbp._windows
        # in the left child, the innermost window's child has not returned
        woken.append((mbp._cur, len(windows), windows[-1].sink is None))
        wake(mbp)

    monkeypatch.setattr(MultiBagsPlus, "_wake", spy)
    for seed in range(6):
        seq = _deep_trace(seed, body_in_child)
        checked = engine.verify(seq, "plus")
        assert checked.ok, (seed, checked.divergence, checked.unsound_races,
                            checked.missed_words)
        assert checked.detector_races  # the filler accesses race across open sides
        plus = engine.detect(seq, "plus", "general")
        assert _keys(plus) == checked.detector_races
        # the strand current at the first create, and the frames open there
        kinds = [ev.kind for ev in seq.events]
        prefix = kinds[:kinds.index(CREATE)]
        strand = sum(k not in ACCESS_KINDS for k in prefix)
        frames = 1 + prefix.count(SPAWN) + prefix.count(CREATE) - prefix.count(RET)
        assert woken[-2:] == [woken[-1]] * 2 and woken[-1][0] == strand and frames >= 4
    # one wake per detect and per verify, each at the first create
    assert len(woken) == 12
    for _, open_windows, in_child in woken:
        assert open_windows >= 20 and in_child == body_in_child
    path = tmp_path / "deep.jsonl"
    path.write_text(serialize(seq))
    assert cli.run_cli(["verify", "--algo", "plus", "--trace", str(path)]) == cli.EXIT_OK


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.integers(0, 10**6), st.integers(10, 200), st.randoms())
def test_the_walk_is_the_only_gate(fork_join, seed, n_events, rng):
    """``detect`` raises ``InputError`` exactly when ``validate`` finds a
    violation, on drawn traces and on copies with one control event deleted.
    On valid ones, its counts, strands included, are the trace's."""
    p_create, p_get = (0.0, 0.0) if fork_join else (0.1, 0.1)
    seq = gen_random(n_events=n_events, p_spawn=0.15, p_create=p_create, p_get=p_get,
                     seed=seed)
    control = [i for i, ev in enumerate(seq.events) if ev.kind not in ACCESS_KINDS]
    cut = rng.choice(control) if control else None
    damaged = EventSequence([ev for i, ev in enumerate(seq.events) if i != cut])
    runs = [(engine.ALGO_PLUS, MODE_GENERAL)]
    if fork_join:
        runs.append((engine.ALGO_MULTIBAGS, MODE_STRUCTURED))
    for trace in (seq, damaged):
        c = trace.counts
        for algo, mode in runs:
            if not validate(trace, mode).ok:
                with pytest.raises(InputError, match="invalid trace"):
                    engine.detect(trace, algo, mode)
                continue
            stats = engine.detect(trace, algo, mode).stats
            assert (stats.t1_events, stats.m, stats.n, stats.k, stats.strands) == (
                c.events, c.accesses, c.fork_points, c.future_ops, c.strands)
