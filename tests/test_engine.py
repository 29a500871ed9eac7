import json

import pytest

from futurerd import engine, oracle
from futurerd.errors import InputError, UsageError
from futurerd.generators import gen_lcs_general, gen_lcs_structured, gen_random
from futurerd.multibags import MultiBags
from futurerd.multibags_plus import MultiBagsPlus
from futurerd.shadow import WRITE_WRITE, RaceReport, ShadowTable
from helpers import cr, fold_words, gt, rd, rt, seq_of, sp, sy, wr


def test_detect_race_free_structured_lcs():
    seq = gen_lcs_structured(4, seed=0)
    rep = engine.detect(seq, "multibags", "structured")
    assert rep.races == []
    assert rep.algo == "multibags" and rep.mode == "structured"


def test_detect_injected_race_at_injected_address():
    seq = gen_lcs_structured(4, seed=0, inject_race=True)
    expected = oracle.naive_races(oracle.build(seq))
    rep = engine.detect(seq, "multibags", "structured")
    assert {r.key() for r in rep.races} == expected
    assert len(rep.races) >= 1
    (addr, _, _, _), = expected
    assert {r.addr for r in rep.races} == {addr}


def test_detect_general_lcs_needs_plus():
    seq = gen_lcs_general(3, seed=0)
    assert engine.detect(seq, "plus", "general").races == []
    with pytest.raises(InputError):
        engine.detect(seq, "multibags", "structured")
    with pytest.raises(InputError):
        engine.detect(seq, "multibags", "general")


def test_detect_rejects_invalid_trace_with_violations():
    seq = seq_of(sp(1), rt())  # unsynced spawn
    with pytest.raises(InputError, match="unsynced"):
        engine.detect(seq, "plus", "general")


def test_detect_unknown_algo_or_mode():
    seq = seq_of()
    with pytest.raises(UsageError):
        engine.detect(seq, "bags", "general")
    with pytest.raises(UsageError):
        engine.detect(seq, "plus", "serial")


def test_report_json_is_deterministic():
    seq = gen_random(n_events=180, p_spawn=0.12, p_create=0.1, p_get=0.08, seed=5,
                     inject_race=True)
    a = engine.detect(seq, "plus", "general").to_json()
    b = engine.detect(seq, "plus", "general").to_json()
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"algo", "mode", "races", "stats"}
    assert "elapsed" not in doc["stats"]
    assert doc["races"] and set(doc["races"][0]) == {"addr", "kind", "prior", "current"}


def test_stats_fields_and_invariants():
    seq = gen_random(n_events=220, p_spawn=0.15, p_create=0.12, p_get=0.1, seed=9)
    rep = engine.detect(seq, "plus", "general")
    c = seq.counts
    st = rep.stats
    assert st.t1_events == c.events
    assert st.m == c.accesses
    assert st.n == c.spawns + c.creates
    assert st.k == c.creates + c.gets
    assert st.strands == c.strands
    assert st.queries <= 2 * st.m + c.writes
    assert st.attached_sets <= 3 * c.creates + 2 * c.gets + 2 * st.both_attached_syncs + 1
    assert st.elapsed > 0
    assert st.union_ops > 0 and st.find_ops > 0


def test_stats_queries_counts_every_precedes_call(monkeypatch):
    # The shadow counts its own precedes calls; a wrapper on each algorithm
    # counts them independently. Folding onto 5 words gives long reader
    # lists and many rewrites, so most writes make several queries.
    fj = fold_words(gen_random(n_events=2000, p_spawn=0.2, p_create=0.0, p_get=0.0,
                               seed=11), pool=5, seed=11)
    futures = fold_words(gen_random(n_events=2000, seed=12), pool=5, seed=12)
    calls = 0

    def counting(inner):
        def precedes(self, u):
            nonlocal calls
            calls += 1
            return inner(self, u)
        return precedes

    monkeypatch.setattr(MultiBags, "precedes", counting(MultiBags.precedes))
    monkeypatch.setattr(MultiBagsPlus, "precedes", counting(MultiBagsPlus.precedes))
    for seq, algo, mode in ((fj, "multibags", "structured"), (fj, "plus", "general"),
                            (futures, "plus", "general")):
        assert seq.counts.writes > len({ev.addr for ev in seq.events if ev.addr is not None})
        calls = 0
        rep = engine.detect(seq, algo, mode)
        assert rep.stats.queries == calls > seq.counts.writes, algo
        assert rep.races


def test_report_json_bytes_match_the_json_module():
    readme = gen_lcs_structured(4, seed=0, inject_race=True)
    folded = fold_words(gen_random(n_events=3000, p_spawn=0.2, p_create=0.0, p_get=0.0,
                                   seed=4), pool=6, seed=4)
    clean = gen_lcs_structured(3, seed=1)
    counts = []
    for seq in (readme, folded, clean):
        for algo, mode in (("multibags", "structured"), ("plus", "general")):
            rep = engine.detect(seq, algo, mode)
            expected = json.dumps(rep.to_json_dict(), separators=(",", ":"))
            assert rep.to_json() == expected, (algo, len(rep.races))
            counts.append(len(rep.races))
    assert counts[0] == counts[1] == 1
    assert min(counts[2:4]) >= 200
    assert counts[4] == counts[5] == 0


def test_races_report_in_first_occurrence_order_without_duplicates():
    # two parallel readers of one word, then a parallel write: two reports
    # on one address, ordered by occurrence.
    seq = seq_of(
        cr(1, 1), rd(400), rt(),
        cr(2, 2), rd(400), rt(),
        wr(400),
        gt(1), gt(2),
    )
    rep = engine.detect(seq, "plus", "general")
    keys = [r.key() for r in rep.races]
    assert keys == sorted(keys, key=lambda k: (k[3], k[2]))
    assert len(keys) == len(set(keys)) == 2
    assert {k[1] for k in keys} == {"read-write"}


def test_verify_ok_on_clean_traces():
    for seed in (0, 3, 7):
        seq = gen_random(n_events=120, p_spawn=0.15, p_create=0.1, p_get=0.08, seed=seed)
        rep = engine.verify(seq, "plus")
        assert rep.ok and rep.divergence is None
        assert rep.detector_races == rep.oracle_races
        assert rep.checked > 0


def test_verify_catches_a_lying_detector(monkeypatch):
    seq = gen_random(n_events=100, p_spawn=0.2, p_create=0.0, p_get=0.0, seed=2)
    real_precedes = MultiBags.precedes

    def lying(self, u):
        return not real_precedes(self, u)

    monkeypatch.setattr(MultiBags, "precedes", lying)
    rep = engine.verify(seq, "multibags")
    assert not rep.ok
    assert rep.divergence is not None
    assert "precedes" in rep.divergence.describe()


def test_verify_samples_large_traces():
    seq = gen_random(n_events=900, p_spawn=0.18, p_create=0.1, p_get=0.08, seed=4)
    assert seq.counts.strands > engine.EXHAUSTIVE_LIMIT
    rep = engine.verify(seq, "plus", seed=1)
    assert rep.ok and rep.detector_races == rep.oracle_races
    # sampled: far fewer checks than the exhaustive quadratic count
    assert rep.checked < seq.counts.strands ** 2 / 4
    rep2 = engine.verify(seq, "plus", sample=4, seed=1)
    assert rep2.ok and rep2.checked <= 4 * seq.counts.strands
    assert rep2.detector_races == rep2.oracle_races


def test_verify_race_sets_compared():
    seq = gen_random(n_events=150, p_spawn=0.12, p_create=0.12, p_get=0.08, seed=8,
                     inject_race=True)
    rep = engine.verify(seq, "plus")
    assert rep.ok
    assert rep.detector_races == rep.oracle_races != set()


def test_verify_fails_on_an_unsound_pair_or_a_missed_racy_word(monkeypatch):
    # Three parallel writes of one word; strand 0 precedes them all.
    seq = seq_of(sp(1), wr(64), rt(), sp(2), wr(64), rt(), wr(64), sy(), sy())

    class Silent(ShadowTable):
        def on_write(self, addr, strand, precedes):
            super().on_write(addr, strand, precedes)
            return []

    class Inventive(ShadowTable):
        def on_write(self, addr, strand, precedes):
            made_up = RaceReport(addr, WRITE_WRITE, 0, strand)
            return super().on_write(addr, strand, precedes) + [made_up]

    monkeypatch.setattr(engine, "ShadowTable", Silent)
    rep = engine.verify(seq, "plus")
    assert rep.divergence is None and not rep.unsound_races
    assert rep.missed_words == {64} and not rep.ok

    monkeypatch.setattr(engine, "ShadowTable", Inventive)
    rep = engine.verify(seq, "plus")
    assert rep.divergence is None and not rep.missed_words
    assert rep.unsound_races == {(64, "write-write", 0, s) for s in (1, 3, 4)}
    assert not rep.ok


def test_verify_refuses_oversized_traces():
    events = []
    for h in range(2600):
        events.append(cr(h + 1, h + 1))
        events.append(rt())
    with pytest.raises(InputError, match="refuses"):
        engine.verify(seq_of(*events), "plus")


def test_replay_strand_count():
    seq = seq_of(sp(1), rt(), sy(), cr(2, 2), rt(), gt(2))
    assert engine.replay(seq, MultiBags()).strands == seq.counts.strands == 7


def test_stats_only():
    seq = seq_of(sp(1), wr(4), rt(), sy())
    d = engine.stats_only(seq)
    assert d["events"] == 4 and d["strands"] == 4 and d["writes"] == 1
    assert d["n"] == 1 and d["k"] == 0
