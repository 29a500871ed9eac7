import gc
import hashlib
import io
import json

import pytest

from futurerd import engine, oracle, reachdag, trace
from futurerd.errors import ClosureLimitError, InputError, ParseError, UsageError
from futurerd.generators import gen_lcs_general, gen_lcs_structured, gen_random
from futurerd.multibags import MultiBags
from futurerd.multibags_plus import MultiBagsPlus
from futurerd.shadow import WRITE_WRITE, RaceReport, ShadowTable
from helpers import cr, desugar_spawns, fold_words, gt, rd, rt, seq_of, sp, sy, wr


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


def _golden_trace(name):
    """The small traces whose ``detect`` reports are pinned below."""
    shape, _, seed = name.rpartition("-")
    seed = int(seed)
    if shape == "lcs-structured":
        return gen_lcs_structured(seed, inject_race=True)
    if shape == "lcs-general":
        return gen_lcs_general(seed)
    if shape == "futures":
        seq = gen_random(n_events=400, p_spawn=0.2, p_create=0.08, p_get=0.08, seed=seed,
                         inject_race=True)
        return fold_words(seq, 6, seed)
    seq = fold_words(gen_random(n_events=400, p_spawn=0.2, p_create=0.0, p_get=0.0, seed=seed),
                     6, seed)
    return desugar_spawns(seq) if shape == "desugared" else seq


# sha256 of ``DetectReport.to_json()``, the line ``detect --json`` prints,
# for every algorithm/mode pair that accepts the trace: a refactor of the
# detectors or the walk must leave each report, find_ops and union_ops
# included, byte-identical. The fork-join and futures traces fold their
# addresses onto 6 words, so they race; the futures ones are multi-touch and
# have syncs with both sides attached.
_GOLDEN = [
    ("lcs-structured-4", "multibags", "structured", "c0e572c1702f95bd28dc0dfc3e311a712672dabba4424c9d9be73fa14678ca8d"),
    ("lcs-structured-4", "plus", "structured", "85a1f8b57592ded2674ea73f42091e51c22934faf5fb1640a95d03c3a0933ac5"),
    ("lcs-structured-4", "plus", "general", "7677e496ee30d20e205fe11ca2fd2362f2d075f6f0000fa89a7ad0d247c04ed0"),
    ("lcs-general-5", "plus", "general", "86f0c9395f7f23dde36a9ed82f7a1adb23c6545351490b5d18442150e7e2fd61"),
    ("fork-join-1", "multibags", "structured", "300f0fe8df4ab02e2bd2af3618b189b0b8083df72fddf3e3904c1c1f71577c7d"),
    ("fork-join-1", "plus", "structured", "8c599c84f33da0303e3c44d2913b7c405833184e1f6d6f68766332067a8d1326"),
    ("fork-join-1", "plus", "general", "eadd6d7fb327cbffbf531cbe834121cc8246347b931c9bc398601961f697522b"),
    ("desugared-1", "multibags", "structured", "d200fbbf815e9092a71ef8a3fef44b43fdcbb5921cff589ef1e93b6a836c8c99"),
    ("desugared-1", "plus", "structured", "7fa069f340b4639931fea89211da2db5dd3e0fdd3df7c30d68c2cdae6690e487"),
    ("desugared-1", "plus", "general", "0faac914dd331dbd9682c182e6f2f51768024fb819234517a1f934198dfd64ee"),
    ("fork-join-2", "multibags", "structured", "37dbc4838dec5a16678c89017ae8b83d56836f21665605188cc975d4c9373c7d"),
    ("fork-join-2", "plus", "structured", "6ca409c3f674f599fe9d77b5ef6263e850d026295d29b0948d0eb09725aa8b2a"),
    ("fork-join-2", "plus", "general", "cc21faa71ee8ded5da3e1d689c2c0644a9710726827aaae1a03886def7462fb9"),
    ("desugared-2", "multibags", "structured", "60a5996d9bb5cfd1c9a07a0ad96a00e0cff7662b53a95a05e4f19d6888f38fd3"),
    ("desugared-2", "plus", "structured", "e876246042d5613f74f1ec1c9b947f31f012023f3106177e15377ea0ba5be73d"),
    ("desugared-2", "plus", "general", "c8a0d826139227187d31e2018d498b7189497ba1e67566cce34e4c323af47071"),
    ("fork-join-3", "multibags", "structured", "52266efb4335334f1bbe396ff21259cae9b34d6baa8a001a9640a27b7ac18bf2"),
    ("fork-join-3", "plus", "structured", "0037470f748b9f7eca066004789dd483ec53a38cec9866efb330e6ddcc60368d"),
    ("fork-join-3", "plus", "general", "8ea3968b00d626dcbee572cf6819546ddf683314058c69690e5b12d483e6ea9b"),
    ("desugared-3", "multibags", "structured", "c5af23595500ae1041297750812f9ccf4c15cc3a6709739d4d16b61a1f389d46"),
    ("desugared-3", "plus", "structured", "e066e3068733cadfbc7c88f10f8af6518ffa13add64b472e1c13f8aab32f74e3"),
    ("desugared-3", "plus", "general", "00c9714d96152e01fb6a18bc15b6121cb8a32362903e6878c4183c4f344fa741"),
    ("futures-1", "plus", "general", "f3f9eba931380c043474dda17a0ca577e64f1cb3aca38c03cab61df0ae79202b"),
    ("futures-2", "plus", "general", "5b85355f14ee72d1e93a3555efa935ecdf00ef2664b88caf19f8263093677e8a"),
    ("futures-3", "plus", "general", "563233b803139730c7d2e2b74366a8e1612e7637e23abb93953e6ae7414202b0"),
]


@pytest.mark.parametrize("name,algo,mode,digest", _GOLDEN)
def test_detect_reports_are_pinned(name, algo, mode, digest):
    report = engine.detect(_golden_trace(name), algo, mode)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_detect_verify_and_their_errors_leave_no_cyclic_garbage(monkeypatch):
    # The futurerd command runs with the cycle collector off, which is safe
    # only while detection frees everything it makes by reference counting.
    racy = trace.serialize(_golden_trace("lcs-structured-4"))
    both_attached = trace.serialize(_golden_trace("futures-1"))
    # The forked reader imports pickle lazily, and a first import leaves
    # cycles behind; import it before the baseline so that this test reads
    # the same whether or not an earlier test in the process imported it.
    import pickle  # noqa: F401
    gc.collect()
    gc.disable()
    try:
        for text, algo, mode in [(racy, "multibags", "structured"), (racy, "plus", "general"),
                                 (both_attached, "plus", "general")]:
            report = engine.detect(trace.parse(text), algo, mode)
            assert report.races and (text is racy or report.stats.both_attached_syncs)
            del report
            assert gc.collect() == 0, (algo, mode)
        seq = gen_random(n_events=120, p_spawn=0.15, p_create=0.1, p_get=0.08, seed=3)
        assert engine.verify(seq, "plus").ok
        assert gc.collect() == 0
        with pytest.raises(InputError, match="unsynced"):
            engine.detect(seq_of(sp(1), rt()), "plus", "general")
        assert gc.collect() == 0
        monkeypatch.setattr(reachdag, "CLOSURE_BUDGET", 3)  # admits 5 nodes
        with pytest.raises(ClosureLimitError):  # raised by a hook, kept by the walk
            engine.detect(trace.parse(both_attached), "plus", "general")
        assert gc.collect() == 0
        with pytest.raises(ParseError):
            trace.parse('{"t":"spawn","f":1}\n{"t":"w","a":\n')
        assert gc.collect() == 0
        with pytest.raises(ParseError):  # mid-walk, after the race
            engine.detect(trace.iterparse(racy + '{"t":"w","a":\n'), "plus", "general")
        assert gc.collect() == 0
        # Through a forked reader: to the end, to a parse error, and refused unread.
        with trace.ReaderTrace(io.StringIO(racy)) as reader:
            assert engine.detect(reader, "multibags", "structured").races
        assert gc.collect() == 0
        with trace.ReaderTrace(io.StringIO(racy + "{\n")) as reader:
            with pytest.raises(ParseError):
                engine.detect(reader, "multibags", "structured")
        assert gc.collect() == 0
        with trace.ReaderTrace(io.StringIO(racy)) as reader:
            with pytest.raises(InputError, match="requires structured mode"):
                engine.detect(reader, "multibags", "general")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _counted_passes_and_walks(monkeypatch):
    """A ``TraceFile`` subclass that logs its passes, and the log of the walks
    made through ``engine.validate``, ``oracle.validate`` and ``engine.walk``."""
    passes, walks = [], []

    class Counted(trace.TraceFile):
        def __iter__(self):
            passes.append(self.path)
            return super().__iter__()

    def counted(name, fn):
        def call(*args, **kwargs):
            walks.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(engine, "validate", counted("validate", trace.validate))
    monkeypatch.setattr(oracle, "validate", counted("oracle.validate", trace.validate))
    monkeypatch.setattr(engine, "walk", counted("replay", trace.walk))
    return Counted, passes, walks


def test_verify_parses_a_trace_file_once_and_walks_it_once(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    trace.dump(gen_random(n_events=120, p_spawn=0.15, p_create=0.1, p_get=0.08, seed=3), path)
    Counted, passes, walks = _counted_passes_and_walks(monkeypatch)
    assert engine.verify(Counted(path), "plus").ok
    assert passes == [path]
    assert walks == ["replay"]  # the replay builds the dag as it goes


def test_verify_walks_a_generator_as_it_yields_and_builds_no_event_list(monkeypatch):
    # Each control event begins a strand. If verify listed the events first,
    # no strand past 0 would have begun when the generator yields them.
    seq = gen_random(n_events=400, p_spawn=0.15, p_create=0.1, p_get=0.08, seed=3)
    begun = []
    real = MultiBagsPlus.on_strand_begin

    def on_strand_begin(self, s):
        begun.append(s)
        return real(self, s)

    monkeypatch.setattr(MultiBagsPlus, "on_strand_begin", on_strand_begin)
    controls = 0

    def events():
        nonlocal controls
        for ev in seq:
            if ev.addr is None:  # a control event, which begins strand controls + 1
                assert begun == list(range(controls + 1))
                controls += 1
            yield ev

    assert engine.verify(events(), "plus").ok
    assert begun == list(range(controls + 1)) == list(range(seq.counts.strands))


def test_oracle_build_parses_a_trace_file_once_and_walks_it_once(tmp_path, monkeypatch):
    seq = gen_random(n_events=120, p_spawn=0.15, p_create=0.1, p_get=0.08, seed=3)
    path = tmp_path / "t.jsonl"
    trace.dump(seq, path)
    Counted, passes, walks = _counted_passes_and_walks(monkeypatch)
    dag = oracle.build(Counted(path))
    assert passes == [path]
    assert walks == ["oracle.validate"]
    assert dag.n == seq.counts.strands and list(dag.edges()) == list(oracle.build(seq).edges())


def test_detect_rejects_invalid_trace_with_violations():
    seq = seq_of(sp(1), rt())  # unsynced spawn
    with pytest.raises(InputError, match="unsynced"):
        engine.detect(seq, "plus", "general")


_INVALID = [
    (seq_of(sy(), rt()), "invalid trace (2 violation(s)): sync with no outstanding spawned "
     "child; ret event in the implicit root frame"),
    (seq_of(sp(1), trace.Event("write", addr=64), wr(64), sy()),
     "invalid trace (3 violation(s)): unknown event kind 'write'; sync with no outstanding "
     "spawned child; 1 frame(s) never return"),
]


@pytest.mark.parametrize("run", [
    lambda seq: engine.detect(seq, "plus", "general"),
    lambda seq: engine.detect(seq, "multibags", "structured"),
    lambda seq: engine.verify(seq, "plus"),
    lambda seq: engine.verify(seq, "multibags"),
    engine.stats_only,
    oracle.build,
], ids=["detect-plus", "detect-multibags", "verify-plus", "verify-multibags", "stats_only",
        "oracle.build"])
@pytest.mark.parametrize("seq, message", _INVALID, ids=["sync-ret", "unknown-kind"])
def test_every_entry_point_words_an_invalid_trace_the_same_way(run, seq, message):
    with pytest.raises(InputError) as exc:
        run(seq)
    assert type(exc.value) is InputError and str(exc.value) == message


def test_replay_and_walk_keep_the_first_race_in_the_shadow():
    seq = seq_of(sp(1), wr(4), rt(), wr(4), sy())  # races at its second write
    for run in (lambda shadow: engine.replay(seq, MultiBags(), shadow=shadow),
                lambda shadow: trace.walk(seq, "structured", MultiBags(), shadow)):
        shadow = ShadowTable()
        run(shadow)
        assert list(shadow.races) == [(4, WRITE_WRITE, 1, 2)]


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
    assert st._asdict() == json.loads(rep.to_json())["stats"]  # counts only, all reported
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

    for cls in (MultiBags, MultiBagsPlus):
        if "precedes" in cls.__dict__:  # wrapping an inherited one too would count twice
            monkeypatch.setattr(cls, "precedes", counting(cls.precedes))
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


def test_verify_checks_the_first_strands_exhaustively_and_samples_the_rest():
    limit = engine.EXHAUSTIVE_LIMIT
    at = gen_random(n_events=540, p_spawn=0.18, p_create=0.1, p_get=0.08, seed=5)
    above = gen_random(n_events=572, p_spawn=0.18, p_create=0.1, p_get=0.08, seed=0,
                       inject_race=True)
    assert (at.counts.strands, above.counts.strands) == (limit, limit + 12)
    # Every strand s checks s earlier strands: S(S-1)/2 answers.
    rep = engine.verify(at, "plus")
    assert rep.ok and rep.checked == limit * (limit - 1) // 2 == 44_850
    # Strands 1..limit check all earlier strands, the 11 after them 32 each.
    rep = engine.verify(above, "plus", seed=1)
    assert rep.ok and rep.oracle_races
    assert rep.checked == sum(range(1, limit + 1)) + 32 * 11 == 45_502
    # An explicit sample checks min(sample, s) answers at each strand s.
    rep = engine.verify(above, "plus", sample=4, seed=1)
    assert rep.ok and rep.checked == 1 + 2 + 3 + 4 * 308 == 1_238


@pytest.mark.parametrize("sample", [0, -2])
def test_verify_refuses_a_sample_below_one(sample):
    # 0 would check no answer and report ok; -2 would fail in random.sample
    with pytest.raises(UsageError, match=f"sample must be at least 1, got {sample}"):
        engine.verify(gen_random(n_events=200, seed=1), "plus", sample=sample)


def test_verify_race_sets_compared():
    seq = gen_random(n_events=150, p_spawn=0.12, p_create=0.12, p_get=0.08, seed=8,
                     inject_race=True)
    rep = engine.verify(seq, "plus")
    assert rep.ok
    assert rep.detector_races == rep.oracle_races != set()


def test_verify_takes_the_iterparse_iterator_as_it_takes_a_list():
    lcs = gen_lcs_structured(3, seed=0, inject_race=True)
    fj = fold_words(gen_random(n_events=600, p_spawn=0.2, p_create=0.0, p_get=0.0, seed=4),
                    pool=6, seed=4)
    futures = fold_words(gen_random(n_events=600, seed=5), pool=6, seed=5)
    assert futures.counts.strands > engine.EXHAUSTIVE_LIMIT  # so some strands are sampled
    for seq, algos in ((lcs, ("multibags", "plus")), (fj, ("multibags", "plus")),
                       (futures, ("plus",))):
        text = trace.serialize(seq)
        for algo in algos:
            listed = engine.verify(trace.parse(text), algo)
            with trace.ReaderTrace(io.StringIO(text)) as reader:
                forked = engine.verify(reader, algo)
            for streamed in (engine.verify(trace.iterparse(text), algo), forked):
                assert streamed.ok and streamed.oracle_races, algo
                assert (streamed.ok, streamed.checked, streamed.detector_races,
                        streamed.oracle_races) == (listed.ok, listed.checked,
                                                   listed.detector_races, listed.oracle_races)


def test_verify_fails_on_an_unsound_pair_or_a_missed_racy_word(monkeypatch):
    # Three parallel writes of one word; strand 0 precedes them all.
    seq = seq_of(sp(1), wr(64), rt(), sp(2), wr(64), rt(), wr(64), sy(), sy())

    class Silent(ShadowTable):
        def on_write(self, addr, strand, precedes):
            reports = super().on_write(addr, strand, precedes)
            for r in reports:
                del self.races[r.key()]
            return reports

    class Inventive(ShadowTable):
        def on_write(self, addr, strand, precedes):
            made_up = RaceReport(addr, WRITE_WRITE, 0, strand)
            self.races[made_up.key()] = made_up
            return super().on_write(addr, strand, precedes)

    monkeypatch.setattr(engine, "ShadowTable", Silent)
    rep = engine.verify(seq, "plus")
    assert rep.divergence is None and not rep.unsound_races
    assert rep.missed_words == {64} and not rep.ok

    monkeypatch.setattr(engine, "ShadowTable", Inventive)
    rep = engine.verify(seq, "plus")
    assert rep.divergence is None and not rep.missed_words
    assert rep.unsound_races == {(64, "write-write", 0, s) for s in (1, 3, 4)}
    assert not rep.ok


def test_verify_refuses_oversized_traces(monkeypatch):
    # 5,201 strands could take 3.2 MiB of oracle rows, over a 2 MiB budget
    monkeypatch.setattr(oracle, "REACH_BUDGET", 2 << 20)
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
