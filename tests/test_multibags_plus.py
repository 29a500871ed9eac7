import random

import pytest

from futurerd import engine, oracle, reachdag
from futurerd.errors import InputError, InvariantError, UsageError
from futurerd.generators import gen_lcs_general, gen_random
from futurerd.multibags import MultiBags
from futurerd.multibags_plus import MultiBagsPlus, NspRecord
from futurerd.shadow import ShadowTable
from helpers import (cr, deep_fork_join_then, descendants, fold_words, gt, oracle_answers, rd,
                     replay_collect, rt, seq_of, sp, sp_reaches, sy, wr)


def drive(events, after=None):
    mbp = MultiBagsPlus()
    engine.replay(seq_of(*events), mbp, after_strand=after)
    return mbp


def woken(mbp, after=None):
    """``after_strand`` callback: build ``d_nsp`` at strand 0, then call ``after``.

    A detector woken at strand 0 runs its eager ``d_nsp`` rules on every
    strand, even on fork-join traces with no create.
    """

    def callback(s):
        if s == 0:
            mbp._wake()
        if after is not None:
            after(s)

    return callback


def drive_awake(events):
    mbp = MultiBagsPlus()
    engine.replay(seq_of(*events), mbp, after_strand=woken(mbp))
    return mbp


def nsp_sets(mbp, n_strands):
    """Map live cross-dag set -> members, over strand elements only."""
    groups = {}
    for s in range(n_strands):
        groups.setdefault(mbp.d_nsp.find(s), []).append(s)
    return groups


# -- basic set formation ------------------------------------------------------


def test_serial_chain_collapses_to_one_set():
    # spawn/sync of one child: fork, child, continuation, and join all end up
    # in a single cross-dag set once the join runs.
    mbp = drive_awake([sp(1), rt(), sy()])
    groups = nsp_sets(mbp, 4)
    assert len(groups) == 1
    assert sorted(next(iter(groups.values()))) == [0, 1, 2, 3]
    assert mbp.attached_sets == 1  # just the root's initial set


def test_spawned_child_starts_fresh_set_with_inherited_pred():
    mbp = MultiBagsPlus()
    info = {}

    def after(s):
        if s == 1:
            sid = mbp.d_nsp.find(1)
            info["child_set"] = sid
            info["att_pred"] = mbp.d_nsp.record(sid).att_pred

    engine.replay(seq_of(sp(1), rt(), sy()), mbp, after_strand=woken(mbp, after))
    assert info["child_set"] != 0
    assert info["att_pred"] == mbp.d_nsp.find(0)  # the root's attached set
    assert mbp.d_nsp.record(info["att_pred"]).r_node is not None


def test_attachify_is_idempotent():
    mbp = MultiBagsPlus()
    engine.replay(seq_of(sp(1), rt(), sy()), mbp, after_strand=woken(mbp))
    sid = mbp.d_nsp.find(0)
    before = len(mbp.r)
    n1 = mbp._attachify(sid)
    n2 = mbp._attachify(sid)
    assert n1 == n2
    assert len(mbp.r) == before  # already attached: no new node


def test_never_unions_two_attached_sets():
    mbp = MultiBagsPlus()
    a = mbp.d_nsp.make_set(NspRecord(r_node=mbp.r.add_node()))
    b = mbp.d_nsp.make_set(NspRecord(r_node=mbp.r.add_node()))
    with pytest.raises(InvariantError):
        mbp._nsp_union(a, b)
    c = mbp.d_nsp.make_set(NspRecord())
    with pytest.raises(InvariantError):
        mbp._nsp_union(c, a)  # attached side must survive


# -- create -------------------------------------------------------------------


def test_single_create_makes_exactly_three_attached_sets():
    mbp = drive([cr(1, 1), rt()])
    assert mbp.attached_sets == 3  # creator's, future's, continuation's
    s_creator = mbp.d_nsp.find(0)
    s_future = mbp.d_nsp.find(1)
    s_cont = mbp.d_nsp.find(2)
    assert len({s_creator, s_future, s_cont}) == 3
    for sid in (s_creator, s_future, s_cont):
        assert mbp.d_nsp.record(sid).r_node is not None
    rn = lambda sid: mbp.d_nsp.record(sid).r_node
    assert mbp.r.reach(rn(s_creator), rn(s_future))
    assert mbp.r.reach(rn(s_creator), rn(s_cont))
    assert not mbp.r.reach(rn(s_future), rn(s_cont))


def test_creator_precedes_future_body_via_query():
    mbp = MultiBagsPlus()
    answers = replay_collect(seq_of(cr(1, 1), rt()), mbp)
    assert 0 in answers[1]
    assert 1 not in answers[2]  # body parallel with continuation until get


# -- get ----------------------------------------------------------------------


def test_get_orders_future_and_pre_get_strand():
    seq = seq_of(cr(1, 1), rt(), gt(1))
    mbp = MultiBagsPlus()
    answers = replay_collect(seq, mbp)
    assert answers == oracle_answers(seq)
    assert answers[3] == {0, 1, 2}  # both the future's sink and the pre-get strand


def test_two_gets_from_different_frames():
    # the future is joined by a sibling and by the root: both getter strands
    # are ordered after the future's sink.
    seq = seq_of(cr(1, 1), rt(), cr(2, 2), gt(1), rt(), gt(1))
    truth = oracle_answers(seq)
    mbp = MultiBagsPlus()
    assert replay_collect(seq, mbp) == truth
    assert seq.counts.strands == 7
    sink = 1
    for getter in oracle.build(seq).getters_of[1]:
        assert truth[getter] >= {sink}


def test_unknown_or_open_handle_rejected():
    with pytest.raises(InputError, match="unknown handle"):
        drive([gt(4)])
    with pytest.raises(InputError, match="before its future returned"):
        drive([cr(1, 1), gt(1), rt()])  # get from inside the open future


def test_duplicate_handle_rejected():
    with pytest.raises(InputError, match="duplicate"):
        drive([cr(1, 3), rt(), cr(2, 3), rt()])


# -- sync case analysis ---------------------------------------------------------


def test_sync_pure_fork_join_adds_no_dag_nodes():
    # two nested spawn/sync pairs, no futures: everything collapses, the
    # reachability dag never grows past the root set.
    mbp = drive_awake([sp(1), rt(), sy(), sp(2), sp(3), rt(), sy(), rt(), sy()])
    assert mbp.attached_sets == 1
    assert mbp.both_attached_syncs == 0
    groups = nsp_sets(mbp, 10)
    assert len(groups) == 1


def test_sync_one_attached_side_sets_att_succ():
    # left branch (the spawned child) contains a create, right branch is
    # plain: after the sync the plain side keeps its set and points at the
    # set that received the join node.
    events = [sp(1), cr(2, 2), rt(), gt(2), rt(), sy()]
    seq = seq_of(*events)
    mbp = MultiBagsPlus()
    right_set = {}

    def after(s):
        if s == 5:  # the continuation strand in the root, before the sync
            right_set["sid"] = mbp.d_nsp.find(5)

    engine.replay(seq, mbp, after_strand=after)
    # 12 strands? count: 1 + 6 control = 7
    assert seq.counts.strands == 7
    sid = right_set["sid"]
    rec = mbp.d_nsp.record(sid)
    assert rec.r_node is None
    assert rec.att_succ is not None
    join_set = mbp.d_nsp.find(6)
    assert rec.att_succ == join_set
    assert replay_collect(seq, MultiBagsPlus()) == oracle_answers(seq)


def test_sync_both_attached_adds_at_most_two_nodes():
    # both branches perform a create+get: both sink sets are attached at the
    # join.
    events = [
        sp(1), cr(2, 2), rt(), gt(2), rt(),   # left child with a future
        cr(3, 3), rt(), gt(3),                 # right (continuation) future
        sy(),
    ]
    seq = seq_of(*events)
    mbp = MultiBagsPlus()
    nodes_before = {}

    def after(s):
        nodes_before[s] = mbp.attached_sets

    engine.replay(seq, mbp, after_strand=after)
    join = seq.counts.strands - 1
    added_at_sync = nodes_before[join] - nodes_before[join - 1]
    assert added_at_sync <= 2
    assert mbp.both_attached_syncs == 1
    assert replay_collect(seq, MultiBagsPlus()) == oracle_answers(seq)


def spy_windows(monkeypatch, check=None):
    """Log the windows ``MultiBagsPlus`` closes and the edges of its dag.

    Each window is logged as ``(fork, lo, len(r), sources)``, where
    ``sources`` are the dag nodes of the sync's two source sets, read from
    ``d_nsp`` before the real ``on_sync`` runs. The edge log holds every
    ``add_edge`` and, for each closed window, an edge from its fork to each
    of its nodes. ``check(fork, lo, len(r), sources)`` runs before each
    window closes, while the log does not hold its edges yet.
    """
    windows, edges, sources = [], [], []
    on_sync = MultiBagsPlus.on_sync
    close, add_edge = reachdag.ReachDag.close_window, reachdag.ReachDag.add_edge

    def sync_spy(mbp, child, frame):
        if not mbp._dormant:
            sources.append(tuple(mbp.d_nsp.find_record(s).r_node
                                 for s in (child.fork + 1, child.sink + 1)))
        on_sync(mbp, child, frame)

    def close_spy(dag, fork, lo):
        windows.append((fork, lo, len(dag), sources[-1]))
        if check is not None:
            check(*windows[-1])
        close(dag, fork, lo)
        edges.extend((fork, j) for j in range(lo, len(dag)) if j != fork)

    def edge_spy(dag, src, dst):
        edges.append((src, dst))
        add_edge(dag, src, dst)

    monkeypatch.setattr(MultiBagsPlus, "on_sync", sync_spy)
    monkeypatch.setattr(reachdag.ReachDag, "close_window", close_spy)
    monkeypatch.setattr(reachdag.ReachDag, "add_edge", edge_spy)
    return windows, edges


def test_nested_both_attached_sync_under_a_promoted_fork(monkeypatch):
    # Child X runs a both-attached sync whose left side, child Y, runs one of
    # its own. Both forks (the first strands of X and Y) are unattached until
    # their syncs promote them, so Y's fork gets a node above its children's
    # nodes, and X's window, which holds it, must reach those lower-id nodes.
    events = [
        sp(1),                                              # X, strand 1: outer fork
        wr(0x100),
        sp(2),                                              # Y, strand 2: inner fork
        sp(3), cr(4, 4), wr(0x104), rt(), gt(4), rt(),      # inner left: attached
        cr(5, 5), rd(0x100), rt(), gt(5),                   # inner right: attached
        sy(), wr(0x108), rt(),
        cr(6, 6), rd(0x108), rt(), gt(6),                   # outer right: attached
        sy(), rd(0x104), rt(),
        sy(),                                               # one side attached
    ]
    seq = seq_of(*events)
    mbp = MultiBagsPlus()
    windows, edges = spy_windows(monkeypatch)
    assert replay_collect(seq, mbp) == oracle_answers(seq)
    assert mbp.both_attached_syncs == 2
    assert len(windows) == 2
    (y_fork, y_lo, y_len, y_sources), (x_fork, x_lo, _, x_sources) = windows
    assert x_sources[0] == y_fork  # X's left source is Y's fork
    assert y_fork == y_len - 1 and x_lo <= y_lo  # promoted, inside X's window
    assert all(y_lo <= s < y_fork for s in y_sources)  # descendants below their ancestor
    assert min(descendants(edges, [y_fork])) >= x_lo  # but none below X's spawn floor
    for node in (y_fork, *range(y_lo, y_fork)):
        assert mbp.r.reach(x_fork, node)
    races = {(r.addr, r.kind, r.prior, r.current)
             for r in engine.detect(seq, "plus", "general").races}
    assert races == oracle.naive_races(oracle.build(seq)) and len(races) == 1


def random_window_traces():
    for seed in range(40):
        yield seed, gen_random(n_events=220, p_spawn=0.18, p_create=0.1, p_get=0.12, seed=seed)


def test_fork_edge_scan_bound_holds_on_random_traces(monkeypatch):
    # The spawn window: at a both-attached sync every descendant of a source
    # node was created after the spawn, so a window from the spawn's len(r)
    # on can stand for the fork->source edges.
    checked = []

    def check(fork, lo, _, sources):
        for src in sources:
            desc = descendants(edges, [src])
            assert min(desc, default=lo) >= lo, (fork, src, lo)
            checked.append(min(desc, default=src) < src)

    _, edges = spy_windows(monkeypatch, check)
    for seed, seq in random_window_traces():
        edges.clear()
        assert replay_collect(seq, MultiBagsPlus()) == oracle_answers(seq), seed
    assert len(checked) > 50 and any(checked)  # some sources have lower-id descendants


def test_fork_edge_targets_cover_the_spawn_window(monkeypatch):
    # At a both-attached sync, the two sources and the nodes they reach are
    # exactly the nodes made since the spawn (r_floor..), but the fork's own,
    # so one window over that range stands for both fork->source edges.
    promoted = []

    def check(fork, lo, n, sources):
        covered = descendants(edges, sources) | set(sources)
        assert covered == set(range(lo, n)) - {fork}, (fork, lo, n)
        promoted.append(fork >= lo)

    _, edges = spy_windows(monkeypatch, check)
    for _, seq in random_window_traces():
        edges.clear()
        engine.replay(seq, MultiBagsPlus())
    assert len(promoted) > 100
    assert any(promoted) and not all(promoted)  # the fork's node is in the window or older


def test_sync_without_outstanding_child():
    with pytest.raises(InputError):
        drive([sy()])


# -- return ---------------------------------------------------------------------


def test_return_relabels_and_records_sink():
    from futurerd.dsu import LABEL_P

    mbp, children = MultiBagsPlus(), []

    def begin(kind, handle):  # keeps the record the walk stores for the future
        children.append(MultiBagsPlus.on_child_begin(mbp, kind, handle))
        return children[-1]

    mbp.on_child_begin = begin
    engine.replay(seq_of(cr(1, 1), rt()), mbp)
    assert mbp.forest.record(mbp.forest.find(1)) == LABEL_P
    assert children[0].sink == 1
    with pytest.raises(InputError):
        drive([rt()])


# -- query cross-checks -----------------------------------------------------------


def test_precedes_rejects_unexecuted_strand():
    for mbp in (drive([sp(1), rt(), sy()]), drive([cr(1, 1), rt()])):  # dormant, then awake
        with pytest.raises(UsageError, match="strand 99 has not executed"):  # not the forest's
            mbp.precedes(99)


def test_matches_structured_algorithm_on_structured_traces():
    for seed in range(25):
        seq = gen_random(n_events=90, p_spawn=0.2, p_create=0.0, p_get=0.0, seed=seed)
        assert seq.counts.strands <= 100
        a = replay_collect(seq, MultiBags())
        b = replay_collect(seq, MultiBagsPlus())
        assert a == b, seed


def test_lcs_general_3x3_reachability():
    seq = gen_lcs_general(3, seed=0)
    dag = oracle.build(seq)
    mbp = MultiBagsPlus()
    answers = replay_collect(seq, mbp)
    assert answers == {s: frozenset(u for u in range(s) if dag.reaches(u, s))
                       for s in range(dag.n)}
    # block handles are 1 + i*n + j; corner (0,0)'s work precedes the strands
    # of (2,2) that run after its joins (its sink), via chained get edges
    assert dag.reaches(dag.first_of[1], dag.sink_of[9])
    # anti-diagonal corners (0,2) and (2,0) are mutually parallel throughout
    for a in (dag.first_of[3], dag.sink_of[3]):
        for b in (dag.first_of[7], dag.sink_of[7]):
            assert not dag.reaches(a, b) and not dag.reaches(b, a)


def test_matches_oracle_on_random_general_traces():
    for seed in range(30):
        seq = gen_random(n_events=130, p_spawn=0.14, p_create=0.14, p_get=0.12, seed=seed)
        mbp = MultiBagsPlus()
        assert replay_collect(seq, mbp) == oracle_answers(seq), seed


# -- structural properties of the set partition ----------------------------------


def _materialized_edges(dag, upto):
    """Edges of the dag whose target strand has begun by strand `upto`."""
    for u, v, kind in dag.edges():
        if v <= upto:
            yield u, v, kind


def test_unattached_sets_have_no_incident_cross_edges():
    # At every step, members of unattached sets are untouched by create/get
    # edges materialized so far, and form one connected piece of SP edges.
    for seed in (3, 8, 21):
        seq = gen_random(n_events=110, p_spawn=0.15, p_create=0.15, p_get=0.1, seed=seed)
        dag = oracle.build(seq)
        mbp = MultiBagsPlus()

        def after(s):
            groups = {}
            for u in range(s + 1):
                sid = mbp.d_nsp.find(u)
                if mbp.d_nsp.record(sid).r_node is None:
                    groups.setdefault(sid, set()).add(u)
            if not groups:
                return
            touched = {}
            sp_adj = {}
            for u, v, kind in _materialized_edges(dag, s):
                if kind in ("create", "get"):
                    touched.setdefault(u, True)
                    touched.setdefault(v, True)
                else:
                    sp_adj.setdefault(u, []).append(v)
                    sp_adj.setdefault(v, []).append(u)
            for sid, members in groups.items():
                assert not any(m in touched for m in members), (seed, s, sid)
                # connectivity over SP edges restricted to the set
                seen = set()
                stack = [next(iter(members))]
                while stack:
                    x = stack.pop()
                    if x in seen:
                        continue
                    seen.add(x)
                    for y in sp_adj.get(x, ()):
                        if y in members and y not in seen:
                            stack.append(y)
                assert seen == members, (seed, s, sid)

        engine.replay(seq, mbp, after_strand=woken(mbp, after))


def test_att_pred_members_precede_set_members():
    # Whenever a set is unattached, every strand of its attached predecessor
    # reaches every strand of the set over SP edges alone.
    for seed in (2, 14):
        seq = gen_random(n_events=80, p_spawn=0.16, p_create=0.14, p_get=0.1, seed=seed)
        dag = oracle.build(seq)
        sp_desc = sp_reaches(dag)
        mbp = MultiBagsPlus()
        checked = 0

        def after(s):
            nonlocal checked
            membership = {}
            for u in range(s + 1):
                membership.setdefault(mbp.d_nsp.find(u), set()).add(u)
            for sid, members in membership.items():
                rec = mbp.d_nsp.record(sid)
                if rec.r_node is not None:
                    continue
                pred_members = membership.get(rec.att_pred, set())
                for a in pred_members:
                    for v in members:
                        assert (sp_desc[a] >> v) & 1, (seed, s, a, v)
                        checked += 1

        engine.replay(seq, mbp, after_strand=woken(mbp, after))
        # the seeds must give unattached sets with members on both sides
        assert checked > 0, seed


def test_att_succ_contains_a_common_successor():
    # A set's attached successor holds at least one strand (the join node)
    # that every member of the set reaches.
    for seed in (5, 17):
        seq = gen_random(n_events=90, p_spawn=0.2, p_create=0.12, p_get=0.08, seed=seed)
        dag = oracle.build(seq)
        mbp = MultiBagsPlus()
        engine.replay(seq, mbp)
        membership = {}
        for u in range(dag.n):
            membership.setdefault(mbp.d_nsp.find(u), set()).add(u)
        checked = 0
        for sid, members in membership.items():
            rec = mbp.d_nsp.record(sid)
            if rec.r_node is not None or rec.att_succ is None:
                continue
            succ_members = membership.get(rec.att_succ, set())
            assert any(
                all(dag.reaches(u, w) for u in members) for w in succ_members
            ), (seed, sid)
            checked += 1
        assert checked > 0 or seq.counts.syncs == 0


class _ProxiesNeverTie(MultiBagsPlus):
    """Asserts, on each query for a P-bag strand whose set is sealed, the
    lemma in ``_past_p_bag``'s docstring: its two proxies differ."""

    sealed_queries = 0

    def _past_p_bag(self, u):
        if not self._dormant:
            nsp = self.d_nsp
            a1 = nsp.record(nsp.find(u)).att_succ
            if a1 is not None:
                _ProxiesNeverTie.sealed_queries += 1
                assert a1 != nsp.record(nsp.find(self._cur)).att_pred, (u, self._cur)
        return super()._past_p_bag(u)


def test_a_sealed_p_query_never_finds_its_two_proxies_equal(monkeypatch):
    # Draws kept small: gen_random's readable lists can run away on larger ones.
    # Every other draw is folded onto a few words, so that parallel strands
    # touch one word and query each other.
    monkeypatch.setattr(_ProxiesNeverTie, "sealed_queries", 0)
    rng = random.Random(0)
    corpus = [gen_lcs_general(n, inject_race=race) for n in range(2, 9) for race in (0, 1)]
    for seed in range(500):
        seq = gen_random(n_events=500, p_spawn=rng.uniform(0.05, 0.25),
                         p_create=rng.uniform(0.02, 0.2), p_get=rng.uniform(0.02, 0.2),
                         seed=seed)
        corpus.append(fold_words(seq, rng.randrange(1, 9), seed) if seed % 2 else seq)
    for seq in corpus:
        engine.replay(seq, _ProxiesNeverTie(), ShadowTable(), {})
    assert _ProxiesNeverTie.sealed_queries >= 20_000


def test_attached_budget_per_trace():
    rng = random.Random(0)
    for _ in range(15):
        seq = gen_random(
            n_events=rng.randrange(60, 220),
            p_spawn=rng.uniform(0, 0.3),
            p_create=rng.uniform(0, 0.3),
            p_get=rng.uniform(0, 0.3),
            seed=rng.randrange(10_000),
        )
        mbp = MultiBagsPlus()
        engine.replay(seq, mbp)
        c = seq.counts
        assert mbp.attached_sets <= 3 * c.creates + 2 * c.gets + 2 * mbp.both_attached_syncs + 1


# -- dormancy: d_nsp is built at the first create -------------------------------


def _nsp_state(mbp, s):
    """``d_nsp`` over strands 0..s as (members, r_node, att_pred members,
    att_succ members) per set, with the dag's size."""
    members = {}
    for u in range(s + 1):
        members.setdefault(mbp.d_nsp.find(u), set()).add(u)
    by_id = {sid: frozenset(m) for sid, m in members.items()}
    sets = set()
    for sid, m in by_id.items():
        rec = mbp.d_nsp.record(sid)
        sets.add((m, rec.r_node, by_id.get(rec.att_pred), by_id.get(rec.att_succ)))
    return sets, len(mbp.r)


def _run_waking_at(seq, wake_at):
    """Replay, waking the detector at strand ``wake_at`` unless a create did so
    first (None: only a create wakes it). Returns the precedes answers at
    every strand and the ``d_nsp`` state at every strand it was awake."""
    mbp = MultiBagsPlus()
    answers, states = {}, {}

    def after(s):
        if s == wake_at and mbp._dormant:
            mbp._wake()
        answers[s] = frozenset(u for u in range(s) if mbp.precedes(u))
        if not mbp._dormant:
            states[s] = _nsp_state(mbp, s)

    engine.replay(seq, mbp, after_strand=after)
    return answers, states


def _wake_corpus():
    rng = random.Random(7)
    for seed in range(10):
        yield "fork-join", gen_random(n_events=140, p_spawn=0.25, p_create=0.0, p_get=0.0,
                                      seed=seed)
        yield "general", gen_random(n_events=140, p_spawn=0.15, p_create=0.12, p_get=0.1,
                                    seed=seed)
        h = 10**5
        body = [cr(h, h), wr(4), rt(), rd(4), gt(h)] + gen_random(
            n_events=80, p_spawn=0.15, p_create=0.1, p_get=0.1, seed=seed).events
        yield "deep", deep_fork_join_then(body, rng.randrange(4, 12), seed, seed % 2 == 0)


def test_waking_at_any_strand_gives_the_eager_state():
    # A detector woken at strand 0 runs the eager rules throughout. One woken
    # by its first create, or at a random strand, must hold the same d_nsp
    # from then on and give the same answers at every strand, dormant or not.
    rng = random.Random(11)
    late = compared = 0
    for shape, seq in _wake_corpus():
        eager_answers, eager = _run_waking_at(seq, 0)
        assert len(eager) == seq.counts.strands
        for wake_at in (None, rng.randrange(seq.counts.strands)):
            answers, states = _run_waking_at(seq, wake_at)
            assert answers == eager_answers, (shape, wake_at)
            for s, state in states.items():
                assert state == eager[s], (shape, wake_at, s)
            if wake_at is None:
                assert (not states) == (seq.counts.creates == 0), shape
            if states and min(states) > 0:
                late += 1
            compared += len(states)
    assert late >= 30 and compared > 3000
