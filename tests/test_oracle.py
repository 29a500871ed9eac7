import random

import pytest

from futurerd import cli, engine, oracle, trace
from futurerd.errors import InputError
from futurerd.generators import gen_lcs_general, gen_lcs_structured, gen_random
from futurerd.multibags_plus import MultiBagsPlus
from futurerd.trace import EventSequence, iterparse, serialize
from helpers import cr, getters_of, gt, rd, rt, seq_of, sp, strands_of, sy, wr


def test_the_dag_reads_plain_event_tuples_and_the_iterparse_iterator():
    for seq in (gen_lcs_structured(3, seed=1, inject_race=True),
                gen_random(n_events=400, p_spawn=0.15, p_create=0.1, p_get=0.1, seed=2)):
        dag = oracle.OracleDag()
        assert list(oracle.follow(dag, seq)) == list(seq)  # yielded as they came
        for other in (oracle.build([tuple(e) for e in seq]),
                      oracle.build(iterparse(serialize(seq)))):
            assert (other.out, other.accesses, other.sink_of) == (
                dag.out, dag.accesses, dag.sink_of)


def _asked_as_the_walk_reads(seq, first_query):
    """``reaches(u, s)`` for every ``u < s``, at each strand ``s`` from
    ``first_query`` on, asked while a walk reads ``seq`` through ``follow``."""
    dag = oracle.OracleDag()
    answers = {}

    def ask(s):
        if s >= first_query:
            answers[s] = [dag.reaches(u, s) for u in range(s)]

    engine.replay(oracle.follow(dag, seq), MultiBagsPlus(), after_strand=ask)
    return answers


@pytest.mark.parametrize("seq", [
    gen_lcs_structured(4, seed=1, inject_race=True),
    gen_lcs_general(4, seed=2, inject_race=True),
    *(gen_random(n_events=300, p_spawn=0.15, p_create=0.12, p_get=0.1, seed=seed)
      for seed in range(3)),
], ids=["lcs-structured", "lcs-general", "random-0", "random-1", "random-2"])
def test_rows_kept_as_the_walk_reads_match_rows_built_in_one_pass(seq):
    built = oracle.build(seq)
    # Rows first built at strand 1, or over half the trace, then kept online.
    for first_query in (1, built.n // 2):
        answers = _asked_as_the_walk_reads(seq, first_query)
        assert list(answers) == list(range(first_query, built.n))
        for s, row in answers.items():
            assert row == [built.reaches(u, s) for u in range(s)], (first_query, s)


def test_follow_stops_growing_at_an_event_it_cannot_place_and_yields_the_rest():
    events = [sp(1), rt(), sy(), sy(), gt(7), wr(4), rt()]
    dag = oracle.OracleDag()
    assert list(oracle.follow(dag, events)) == events
    assert dag.n == 4 and dag.accesses == [[], [], [], []]  # root, child, continuation, sync


def test_empty_trace_is_one_node_no_edges():
    dag = oracle.build(EventSequence([]))
    assert dag.n == 1 and not list(dag.edges())
    assert oracle.to_dot(dag) == 'digraph strands {\n  n0 [label="0 regular"];\n}\n'


def test_create_get_edges_and_getter_indegree():
    dag = oracle.build(seq_of(cr(1, 1), rt(), gt(1)))
    # strands: 0 creator, 1 future body, 2 continuation, 3 getter
    dot = oracle.to_dot(dag)
    assert '  n0 [label="0 creator"];' in dot and '  n3 [label="3 getter"];' in dot
    kinds = {(u, v): k for u, v, k in dag.edges()}
    assert kinds[(0, 1)] == "create" and kinds[(1, 3)] == "get"
    assert kinds[(0, 2)] == "continue" and kinds[(2, 3)] == "continue"
    indeg = [0] * dag.n
    for _, v, _ in dag.edges():
        indeg[v] += 1
    assert indeg[3] == 2
    assert dag.sink_of == {1: 1} and getters_of(dag, 1) == [3]


def test_build_is_deterministic():
    seq = gen_random(n_events=120, seed=6)
    a, b = oracle.build(seq), oracle.build(seq)
    assert a.n == b.n and list(a.edges()) == list(b.edges()) and a.accesses == b.accesses


def test_chain_and_siblings_reachability():
    # serial chain via two create/ret pairs: root strands 0 -> 2 -> 4
    chain = oracle.build(seq_of(cr(1, 1), rt(), cr(2, 2), rt()))
    assert chain.reaches(0, 4)
    assert not chain.reaches(4, 0)
    # two spawned siblings are mutually unordered
    sib = oracle.build(seq_of(sp(1), rt(), sp(2), rt(), sy(), sy()))
    assert not sib.reaches(1, 3) and not sib.reaches(3, 1)
    assert not sib.reaches(1, 1)


def test_transitive_dependence_through_two_get_edges():
    # Three-block diagonal: each block joins the previous one's handle before
    # the next block is created, so block 1's body reaches block 3's body
    # only through two get edges.
    seq = seq_of(cr(1, 1), rt(), gt(1), cr(2, 2), rt(), gt(2), cr(3, 3), rt())
    dag = oracle.build(seq)
    # strands: 0 root, 1 body1, 2 cont, 3 getter1, 4 body2, 5 cont, 6 getter2, 7 body3
    assert dag.reaches(1, 7)
    get_edges = [(u, v) for u, v, k in dag.edges() if k == "get"]
    assert get_edges == [(1, 3), (4, 6)]


def test_naive_races_examples():
    # same strand reading and writing one word is never a race
    dag = oracle.build(seq_of(rd(64), wr(64), rd(64)))
    assert oracle.naive_races(dag) == set()
    # unordered future body vs continuation read
    dag = oracle.build(seq_of(cr(1, 1), wr(100), rt(), rd(100), gt(1)))
    assert oracle.naive_races(dag) == {(100, "write-read", 1, 2)}
    # ordered after the join: no race
    dag = oracle.build(seq_of(cr(1, 1), wr(100), rt(), gt(1), rd(100)))
    assert oracle.naive_races(dag) == set()


def test_longest_path_serial_chains():
    # root strand alone
    assert oracle.longest_path(oracle.build(EventSequence([]))) == 1
    # create/ret n times: un-joined bodies dangle off the root chain, so the
    # longest path is the root's own chain of n+1 strands
    seq = seq_of(cr(1, 1), rt(), cr(2, 2), rt(), cr(3, 3), rt())
    assert oracle.longest_path(oracle.build(seq)) == 4
    # joining each future strings body and getter onto one path:
    # 0 ->create 1 ->get 3 ->create 4 ->get 6
    seq = seq_of(cr(1, 1), rt(), gt(1), cr(2, 2), rt(), gt(2))
    assert oracle.longest_path(oracle.build(seq)) == 5


def test_longest_path_fork_join_diamond():
    # spawn a child that itself runs three strands; continuation is 1 strand.
    seq = seq_of(sp(1), cr(2, 2), rt(), gt(2), rt(), sy())
    dag = oracle.build(seq)
    # longer branch: child strands 1,3,4 (3 nodes); fork=0, join=6
    assert oracle.longest_path(dag) == 3 + 2
    # weighted: continuation branch dominates when heavy
    assert oracle.longest_path(dag, {5: 50}) == 1 + 50 + 1


def test_longest_path_weight_callable():
    seq = gen_lcs_structured(2, seed=0)
    dag = oracle.build(seq)
    frame_kinds = strands_of(seq)[0]
    assert len(frame_kinds) == dag.n
    unit = oracle.longest_path(dag)
    heavy = oracle.longest_path(dag, lambda s: 16 if frame_kinds[s] == trace.CREATE else 1)
    assert heavy > unit


def test_reaches_is_strict_partial_order_sampled():
    dag = oracle.build(gen_random(n_events=160, p_spawn=0.15, p_create=0.1, p_get=0.1, seed=2))
    rng = random.Random(0)
    for _ in range(300):
        a, b, c = (rng.randrange(dag.n) for _ in range(3))
        assert not dag.reaches(a, a)
        if dag.reaches(a, b) and dag.reaches(b, c):
            assert dag.reaches(a, c)
        if a < b:
            assert not dag.reaches(b, a)  # edges follow serial order


def test_same_function_strands_follow_serial_order():
    seq = gen_random(n_events=120, p_spawn=0.2, p_create=0.0, p_get=0.0, seed=8)
    dag = oracle.build(seq)
    by_frame = {}
    # group strand ids that share a frame by replaying frame depth
    depth_path = []
    frames = {0: [0]}
    fid, cur = 0, 0
    next_frame = 1
    stack = [0]
    for ev in seq.events:
        if ev.kind in ("spawn", "create"):
            stack.append(next_frame)
            frames[next_frame] = []
            next_frame += 1
            cur += 1
        elif ev.kind in ("sync", "get"):
            cur += 1
        elif ev.kind == "ret":
            stack.pop()
            cur += 1
        else:
            continue
        frames[stack[-1]].append(cur)
    for members in frames.values():
        for x, y in zip(members, members[1:]):
            assert dag.reaches(x, y)


def test_invalid_trace_rejected():
    with pytest.raises(InputError):
        oracle.build(seq_of(rt()))


def test_reachability_cap(monkeypatch):
    # 5,003 strands could take 3.0 MiB of rows, over a 2 MiB budget
    monkeypatch.setattr(oracle, "REACH_BUDGET", 2 << 20)
    events = []
    for h in range(2501):  # 5002 strands total
        events.append(cr(h + 1, h + 1))
        events.append(rt())
    dag = oracle.build(EventSequence(events))
    assert dag.n == 5003
    with pytest.raises(InputError):
        dag.reaches(0, 1)


def test_a_queried_dag_charges_each_strand_it_adds_and_an_unqueried_one_none(tmp_path,
                                                                              monkeypatch):
    events = []
    for h in range(10):  # 21 strands
        events += [cr(h + 1, h + 1), rt()]
    seq = EventSequence(events)
    monkeypatch.setattr(oracle, "REACH_BUDGET", 10 * 10 // 8)  # admits 10 strands, not 11
    dag = oracle.OracleDag()
    with pytest.raises(InputError, match="^the brute-force dag refuses 11 strands: its "
                       "reachability rows could take 15 bytes, over the budget of 12 bytes$"):
        for _ in oracle.follow(dag, seq):
            dag.reaches(0, dag.n - 1)  # rows are kept from the first query on
    assert dag.n == len(dag._anc) == 10  # the refused strand is not added
    # A dag that is never queried keeps no rows, so the budget does not apply.
    built = oracle.build(seq)
    assert built.n == 21 and built._anc is None
    path, dot = tmp_path / "t.jsonl", tmp_path / "t.dot"
    trace.dump(seq, path)
    assert cli.run_cli(["detect", "--algo", "plus", "--mode", "general", "--trace", str(path),
                        "--dump-dag", str(dot)]) == cli.EXIT_OK
    assert dot.read_text() == oracle.to_dot(built)


def test_dot_dump():
    dot = oracle.to_dot(oracle.build(seq_of(cr(1, 1), rt(), gt(1))))
    assert dot.startswith("digraph") and '[label="create"]' in dot and "n3" in dot


def test_dot_labels_each_strand_with_the_kinds_of_its_edges():
    # Each label a strand can have: it starts at most one spawn or create edge
    # and ends at most one join or get edge.
    seq = seq_of(sp(1), rt(), sy(), sp(2), rt(), sy(), cr(3, 1), rt(), cr(4, 2), rt(),
                 gt(1), cr(5, 3), rt(), gt(2), sp(6), rt(), sy(), gt(3))
    lines = oracle.to_dot(oracle.build(seq)).splitlines()
    kinds = ["spawn", "regular", "regular", "spawn/sync", "regular", "regular", "creator/sync",
             "regular", "creator", "regular", "regular", "creator/getter", "regular",
             "regular", "getter/spawn", "regular", "regular", "sync", "getter"]
    assert lines[1:1 + len(kinds)] == [f'  n{s} [label="{s} {kind}"];'
                                       for s, kind in enumerate(kinds)]
    assert "->" in lines[1 + len(kinds)]  # the edges follow


def test_reaches_refuses_rows_over_the_budget(monkeypatch):
    dag = oracle.build(seq_of(cr(1, 1), rt(), gt(1)))  # 4 strands: rows of up to 2 bytes
    monkeypatch.setattr(oracle, "REACH_BUDGET", 1)
    with pytest.raises(InputError, match="refuses 4 strands.* 2 bytes.* budget of 1 bytes"):
        dag.reaches(0, 3)
    monkeypatch.setattr(oracle, "REACH_BUDGET", 2)
    assert dag.reaches(0, 3)


def test_default_budget_admits_46340_strands():
    assert oracle.REACH_BUDGET == 256 << 20
    assert oracle.REACH_CAP == 46_340
    oracle.check_reach_budget(oracle.REACH_CAP)
    with pytest.raises(InputError):
        oracle.check_reach_budget(oracle.REACH_CAP + 1)
