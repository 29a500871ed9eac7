import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futurerd import reachdag
from futurerd.errors import ClosureLimitError, InputError, InvariantError, UsageError
from futurerd.reachdag import ReachDag
from helpers import descendants


def floyd_warshall(n, edges):
    """Independent closure oracle over an edge log."""
    reach = [[False] * n for _ in range(n)]
    for u, v in edges:
        reach[u][v] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return reach


def random_dag_ops(n, n_edges, seed):
    """Random node/edge sequence whose edges respect insertion order."""
    rng = random.Random(seed)
    dag = ReachDag()
    for _ in range(n):
        dag.add_node()
    edges = []
    while len(edges) < n_edges:
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        dag.add_edge(u, v)
        edges.append((u, v))
    return dag, edges


def assert_matches_fw(dag, n, edges):
    fw = floyd_warshall(n, edges)
    for i in range(n):
        for j in range(n):
            assert dag.reach(i, j) == fw[i][j], (i, j)
        assert dag.row(i) == sum(1 << j for j in range(n) if fw[i][j]), i


def windowed_dag_ops(seed, depth=2, close_windows=False):
    """Random dag grown the way ``MultiBagsPlus`` grows its closure.

    Every edge enters the newest node, except the fork->source edges that
    close a window. A window is the nodes created since it opened. Each of
    its two sides starts at a source node: a new node, or the fork of a
    window nested first on that side and promoted there. A fork is an older
    node or one created once both sides are done, so a source's descendants
    can have lower ids than the source or its fork. Every descendant of a
    source lies in the window, whose first node is returned with each source.

    With ``close_windows`` each window is closed by ``close_window`` and
    logged as an edge from its fork to each of its nodes, and some edges join
    two older nodes, so they scan the rows: one in each window with
    probability 1/2, and one after each outermost window.
    """
    rng = random.Random(seed)
    dag = ReachDag()
    edges = []
    bounded = []  # (source, first node of its window) of every fork edge

    def general_edge(lo):
        """An edge between two nodes of ``lo..``, neither the newest, unless
        it would close a cycle."""
        if len(dag) - lo < 3:
            return
        u, x = sorted(rng.sample(range(lo, len(dag) - 1), 2))
        if u not in descendants(edges, [x]):
            dag.add_edge(u, x)
            edges.append((u, x))

    def node(n_preds, lo, hi=None):
        """A new node with up to ``n_preds`` in-edges from nodes ``lo..hi-1``."""
        v = dag.add_node()
        hi = v if hi is None else hi
        for u in sorted({rng.randrange(lo, hi) for _ in range(n_preds)}):
            dag.add_edge(u, v)
            edges.append((u, v))
        return v

    def window(level):
        """Open a window, close it with its fork edges; (fork, join)."""
        lo = len(dag)
        sources, sinks = [], []
        for _ in range(2):
            src = None
            if level and rng.random() < 0.4:
                fork, last = window(level - 1)
                if fork >= lo:
                    src = fork  # promoted above the nested window's nodes
            if src is None:
                src = last = node(1, 0, lo)
            for _ in range(rng.randrange(4)):
                if level and rng.random() < 0.4:
                    last = window(level - 1)[1]
                else:
                    last = node(rng.randrange(1, 3), src)
            sources.append(src)
            sinks.append(last)
        if close_windows and rng.random() < 0.5:
            general_edge(lo)
        # an older fork, or one promoted now, above its window's nodes
        fork = rng.randrange(lo) if rng.random() < 0.3 else node(1, 0, lo)
        if close_windows:
            dag.close_window(fork, lo)
            edges.extend((fork, j) for j in range(lo, len(dag)) if j != fork)
        else:
            for src in sources:
                dag.add_edge(fork, src)
                edges.append((fork, src))
        bounded.extend((src, lo) for src in sources)
        join = dag.add_node()
        for u in sorted(set(sinks)):
            dag.add_edge(u, join)
            edges.append((u, join))
        return fork, join

    dag.add_node()
    for _ in range(rng.randrange(1, 4)):
        window(depth)
        if close_windows:
            general_edge(0)
    return dag, edges, bounded


def test_node_indices_are_dense():
    dag = ReachDag()
    assert dag.add_node() == 0
    assert [dag.add_node() for _ in range(4)] == [1, 2, 3, 4]


def test_fresh_node_reaches_nothing():
    dag = ReachDag()
    u = dag.add_node()
    v = dag.add_node()
    assert not dag.reach(u, v) and not dag.reach(v, u)
    assert not dag.reach(u, u)  # strict


def test_single_edge_and_chain():
    dag = ReachDag()
    a, b, c = (dag.add_node() for _ in range(3))
    dag.add_edge(a, b)
    assert dag.reach(a, b) and not dag.reach(b, a)
    dag.add_edge(b, c)
    assert dag.reach(a, c)


def test_diamond_matches_floyd_warshall():
    dag = ReachDag()
    a, b, c, d = (dag.add_node() for _ in range(4))
    edges = [(a, b), (a, c), (b, d), (c, d)]
    for u, v in edges:
        dag.add_edge(u, v)
    assert dag.reach(a, d)
    assert_matches_fw(dag, 4, edges)


def test_random_12_nodes_20_edges_matches_floyd_warshall():
    dag, edges = random_dag_ops(12, 20, seed=5)
    assert_matches_fw(dag, 12, edges)


def test_rows_grow_monotonically():
    dag, _ = random_dag_ops(10, 0, seed=1)
    rng = random.Random(2)
    prev = [dag.row(i) for i in range(10)]
    for _ in range(15):
        u = rng.randrange(9)
        v = rng.randrange(u + 1, 10)
        dag.add_edge(u, v)
        cur = [dag.row(i) for i in range(10)]
        assert all(c & p == p for p, c in zip(prev, cur))
        prev = cur


def test_self_edge_and_cycle_are_internal_errors():
    dag = ReachDag()
    a, b = dag.add_node(), dag.add_node()
    with pytest.raises(InvariantError):
        dag.add_edge(a, a)
    dag.add_edge(a, b)
    with pytest.raises(InvariantError):
        dag.add_edge(b, a)


def test_unknown_node_is_usage_error():
    dag = ReachDag()
    dag.add_node()
    with pytest.raises(UsageError):
        dag.reach(0, 3)
    with pytest.raises(UsageError):
        dag.add_edge(0, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31))
def test_closure_property(n, seed):
    dag, edges = random_dag_ops(n, min(2 * n, n * (n - 1) // 2), seed)
    assert_matches_fw(dag, n, edges)


# -- edges that do not enter the newest node ------------------------------------


def test_promoted_fork_above_its_descendants_matches_floyd_warshall():
    # Sources and their bodies come first; the fork is promoted to the newest
    # node and only then wired to the sources, so its descendants have lower
    # ids. The join then takes edges from both sinks.
    dag = ReachDag()
    pred, s1, s2 = (dag.add_node() for _ in range(3))
    edges = [(pred, s1), (pred, s2)]
    x = dag.add_node()
    edges.append((s1, x))
    y = dag.add_node()
    edges.append((s2, y))
    for u, v in edges:
        dag.add_edge(u, v)
    fork = dag.add_node()
    dag.add_edge(pred, fork)
    dag.add_edge(fork, s1)
    dag.add_edge(fork, s2)
    join = dag.add_node()
    dag.add_edge(x, join)
    dag.add_edge(y, join)
    edges += [(pred, fork), (fork, s1), (fork, s2), (x, join), (y, join)]
    assert dag.reach(fork, x) and dag.reach(fork, join) and x < fork
    assert not dag.reach(s1, y) and not dag.reach(fork, pred)
    assert_matches_fw(dag, len(dag), edges)


def test_edge_already_implied_is_a_no_op():
    dag = ReachDag()
    p, x, f = (dag.add_node() for _ in range(3))
    dag.add_edge(p, f)
    dag.add_edge(f, x)  # x, a descendant of f, has a lower id than f
    dag.add_edge(p, x)  # p already reaches x through f
    rows = [dag.row(i) for i in range(3)]
    # p already reaches f, so the edge returns before any scan
    dag.add_edge(p, f)
    assert [dag.row(i) for i in range(3)] == rows
    assert_matches_fw(dag, 3, [(p, f), (f, x), (p, x)])


def test_bounded_scan_matches_floyd_warshall():
    out_of_order = 0
    for seed in range(60):
        dag, edges, bounded = windowed_dag_ops(seed)
        n = len(dag)
        assert_matches_fw(dag, n, edges)
        fw = floyd_warshall(n, edges)
        for dst, lo in bounded:
            assert all(j >= lo for j in range(n) if fw[dst][j]), (seed, dst, lo)
        out_of_order += sum(fw[u][v] and v < u for u in range(n) for v in range(n))
    assert out_of_order > 0  # the corpus does wire nodes to lower-id descendants


def test_close_window_bound_must_admit_the_fork():
    dag = ReachDag()
    a, b, c = (dag.add_node() for _ in range(3))
    # the fork must be a known node, below the window or the newest node
    for fork, lo in [(3, 0), (-1, 0), (a, -1), (a, 4), (b, 0), (b, b), (c, -1)]:
        with pytest.raises(UsageError):
            dag.close_window(fork, lo)
    assert [dag.row(i) for i in range(3)] == [0, 0, 0]
    dag.close_window(a, 3)  # empty windows are accepted
    dag.close_window(c, c)
    assert [dag.row(i) for i in range(3)] == [0, 0, 0]
    dag.close_window(a, b)
    assert dag.reach(a, b) and dag.reach(a, c) and not dag.reach(b, c)
    dag = ReachDag()
    p, x, y, f = (dag.add_node() for _ in range(4))
    dag.close_window(f, x)  # a newest fork above its window
    assert dag.reach(f, x) and dag.reach(f, y) and not dag.reach(f, f)
    dag.add_edge(p, f)  # the fork has out-edges now, so its window learns p too
    assert dag.reach(p, x) and dag.reach(p, y)


def test_closed_windows_match_floyd_warshall(monkeypatch):
    # Each closed window is logged as an edge from its fork to each of its
    # nodes, so Floyd-Warshall checks the owed bits, through every reach pair
    # and every row.
    windows, edges_in = [], []
    close, add_edge = ReachDag.close_window, ReachDag.add_edge

    def close_spy(dag, fork, lo):
        windows.append((fork, lo, len(dag)))
        close(dag, fork, lo)

    def edge_spy(dag, src, dst):
        edges_in.append((dag._win[src] >= 0, dst == len(dag) - 1))
        add_edge(dag, src, dst)

    monkeypatch.setattr(ReachDag, "close_window", close_spy)
    monkeypatch.setattr(ReachDag, "add_edge", edge_spy)
    deep = 0
    for seed in range(80):
        windows.clear()
        dag, edges, _ = windowed_dag_ops(seed, close_windows=True)
        n = len(dag)
        assert_matches_fw(dag, n, edges)
        deep += sum(sum(lo <= d < hi and d != fork for fork, lo, hi in windows) >= 3
                    for d in range(n))
    assert any(fork >= lo for fork, lo, _ in windows)  # promoted forks
    assert any(fork < lo for fork, lo, _ in windows)  # older forks
    assert any(newest for in_window, newest in edges_in if in_window)  # edges out of windows
    assert sum(not newest for _, newest in edges_in) > 20  # edges that scan the rows
    assert deep > 100  # nodes in three closed windows or more


def test_close_window_rejects_a_cycle():
    dag = ReachDag()
    a, b, c = (dag.add_node() for _ in range(3))
    dag.add_edge(b, c)
    with pytest.raises(InvariantError, match="cycle"):
        dag.close_window(c, a)  # b, in the window, reaches the newest fork
    dag.add_edge(b, a)
    with pytest.raises(InvariantError, match="cycle"):
        dag.close_window(a, b)  # b reaches the older fork a


def test_close_window_rejects_windows_that_do_not_nest():
    dag = ReachDag()
    for _ in range(4):
        dag.add_node()
    dag.close_window(0, 2)  # window 2..3
    with pytest.raises(InvariantError, match="nest"):
        dag.close_window(3, 1)  # 1..2 would leave out its fork 3, a node of 2..3
    dag.add_node()
    with pytest.raises(InvariantError, match="nest"):
        dag.close_window(1, 3)  # 3..4 would share node 3 with 2..3
    dag.close_window(1, 2)  # 2..4 holds 2..3
    dag.close_window(0, 1)  # 1..4 holds 2..4
    dag.add_node()
    with pytest.raises(InvariantError, match="nest"):
        dag.close_window(5, 2)  # 2..4 inside the closed 1..4: windows close inside out
    assert_matches_fw(dag, 6, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4),
                               (0, 1), (0, 2), (0, 3), (0, 4)])


# -- closure-memory guard ---------------------------------------------------------


def test_add_node_refuses_to_grow_past_the_limit(monkeypatch):
    monkeypatch.setattr(reachdag, "MAX_NODES", 3)
    dag = ReachDag()
    assert [dag.add_node() for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ClosureLimitError, match="4 attached sets") as info:
        dag.add_node()
    assert isinstance(info.value, InputError)
    assert info.value.attached_sets == 4
    assert len(dag) == 3


def test_default_limit_is_two_to_the_seventeen():
    assert reachdag.MAX_NODES == 1 << 17


def test_edge_into_newest_node_that_has_descendants():
    # The newest node already reaches an older one, so an edge into it is not
    # a single OR: the older descendant must learn the new ancestor too.
    dag = ReachDag()
    w, x, y = (dag.add_node() for _ in range(3))
    dag.add_edge(y, x)
    dag.add_edge(w, y)
    assert dag.reach(w, x)
    assert_matches_fw(dag, 3, [(y, x), (w, y)])
