import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futurerd import reachdag
from futurerd.errors import ClosureLimitError, InputError, InvariantError, UsageError
from futurerd.reachdag import ReachDag


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


def dag_from_edges(n, edges):
    """``n`` nodes and ``edges`` from lower to higher ids, each edge added
    while its destination is the newest node."""
    dag = ReachDag()
    for v in range(n):
        dag.add_node()
        for u, w in edges:
            if w == v:
                dag.add_edge(u, v)
    return dag


def random_dag_ops(n, n_edges, seed):
    """Random dag of ``n`` nodes and ``n_edges`` edges from lower to higher ids."""
    rng = random.Random(seed)
    edges = []
    while len(edges) < n_edges:
        u = rng.randrange(n - 1)
        edges.append((u, rng.randrange(u + 1, n)))
    return dag_from_edges(n, edges), edges


def assert_matches_fw(dag, n, edges):
    fw = floyd_warshall(n, edges)
    for i in range(n):
        for j in range(n):
            assert dag.reach(i, j) == fw[i][j], (i, j)
        assert dag.row(i) == sum(1 << j for j in range(n) if fw[i][j]), i


def windowed_dag_ops(seed, depth=2):
    """Random dag grown the way ``MultiBagsPlus`` grows its closure.

    Every edge enters the newest node, and ``close_window`` stands for the
    fork->source edges. A window is the nodes created since it opened. Each
    of its two sides starts at a source node: a new node, or the fork of a
    window nested first on that side and promoted there. A fork is an older
    node or one created once both sides are done, so a source's descendants
    can have lower ids than the source or its fork. Each closed window is
    logged as an edge from its fork to each of its nodes.
    """
    rng = random.Random(seed)
    dag = ReachDag()
    edges = []

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
        sinks = []
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
            sinks.append(last)
        # an older fork, or one promoted now, above its window's nodes
        fork = rng.randrange(lo) if rng.random() < 0.3 else node(1, 0, lo)
        dag.close_window(fork, lo)
        edges.extend((fork, j) for j in range(lo, len(dag)) if j != fork)
        join = dag.add_node()
        for u in sorted(set(sinks)):
            dag.add_edge(u, join)
            edges.append((u, join))
        return fork, join

    dag.add_node()
    for _ in range(rng.randrange(1, 4)):
        window(depth)
    return dag, edges


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
    a, b = dag.add_node(), dag.add_node()
    dag.add_edge(a, b)
    assert dag.reach(a, b) and not dag.reach(b, a)
    c = dag.add_node()
    dag.add_edge(b, c)
    assert dag.reach(a, c)


def test_diamond_matches_floyd_warshall():
    a, b, c, d = range(4)
    edges = [(a, b), (a, c), (b, d), (c, d)]
    dag = dag_from_edges(4, edges)
    assert dag.reach(a, d)
    assert_matches_fw(dag, 4, edges)


def test_random_12_nodes_20_edges_matches_floyd_warshall():
    dag, edges = random_dag_ops(12, 20, seed=5)
    assert_matches_fw(dag, 12, edges)


def test_rows_grow_monotonically(monkeypatch):
    # Every edge and every closed window, nested ones included, only adds
    # bits to the rows.
    grew = 0

    def checked(op):
        def spy(dag, *args):
            nonlocal grew
            prev = [dag.row(i) for i in range(len(dag))]
            op(dag, *args)
            cur = [dag.row(i) for i in range(len(dag))]
            assert all(c & p == p for p, c in zip(prev, cur))
            grew += cur != prev
        return spy

    monkeypatch.setattr(ReachDag, "add_edge", checked(ReachDag.add_edge))
    monkeypatch.setattr(ReachDag, "close_window", checked(ReachDag.close_window))
    for seed in range(4):
        windowed_dag_ops(seed)
    assert grew > 200


def test_refused_edges_raise_and_change_no_row():
    # Only an older node may enter the newest one, and only until the newest
    # node forks a closed window.
    dag = ReachDag()
    a, b = dag.add_node(), dag.add_node()
    dag.add_edge(a, b)
    c = dag.add_node()
    dag.add_edge(b, c)
    f = dag.add_node()

    def refused(src, dst):
        rows = [dag.row(i) for i in range(len(dag))]
        with pytest.raises(UsageError):
            dag.add_edge(src, dst)
        assert [dag.row(i) for i in range(len(dag))] == rows

    refused(f, f)  # a self edge
    refused(a, c)  # into an older node
    refused(c, b)  # into an older node, closing a cycle
    refused(f, a)  # out of the newest node
    refused(4, f)  # from an unknown node
    refused(-1, f)
    dag.close_window(f, b)  # a newest fork above its window b..c
    refused(a, f)
    g = dag.add_node()
    dag.add_edge(f, g)
    assert_matches_fw(dag, 5, [(a, b), (b, c), (f, b), (f, c), (f, g)])


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


# -- closed windows ------------------------------------------------------------


def test_promoted_fork_above_its_descendants_matches_floyd_warshall():
    # Sources and their bodies come first; the fork is promoted to the newest
    # node and only then closes its window, so its descendants have lower
    # ids. The window stands for the edges to the two sources. The join then
    # takes edges from both sinks.
    pred, s1, s2, x, y, fork = range(6)
    edges = [(pred, s1), (pred, s2), (s1, x), (s2, y), (pred, fork)]
    dag = dag_from_edges(6, edges)
    dag.close_window(fork, s1)
    join = dag.add_node()
    dag.add_edge(x, join)
    dag.add_edge(y, join)
    edges += [(fork, s1), (fork, s2), (x, join), (y, join)]
    assert dag.reach(fork, x) and dag.reach(fork, join) and x < fork
    assert not dag.reach(s1, y) and not dag.reach(fork, pred)
    assert_matches_fw(dag, len(dag), edges)


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
    x, y, f = (dag.add_node() for _ in range(3))
    dag.close_window(f, x)  # a newest fork above its window
    assert dag.reach(f, x) and dag.reach(f, y) and not dag.reach(f, f)


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
        edges_in.append(dag._win[src] >= 0)
        add_edge(dag, src, dst)

    monkeypatch.setattr(ReachDag, "close_window", close_spy)
    monkeypatch.setattr(ReachDag, "add_edge", edge_spy)
    deep = promoted = older = 0
    for seed in range(80):
        windows.clear()
        dag, edges = windowed_dag_ops(seed)
        n = len(dag)
        assert_matches_fw(dag, n, edges)
        deep += sum(sum(lo <= d < hi and d != fork for fork, lo, hi in windows) >= 3
                    for d in range(n))
        promoted += sum(fork >= lo for fork, lo, _ in windows)
        older += sum(fork < lo for fork, lo, _ in windows)
    assert promoted > 100 and older > 100
    assert any(edges_in)  # edges out of windows
    assert deep > 100  # nodes in three closed windows or more


def test_close_window_rejects_a_cycle():
    dag = ReachDag()
    a, b, c = (dag.add_node() for _ in range(3))
    dag.add_edge(b, c)
    with pytest.raises(InvariantError, match="cycle"):
        dag.close_window(c, a)  # b, in the window, reaches the newest fork
    dag = ReachDag()
    a, b = dag.add_node(), dag.add_node()
    dag.close_window(b, a)  # the newest fork b reaches a
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
    monkeypatch.setattr(reachdag, "CLOSURE_BUDGET", 1)  # 3 nodes' rows take 3*3//8 bytes
    dag = ReachDag()
    assert [dag.add_node() for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ClosureLimitError, match="4 attached sets") as info:
        dag.add_node()
    assert isinstance(info.value, InputError)
    assert info.value.attached_sets == 4
    assert len(dag) == 3


def test_default_limit_is_two_to_the_seventeen():
    assert reachdag.CLOSURE_BUDGET == 2 << 30
    dag = ReachDag()
    for _ in range(1 << 17):
        dag.add_node()
    with pytest.raises(ClosureLimitError) as info:
        dag.add_node()
    assert str(info.value) == (
        "the closure dag refuses 131073 attached sets: its rows could take "
        "2,147,516,416 bytes, over the budget of 2,147,483,648 bytes")
    assert len(dag) == 1 << 17
