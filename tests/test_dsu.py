import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futurerd.dsu import LABEL_P, LABEL_S, DisjointSets
from futurerd.errors import UsageError
from futurerd.multibags_plus import NspRecord


def test_singleton_identity():
    d = DisjointSets()
    a = d.make_set(LABEL_S)
    assert d.find(a) == a
    assert d.record(a) == LABEL_S


def test_make_sets_are_distinct():
    d = DisjointSets()
    a = d.make_set(object())
    b = d.make_set(object())
    assert a != b
    assert d.find(a) != d.find(b)


def test_union_keeps_target_record_and_destroys_source():
    d = DisjointSets()
    a = d.make_set(LABEL_S)
    b = d.make_set(LABEL_P)
    survivor = d.union_into(a, b)
    assert survivor == a
    assert d.record(a) == LABEL_S
    assert d.find(b) == a  # element b now finds to a
    assert not d.is_live(b)
    with pytest.raises(UsageError):
        d.record(b)


def test_union_chain_find():
    d = DisjointSets()
    a = d.make_set(object())
    b = d.make_set(object())
    c = d.make_set(object())
    d.union_into(a, b)
    d.union_into(a, c)
    assert d.find(b) == a
    assert d.find(c) == a


def test_n_minus_one_unions_leave_one_live_set():
    d = DisjointSets()
    sids = [d.make_set(object()) for _ in range(40)]
    for s in sids[1:]:
        d.union_into(sids[0], s)
    assert len(d) == 1
    assert all(d.find(s) == sids[0] for s in sids)
    assert d.make_count - d.union_count == 1


def test_a_set_whose_root_went_under_the_absorbed_sets_root_keeps_its_id():
    d = DisjointSets()
    a, b, c = d.make_set(LABEL_S), d.make_set(LABEL_P), d.make_set(LABEL_P)
    d.union_into(b, c)  # b's tree now outranks a's
    assert d.union_into(a, b) == a
    assert d._parent[a] == b  # a's root went under the absorbed set's root
    finds = d.find_count
    e = d.add_element(a)
    f = d.make_set(LABEL_P)
    assert d.union_into(a, f) == a
    assert d.find_count == finds  # the updates count no find
    assert [d.find(x) for x in (a, b, c, e, f)] == [a] * 5
    assert d.find_count == finds + 5
    assert d.record(a) == LABEL_S and len(d) == 1
    assert (d.make_count, d.union_count) == (5, 4)


def test_relabel_and_attach_meta_roundtrip():
    d = DisjointSets()
    a = d.make_set(LABEL_S)
    d.relabel(a, LABEL_P)
    assert d.record(d.find(a)) == LABEL_P
    d.relabel(a, LABEL_S)
    assert d.record(a) == LABEL_S
    n = d.make_set(NspRecord())
    d.record(n).att_succ = 7
    assert d.record(n).att_succ == 7


def test_usage_errors():
    d = DisjointSets()
    a = d.make_set(object())
    with pytest.raises(UsageError):
        d.find(99)
    with pytest.raises(UsageError):
        d.union_into(a, a)
    b = d.make_set(object())
    d.union_into(a, b)
    with pytest.raises(UsageError):
        d.union_into(a, b)  # b is dead
    with pytest.raises(UsageError):
        d.relabel(b, LABEL_S)
    with pytest.raises(UsageError, match="unknown or destroyed set 1"):
        d.add_element(b)
    with pytest.raises(UsageError, match="unknown or destroyed set 99"):
        d.record(99)


class _NaiveSets:
    """Reference implementation: explicit membership maps, no path tricks."""

    def __init__(self):
        self.set_of = {}
        self.members = {}
        self.records = {}

    def make_set(self, record):
        sid = len(self.set_of)
        self.set_of[sid] = sid
        self.members[sid] = [sid]
        self.records[sid] = record
        return sid

    def find(self, e):
        return self.set_of[e]

    def union_into(self, a, b):
        for e in self.members[b]:
            self.set_of[e] = a
        self.members[a].extend(self.members[b])
        del self.members[b]
        del self.records[b]
        return a


def test_find_record_is_record_of_find_and_counts_one_find():
    rng = random.Random(7)
    d = DisjointSets()
    live = [d.make_set(object()) for _ in range(40)]
    for _ in range(30):
        a, b = rng.sample(live, 2)
        d.union_into(a, b)
        live.remove(b)
    for _ in range(20):
        d.add_element(rng.choice(live))
    for e in rng.sample(range(60), 60):
        before = d.find_count
        rec = d.find_record(e)
        assert d.find_count == before + 1
        assert rec is d.record(d.find(e))
    with pytest.raises(UsageError):
        d.find_record(60)
    with pytest.raises(UsageError):
        d.find_record(-1)


def _run_random_ops(n_ops, seed):
    rng = random.Random(seed)
    real, naive = DisjointSets(), _NaiveSets()
    live = []
    for _ in range(n_ops):
        op = rng.random()
        if op < 0.3 or len(live) < 2:
            rec = object()
            a = real.make_set(rec)
            b = naive.make_set(rec)
            assert a == b
            live.append(a)
        elif op < 0.45:
            a = rng.choice(live)
            makes, unions = real.make_count, real.union_count
            e = real.add_element(a)
            assert e == naive.make_set(None)
            naive.union_into(a, e)
            assert (real.make_count, real.union_count) == (makes + 1, unions + 1)
        elif op < 0.8:
            a, b = rng.sample(live, 2)
            real.union_into(a, b)
            naive.union_into(a, b)
            live.remove(b)
        else:
            e = rng.randrange(len(naive.set_of))
            got = real.find(e)
            assert got == naive.find(e)
            assert real.record(got) is naive.records[got]
    # physical link direction never leaks into logical answers
    for e in range(len(naive.set_of)):
        assert real.find(e) == naive.find(e)


def test_matches_naive_reference_on_long_sequence():
    _run_random_ops(12_000, seed=20240817)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_matches_naive_reference_property(seed):
    _run_random_ops(300, seed)
