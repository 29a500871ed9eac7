import pytest

from futurerd import engine, oracle
from futurerd.dsu import LABEL_P, LABEL_S
from futurerd.errors import InputError, UsageError
from futurerd.generators import gen_random
from futurerd.multibags import MultiBags
from futurerd.trace import MODE_STRUCTURED, validate
from helpers import (
    cr,
    desugar_spawns,
    gt,
    oracle_answers,
    replay_collect,
    rt,
    seq_of,
    sp,
    sy,
)


def drive(events):
    mb = MultiBags()
    engine.replay(seq_of(*events), mb)
    return mb


def test_child_gets_its_own_s_bag():
    mb = MultiBags()
    seen = {}

    def after(s):
        seen[s] = mb.forest.find(s)

    engine.replay(seq_of(cr(1, 1), rt()), mb, after_strand=after)
    assert seen[1] != seen[0]  # future body bag distinct from root's
    assert mb.forest.record(mb.forest.find(0)) == LABEL_S


def test_creator_precedes_child_body():
    mb = MultiBags()
    answers = replay_collect(seq_of(cr(1, 1), rt()), mb)
    assert 0 in answers[1]


def test_consecutive_strands_share_a_bag_across_sync():
    mb = MultiBags()
    seq = seq_of(sp(1), rt(), sy())
    bags = {}

    def after(s):
        bags[s] = mb.forest.find(s)

    engine.replay(seq, mb, after_strand=after)
    # root strands: 0 (fork), 2 (continuation), 3 (sync node)
    assert bags[0] == mb.forest.find(0) == mb.forest.find(2) == mb.forest.find(3)


def test_returned_future_is_parallel_until_get():
    # 5-strand check against the dag: body is parallel with the continuation,
    # ordered after the join.
    seq = seq_of(cr(1, 1), rt(), gt(1))
    truth = oracle_answers(seq)
    assert truth[2] == {0}  # body (1) not included: parallel
    assert truth[3] == {0, 1, 2}
    mb = MultiBags()
    assert replay_collect(seq, mb) == truth
    # relabeled bag kept its element and is P-labeled before the get
    mb2 = MultiBags()
    engine.replay(seq_of(cr(1, 1), rt()), mb2)
    assert mb2.forest.record(mb2.forest.find(1)) == LABEL_P


def test_get_absorbs_bag_into_frame():
    mb = drive([cr(1, 1), rt(), gt(1)])
    assert mb.forest.find(1) == mb.forest.find(0)
    assert mb.forest.record(mb.forest.find(1)) == LABEL_S


def test_unstructured_get_rejected():
    # A future created inside one sibling and joined from another: the
    # creator strand sits in a P bag at the join.
    events = seq_of(cr(1, 1), cr(2, 2), rt(), rt(), cr(3, 3), gt(2), rt())
    assert validate(events, MODE_STRUCTURED).ok
    mb = MultiBags()
    with pytest.raises(InputError, match="unstructured future use"):
        engine.replay(events, mb)


def test_second_get_is_single_touch_error():
    events = seq_of(cr(1, 1), rt(), gt(1), gt(1))
    mb = MultiBags()
    with pytest.raises(InputError, match="single-touch"):
        engine.replay(events, mb)


def test_duplicate_handle_and_unknown_handle():
    with pytest.raises(InputError, match="duplicate"):
        drive([cr(1, 5), rt(), cr(2, 5), rt()])
    with pytest.raises(InputError, match="unknown handle"):
        drive([gt(9)])


def test_sync_without_child_and_root_return():
    with pytest.raises(InputError):
        drive([sy()])
    with pytest.raises(InputError):
        drive([rt()])


def test_precedes_rejects_unexecuted_strand():
    mb = drive([cr(1, 1), rt()])
    with pytest.raises(UsageError):
        mb.precedes(99)


def test_previous_strand_of_same_function_precedes():
    mb = MultiBags()
    answers = replay_collect(seq_of(cr(1, 1), rt(), cr(2, 2), rt()), mb)
    assert 0 in answers[2] and 2 in answers[4]


def test_matches_oracle_on_random_structured_traces():
    for seed in range(30):
        seq = gen_random(n_events=90, p_spawn=0.22, p_create=0.0, p_get=0.0, seed=seed)
        assert seq.counts.strands <= 100
        mb = MultiBags()
        assert replay_collect(seq, mb) == oracle_answers(seq), seed


def test_sync_equals_explicit_get_desugaring():
    # pure fork-join traces: rewriting spawn/sync into create/get on fresh
    # handles must leave every bag query unchanged.
    for seed in range(12):
        seq = gen_random(n_events=80, p_spawn=0.25, p_create=0.0, p_get=0.0, seed=seed)
        rewritten = desugar_spawns(seq)
        assert rewritten.counts.strands == seq.counts.strands
        a = replay_collect(seq, MultiBags())
        b = replay_collect(rewritten, MultiBags())
        assert a == b, seed


def test_operation_count_linear_in_events():
    seq = gen_random(n_events=4000, p_spawn=0.2, p_create=0.0, p_get=0.0, seed=1)
    mb = MultiBags()
    engine.replay(seq, mb)
    ops = mb.find_ops + mb.union_ops + mb.forest.make_count
    assert ops <= 8 * len(seq)
