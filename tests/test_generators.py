import random

import pytest

from futurerd import engine, oracle
from futurerd.errors import UsageError
from futurerd.generators import WORD, gen_lcs_general, gen_lcs_structured, gen_random
from futurerd.trace import MODE_GENERAL, MODE_STRUCTURED, serialize, validate


def test_lcs_structured_single_block():
    seq = gen_lcs_structured(1)
    c = seq.counts
    assert c.creates == 1 and c.gets == 0
    assert validate(seq, MODE_STRUCTURED).ok


def test_lcs_structured_counts_4x4():
    seq = gen_lcs_structured(4, seed=3)
    c = seq.counts
    assert c.creates == 16
    assert c.gets == 12  # one per block below the first row of the grid
    assert c.strands == 1 + c.creates + c.gets + c.rets
    assert validate(seq, MODE_STRUCTURED).ok


def test_lcs_structured_race_free_small_sizes():
    for n in (1, 2, 3, 4, 5):
        dag = oracle.build(gen_lcs_structured(n, seed=n))
        assert oracle.naive_races(dag) == set(), n


def test_lcs_structured_injected_race_is_exactly_one_pair_at_known_cell():
    n, seed = 4, 11
    seq = gen_lcs_structured(n, seed=seed, inject_race=True)
    races = oracle.naive_races(oracle.build(seq))
    assert len(races) == 1
    # The planted conflict is on the cell of block (0, n-1); recompute its
    # address the way the generator lays cells out.
    base = (1 << 20) + WORD * 256 * random.Random(seed).randrange(64)
    (addr, kind, _, _), = races
    assert addr == base + WORD * (n - 1)
    assert kind == "write-write"


def test_lcs_general_counts():
    seq1 = gen_lcs_general(1)
    assert seq1.counts.creates == 1 and seq1.counts.gets == 0
    seq3 = gen_lcs_general(3, seed=2)
    assert seq3.counts.creates == 9
    assert seq3.counts.gets == 12  # 2*(n-1)*n, both neighbor directions


def test_lcs_general_rejected_by_structured_validation():
    seq = gen_lcs_general(3, seed=1)
    assert validate(seq, MODE_GENERAL).ok
    rep = validate(seq, MODE_STRUCTURED)
    assert rep.violations and all(v.code == "single-touch" for v in rep.violations)


def test_lcs_general_race_free_and_injected():
    for n in (2, 3, 4):
        assert oracle.naive_races(oracle.build(gen_lcs_general(n, seed=n))) == set()
    races = oracle.naive_races(oracle.build(gen_lcs_general(3, seed=9, inject_race=True)))
    assert len(races) == 1


def test_inject_needs_two_blocks():
    with pytest.raises(UsageError):
        gen_lcs_structured(1, inject_race=True)
    with pytest.raises(UsageError):
        gen_lcs_general(1, inject_race=True)


def test_random_pure_fork_join():
    seq = gen_random(n_events=120, p_spawn=0.3, p_create=0.0, p_get=0.0, seed=4)
    c = seq.counts
    assert c.creates == 0 and c.gets == 0 and c.future_ops == 0
    assert c.spawns > 0 and c.spawns == c.syncs
    assert validate(seq, MODE_STRUCTURED).ok


def test_random_same_seed_is_identical():
    a = gen_random(n_events=200, seed=77)
    b = gen_random(n_events=200, seed=77)
    assert serialize(a) == serialize(b)
    assert serialize(a) != serialize(gen_random(n_events=200, seed=78))


def test_random_traces_validate_general():
    for seed in range(100):
        seq = gen_random(
            n_events=40 + 7 * seed,
            p_spawn=0.1 + (seed % 3) * 0.08,
            p_create=(seed % 4) * 0.06,
            p_get=(seed % 5) * 0.04,
            seed=seed,
        )
        assert validate(seq, MODE_GENERAL).ok, seed


def test_random_traces_race_free_without_injection():
    for seed in range(25):
        seq = gen_random(n_events=140, p_spawn=0.15, p_create=0.12, p_get=0.1, seed=seed)
        assert oracle.naive_races(oracle.build(seq)) == set(), seed


def test_random_injection_plants_exactly_one_race():
    for seed in range(25):
        seq = gen_random(n_events=120, p_spawn=0.12, p_create=0.12, p_get=0.08,
                         seed=seed, inject_race=True)
        races = oracle.naive_races(oracle.build(seq))
        assert len(races) == 1, seed
        assert next(iter(races))[1] == "write-read"


def test_random_injection_forced_when_no_opportunity():
    # No children at all in the organic part: the generator must append one.
    seq = gen_random(n_events=30, p_spawn=0.0, p_create=0.0, p_get=0.0,
                     seed=1, inject_race=True)
    races = oracle.naive_races(oracle.build(seq))
    assert len(races) == 1


def test_strand_segmentation_matches_replay():
    from futurerd.multibags_plus import MultiBagsPlus

    for seed in (0, 5, 9):
        seq = gen_random(n_events=150, p_spawn=0.15, p_create=0.1, p_get=0.08, seed=seed)
        replayed = engine.replay(seq, MultiBagsPlus()).strands
        assert replayed == seq.counts.strands == oracle.build(seq).n


def test_addresses_are_word_aligned():
    seq = gen_random(n_events=200, seed=3)
    for ev in seq.events:
        if ev.addr is not None:
            assert ev.addr % WORD == 0
    for ev in gen_lcs_structured(3, seed=1).events:
        if ev.addr is not None:
            assert ev.addr % WORD == 0
