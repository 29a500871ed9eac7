import hashlib
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


# The command line refuses these values before a generator sees them, so the
# library's own checks are tested here.
@pytest.mark.parametrize("call", [
    lambda: gen_lcs_structured(0),
    lambda: gen_lcs_general(0),
    lambda: gen_random(p_get=1.5),
    lambda: gen_random(p_spawn=-0.1),
])
def test_generators_refuse_bad_arguments(call):
    with pytest.raises(UsageError):
        call()


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


# sha256 of serialize(...) per generator call: a refactor of the generators
# must leave every trace byte-identical. The random recipes are the
# benchmark's fork-join and futures-mixed shapes (scaled down) and the defaults.
_RANDOM_RECIPES = {
    "fork-join": dict(n_events=20_000, p_spawn=0.15, p_create=0.0, p_get=0.0),
    "futures-mixed": dict(n_events=15_000, p_spawn=0.15, p_create=0.03, p_get=0.04),
    "defaults": {},
}
_DIGESTS = [
    ("fork-join", 1, False, "43114e962e9518f266acb181538b47e3d432abe5cb933e9ffe10b0f285985fa8"),
    ("fork-join", 1, True, "713660e284fa784e843e58c7188799148551cf8c9ebfcb4d17eb272ee5e9a92c"),
    ("fork-join", 7, False, "a196446db35fbf85407f7f43425edcfca5b09000d2bf3b9c601dfdea03c5b320"),
    ("fork-join", 7, True, "952f4f2d5ec84dc4d10c7a5f92fbe27e8be3c07ad4af07092b01c2cd1fb9366f"),
    ("futures-mixed", 1, False, "7d72349c4aedd3a438620950076a1bf184e1c432d430f9fa4496deb02c51a6af"),
    ("futures-mixed", 1, True, "6be70c21cb9ed9ffaa6bea7804f67e360b27a21c399d7f905bf39f9ba9350e86"),
    ("futures-mixed", 7, False, "d309c070113a924c904e58b5602ecbdb0d3409dcfaced8945bca6d1e23c8b82a"),
    ("futures-mixed", 7, True, "f54a45408ade08e67cad44de7f7533e04700238e569416db3bb37f7ba0e712b9"),
    ("defaults", 1, False, "ad368e54522c204fdbecfcbc78f77540550e9396cdaa5637dffe0ef63592b32c"),
    ("defaults", 1, True, "0acf3f5a2d29539f6205a6b1afc4b1d1aec9a192da64ffed87335d0db2f779fc"),
    ("defaults", 7, False, "31dc2cb7f258af46fc310a192575e41c04f11d3344fc3c03ccea88fb1f75d11e"),
    ("defaults", 7, True, "24db534723e43cc0e94e8a1e6a0566c1a24210d103d39a2e0be663410c52d9e8"),
    ("lcs-structured", 4, False, "8f7f23c2cffc7b0bfd076bdd2a6835280482a737cf1abf993be05a92478b420f"),
    ("lcs-structured", 4, True, "bed5b421e51af1746864a2fb784ea06116e34cc8fd49780dbd3d59b8cd258d7e"),
    ("lcs-structured", 9, True, "4dc41eab1a695e9d6ad457f653068d7d608bed36e995bd85bf2cd0acecb2ccf1"),
    ("lcs-general", 4, False, "c2cdbbc4714d732da2218e2142a317c22e06cf1c4c5b6f500b3d304cce4b3c27"),
    ("lcs-general", 4, True, "50bdd3770686ed3b57a70779f4464af8618de754b7d892123068cf3f119dfa5f"),
    ("lcs-general", 9, True, "9df39518c758d3c1ad3c6538f05814428b45e0d8ec4d9bf7d1303771198a3e73"),
    # The smallest grids, where the first and last row and column coincide.
    ("lcs-structured", 1, False, "956ca7829f5f9d0ccf045fe542ca78c15a5825ee866efce47e4b46caad188ea0"),
    ("lcs-structured", 2, False, "9ce33a8e8cf7123a63fc00f4b62419bd7c5b376e0e8926f3c526d49dbb152d94"),
    ("lcs-structured", 2, True, "7a683f0dffc254f998abafb7661d100769819619ef5ff9a697bbcf09e9e7ee57"),
    ("lcs-structured", 3, False, "5e46878a35925249d3482f82b03ddedc6385975da454e6afb917bebae1f678ef"),
    ("lcs-structured", 3, True, "052a33fd7c01999744593178f9a8aecd0db1036eb8e42375eca1cd70cad384a0"),
    ("lcs-general", 1, False, "956ca7829f5f9d0ccf045fe542ca78c15a5825ee866efce47e4b46caad188ea0"),
    ("lcs-general", 2, False, "e26e194d1753fcc96d8c546ccdfab7b52e993461b86b814f4e56c24edad36884"),
    ("lcs-general", 2, True, "2d4d24aea49c350ca28eab04e0de5c0ee4fd171b3ac6ebfb93f76ebb42223668"),
    ("lcs-general", 3, False, "5cf5d8aa0bb4b2914eab496bc64aeaa92d515d5cf79ac82e6d7750f51a644684"),
    ("lcs-general", 3, True, "adaa552dc35b4bb290956bc2fefc25ddc0f783a6f2fe1771b8130133ceb25070"),
]


@pytest.mark.parametrize("family,arg,inject,digest", _DIGESTS)
def test_generated_traces_are_pinned(family, arg, inject, digest):
    if family in _RANDOM_RECIPES:
        seq = gen_random(**_RANDOM_RECIPES[family], seed=arg, inject_race=inject)
    else:
        gen = gen_lcs_structured if family == "lcs-structured" else gen_lcs_general
        seq = gen(arg, seed=arg, inject_race=inject)
    assert hashlib.sha256(serialize(seq).encode()).hexdigest() == digest
