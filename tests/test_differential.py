"""Differential property test: ``detect`` against ``verify`` and the two
algorithms against each other, on drawn random traces.

``verify`` checks every reachability answer against the brute-force dag and
the race reports against the shadow's race contract, so ``detect`` agreeing
with ``verify``'s own report list ties ``detect`` to the dag as well.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from futurerd import engine
from futurerd.generators import gen_random
from futurerd.trace import MODE_STRUCTURED, validate
from helpers import desugar_spawns, fold_words


@st.composite
def traces(draw):
    """(trace, structured) drawn from gen_random.

    A structured trace is fork-join only, and may have its spawns rewritten
    as single-touch futures. Folding maps the addresses onto a few words, so
    words are written many times.
    """
    shape = draw(st.sampled_from(["general", "fork-join", "desugared"]))
    p_spawn = draw(st.floats(0.05, 0.3))
    if shape == "general":
        p_create = draw(st.floats(0.0, 0.25))
        p_get = draw(st.floats(0.0, 0.3))
    else:
        p_create = p_get = 0.0
    seed = draw(st.integers(0, 10**6))
    seq = gen_random(n_events=draw(st.integers(10, 300)), p_spawn=p_spawn,
                     p_create=p_create, p_get=p_get, seed=seed,
                     inject_race=draw(st.booleans()))
    if shape == "desugared":
        seq = desugar_spawns(seq)
    if draw(st.booleans()):
        seq = fold_words(seq, draw(st.integers(1, 6)), seed)
    return seq, shape != "general"


def _keys(report):
    keys = [r.key() for r in report.races]
    assert len(keys) == len(set(keys))
    return set(keys)


@settings(max_examples=150, deadline=None)
@given(traces())
def test_detect_matches_verify_and_the_algorithms_agree(drawn):
    seq, structured = drawn
    checked = engine.verify(seq, "plus")
    assert checked.ok, (checked.divergence, checked.unsound_races, checked.missed_words)
    plus = engine.detect(seq, "plus", "general")
    assert _keys(plus) == checked.detector_races
    if structured:
        assert validate(seq, MODE_STRUCTURED).ok
        checked = engine.verify(seq, "multibags")
        assert checked.ok, (checked.divergence, checked.unsound_races, checked.missed_words)
        multibags = engine.detect(seq, "multibags", "structured")
        assert _keys(multibags) == checked.detector_races
        assert [r.key() for r in multibags.races] == [r.key() for r in plus.races]
        assert multibags.stats.queries == plus.stats.queries
