"""Tests of the benchmark's own code: workloads, known answers and tracer.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from futurerd import detect, dump, gen_random, oracle, validate, verify
from futurerd.trace import ACCESS_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _keys(report):
    return [r.key() for r in report.races]


@pytest.fixture(scope="module")
def hot_sparse():
    return workloads.build("hot-sparse", workloads.DEFAULT_SEED)[1]


def test_remap_keeps_alignment_and_structure():
    seq = gen_random(**{**workloads.FJ_RECIPE, "n_events": 20_000}, seed=3, inject_race=True)
    hot = workloads.remap_hot_sparse(seq, 3)
    assert len(hot) == len(seq)
    for a, b in zip(seq.events, hot.events):
        assert a.kind == b.kind and a.fn == b.fn and a.handle == b.handle
    addrs = {ev.addr for ev in hot.events if ev.kind in ACCESS_KINDS}
    assert all(a % 4 == 0 for a in addrs)
    assert len(addrs) <= workloads.HOT_REGIONS * workloads.HOT_WORDS
    assert len({a >> 22 for a in addrs}) == workloads.HOT_REGIONS
    assert validate(hot, "structured").ok
    assert workloads.remap_hot_sparse(seq, 3).events == hot.events


def test_both_algorithms_report_the_recorded_race_list_on_hot_sparse(hot_sparse):
    structured = detect(hot_sparse, "multibags", "structured")
    general = detect(hot_sparse, "plus", "general")
    assert _keys(structured) == _keys(general)
    digest = workloads.race_digest([vars(r) for r in general.races])
    assert digest == workloads.HOT_SPARSE_DIGEST_AT_DEFAULT_SEED


@pytest.mark.parametrize("algo", ["multibags", "plus"])
def test_reduced_hot_sparse_against_the_brute_force_dag(algo):
    # Exact race-set equality does not hold on multi-write traces: the shadow
    # memory keeps one writer per word, so it reports a subset of all racing
    # pairs, on every racy word.
    seq = gen_random(**{**workloads.FJ_RECIPE, "n_events": 12_000}, seed=5, inject_race=True)
    hot = workloads.remap_hot_sparse(seq, 5)
    assert hot.counts.strands < oracle.REACH_CAP
    rep = verify(hot, algo)
    assert rep.divergence is None
    assert rep.detector_races and rep.detector_races <= rep.oracle_races
    assert {r[0] for r in rep.detector_races} == {r[0] for r in rep.oracle_races}


@pytest.mark.parametrize("name", ["fj-structured", "futures-mixed"])
def test_known_answer_is_the_planted_race(name):
    gen_seed, seq = workloads.build(name, workloads.DEFAULT_SEED)
    assert gen_seed == workloads.DEFAULT_SEED
    answer = workloads.known_answer(name, workloads.DEFAULT_SEED, seq)
    assert answer.exit_code == 1 and len(answer.races) == 1
    report = json.loads(detect(seq, workloads.WORKLOADS[name].algo,
                               workloads.WORKLOADS[name].mode).to_json())
    assert workloads.check(answer, 1, report)
    assert not workloads.check(answer, 0, report)
    assert not workloads.check(answer, 1, {"races": []})


def test_build_passes_over_a_seed_whose_generator_lists_blow_up():
    # seed 36 of the futures-mixed recipe takes about a minute and 588 MB unguarded
    gen_seed, seq = workloads.build("futures-mixed", 36)
    assert gen_seed == 36 + workloads.CANDIDATE_STRIDE
    assert seq.events == workloads.build("futures-mixed", 36)[1].events
    assert workloads.build("futures-mixed", 5)[0] == 5


def test_traced_run_matches_untraced_and_self_times_partition_the_run(tmp_path):
    seq = gen_random(n_events=3000, p_spawn=0.15, p_create=0.05, p_get=0.05, seed=2,
                     inject_race=True)
    path = tmp_path / "t.jsonl"
    dump(seq, path)
    t, code, text = tracer.traced_detect(
        ["detect", "--algo", "plus", "--mode", "general", "--trace", str(path), "--json"])
    assert code == 1
    assert json.loads(text) == json.loads(detect(seq, "plus", "general").to_json())
    assert t.self_s("") == pytest.approx(t.total_s("cli.run_cli"), rel=1e-9)
    m = tracer.layer_metrics(t, text)
    assert m["reachdag.add_edge_calls"] > 0
    assert m["engine.races"] == len(json.loads(text)["races"])
    assert {name for name, _ in run.PER_LAYER} == set(m) | {"traced.overhead_s"}
    # the wrappers are gone once the run ends
    from futurerd.shadow import ShadowTable
    assert ShadowTable.on_read.__qualname__ == "ShadowTable.on_read"


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_job_prints_its_checksum_and_imports_no_program_code():
    proc = subprocess.run([sys.executable, "-X", "importtime", str(HERE / "reference.py")],
                          cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == run.REFERENCE_CHECKSUM
    assert "futurerd" not in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "fj-structured",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
