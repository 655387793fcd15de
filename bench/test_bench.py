"""The benchmark's own tests: generator, metric names, checks, hang guard, smoke runs.

    python3 -m pytest bench -q

Smoke runs use ``--size tiny`` so each workload finishes in a few seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _generate_in_subprocess(out: Path, seed: int, hash_seed: str) -> dict[str, bytes]:
    code = "import sys, generate; generate.generate(sys.argv[1], int(sys.argv[2]))"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run([sys.executable, "-c", code, str(out), str(seed)], cwd=BENCH, env=env,
                   check=True, timeout=60)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_generator_is_byte_identical_per_seed_and_differs_across_seeds(tmp_path):
    first = _generate_in_subprocess(tmp_path / "a", 7, "1")
    again = _generate_in_subprocess(tmp_path / "b", 7, "2")
    other = _generate_in_subprocess(tmp_path / "c", 8, "1")
    assert first == again
    assert set(first) == set(other)
    assert all(first[name] != other[name] for name in first)


def test_generator_emits_the_ufet_label_space(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import entail_typing as et

    paths = generate.generate(tmp_path, 3)
    vocab = et.load_vocabulary(paths["ufet_vocab"], paths["ufet_tiers"])
    assert len(vocab) == 10331
    sizes = {tier.value: len(vocab.tier_members(tier)) for tier in et.Tier}
    assert sizes == {"general": 9, "fine": 121, "ultrafine": 10201, "unspecified": 0}
    assert sum("_" in raw for raw in vocab.sorted_raws) > 1000
    test = et.load_ufet_jsonl(paths["ufet_test"], "test")
    assert {len(i.gold_labels) for i in test} <= {1, 2, 3, 4, 5}
    assert all(raw in vocab for i in test for raw in i.gold_labels)
    fine = et.load_vocabulary(paths["fine_vocab"])
    assert len(fine) == 110 and fine.has_ontology


def test_metric_names_are_well_formed_and_match_the_code():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += WORKLOADS
    assert all(pattern.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    layers = list(Tracer().layer_metrics(1, 1)) + ["trace.overhead_frac"]
    assert [m["name"] for m in SPEC["per_layer"]] == layers
    setup = [{"e": "setup", "s": 0.1, "traced": False, "span": [0.0, 0.1]}]
    job = [{"e": "job", "job": 0, "traced": False, "pairs": 10, "pass_s": 1.0, "job_s": 1.0,
            "wall_s": 1.0, "pass_span": [0.1, 1.1], "job_span": [0.1, 1.1]}]
    mention = [{"e": "mention", "job": 0, "ms": 5.0, "pairs": 10, "traced": False,
                "span": [0.1, 0.105]}]
    _, _, metrics, _ = run.summarize(
        setup + job + mention + [{"e": "rss", "mb": 50.0}, {"e": "done"}], False, None)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_times_are_scaled_by_the_probes_around_them():
    ref = speed.REFERENCE_MS
    probes = [{"e": "speed", "ms": ms, "t": t}
              for t, ms in ((0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, 4 * ref))]
    factor = speed.scaler(probes)
    assert factor([0.2, 0.8]) == pytest.approx(2 / 3)   # probes at 0 and 1
    assert factor([1.2, 2.8]) == pytest.approx(3 / 8)   # probes at 1, 2 and 3
    assert factor([3.5, 4.0]) == pytest.approx(1 / 4)   # only the probe before
    assert speed.scaler([])([0.0, 1.0]) == 1.0
    setups = [{"e": "setup", "s": 0.5, "traced": False, "span": [0.2, 0.7]}]
    mention = [{"e": "mention", "job": 0, "ms": 400.0, "pairs": 10, "traced": False,
                "span": [1.2, 1.6]}]
    job = [{"e": "job", "job": 0, "traced": False, "pairs": 10, "pass_s": 0.5, "job_s": 0.3,
            "wall_s": 0.9, "pass_span": [1.2, 1.7], "job_span": [0.3, 0.6]}]
    _, _, metrics, _ = run.summarize(probes + setups + mention + job + [{"e": "done"}],
                                     False, None)
    assert metrics["setup_s"] == pytest.approx(0.5 * 2 / 3)
    assert metrics["mention_ms_p50"] == pytest.approx(400.0 / 2)   # probes at 1 and 2
    # The pass: its mention scaled on its own, the other 0.1 s by the pass's span.
    assert metrics["pairs_per_s"] == pytest.approx(10 / (0.4 / 2 + 0.1 / 2))
    # The job's own step is scaled over the whole job, 0.3 s to 1.7 s.
    assert metrics["job_s"] == pytest.approx(0.3 / (5 / 3))
    assert 0 < speed.probe() < 1000


def test_a_wrong_score_fails_the_checks_and_counts_as_failed():
    sys.path.insert(0, str(ROOT / "src"))
    import entail_typing as et

    oracles = checks.load_oracles(ROOT)
    instance = et.MentionInstance(
        id="t-0", left_tokens=("the", "tall"), mention="Kavo", right_tokens=("drummer", "."),
        gold_labels=frozenset({"drummer"}), extras={})
    vocab = et.LabelVocabulary.from_raws(["drummer", "bass_drummer", "pilot"])
    ranking = et.rank_all_candidates(instance, vocab, et.OverlapScorer(), et.TemplateKind.TAXONOMIC)
    pred = et.predict(ranking, et.PredictionConfig(threshold=0.8))
    scores = {s.label.raw: s.score for s in ranking}
    top = [s.label.raw for s in ranking]
    assert checks.check_ranking(oracles, scores, top, pred.chosen, 0.8) == []
    assert checks.check_overlap_scores(oracles, instance, scores, "taxonomic") == []

    wrong = dict(scores, pilot=0.9)
    assert checks.check_overlap_scores(oracles, instance, wrong, "taxonomic")
    assert checks.check_ranking(oracles, wrong, top, pred.chosen, 0.8)

    events = [{"e": "check", "what": "overlap", "ok": False, "detail": ["wrong"]},
              {"e": "check", "what": "ranking", "ok": True, "detail": []}, {"e": "done"}]
    attempted, failed, _, _ = run.summarize(events, True, None)
    assert (attempted, failed) == (2, 1)


def test_a_stalled_worker_and_its_children_are_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STALL_S", 1.0)
    code = ("import subprocess, sys, time; "
            "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
            "time.sleep(60)")
    proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True)
    started = time.monotonic()
    problem = run.watch(proc, tmp_path / "events.jsonl", 30.0)
    assert problem is not None and "no progress" in problem
    assert time.monotonic() - started < 20
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    attempted, failed, _, notes = run.summarize([], False, problem)
    assert failed == attempted == 1 and problem in notes


def test_without_the_program_the_benchmark_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def _smoke(workload: str, trace: int, hash_seed: str) -> tuple[dict, str]:
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    plain, digest = _smoke(workload, 0, "1")
    traced, traced_digest = _smoke(workload, 1, "2")
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, result
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert digest == traced_digest
