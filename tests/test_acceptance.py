"""Release gate: nine end-to-end checks with pinned tolerances.

Each test prints one PASS or FAIL line for its criterion, so the suite
output doubles as the acceptance checklist. Expected values come from the
brute-force references in tests/oracles.py or from committed fixture
files under tests/data/golden/, never from the library itself.

Pinned tolerances:
  criteria 1, 2, 3, 9: exact (byte or float equality, no tolerance)
  criteria 4, 5:       1e-12 absolute on every metric
  criterion 6:         heldout count within one label of the target
  criterion 7:         exact nesting and exact grid argmax
  criterion 8:         byte equality, 30 s wall-clock budget
"""

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import entail_typing as et
from entail_typing.cli import main as cli_main

from conftest import mk_instance, read_jsonl
from oracles import (
    oracle_bucket,
    oracle_macro,
    oracle_margin,
    oracle_micro,
    oracle_strict,
    oracle_tune,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
METRIC_TOL = 1e-12
TIME_BUDGET_S = 30.0


@contextmanager
def gate(capsys, number, summary):
    label = f"criterion {number}/9: {summary}"
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}")
        raise
    with capsys.disabled():
        print(f"PASS {label}")


@dataclass(frozen=True)
class P:
    instance_id: str
    chosen: frozenset


def _close(a, b, tol=METRIC_TOL):
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tol
    return a == b


def _run_cli(command, out_dir):
    code = cli_main(
        [command, "--config", str(GOLDEN / "config.json"), "--out", str(out_dir)]
    )
    assert code == 0, f"{command} exited {code}"


class TestAcceptance:
    def test_criterion_1_template_fidelity(self, capsys):
        with gate(capsys, 1, "hypothesis templates render their target sentences byte for byte"):
            jay = mk_instance(
                mention="Jay",
                right=(
                    "is currently working on his Spring 09 collection , which is "
                    "being sponsored by the YKK Group ."
                ).split(),
            )
            assert (
                et.render_description(et.TemplateKind.TAXONOMIC, jay, et.parse_label("producer"))
                == "Jay is a producer."
            )
            career = mk_instance(
                left=("His",), mention="career at a company", right=("ended", ".")
            )
            assert (
                et.render_description(
                    et.TemplateKind.CONTEXTUAL, career, et.parse_label("duration")
                )
                == "In this context, career at a company is referring to duration."
            )
            he = mk_instance(
                mention="He",
                right="knows how to make a hip-hop record sound good.".split(),
            )
            assert (
                et.render_description(
                    et.TemplateKind.SUBSTITUTION, he, et.parse_label("musician")
                )
                == "Musician knows how to make a hip-hop record sound good."
            )

    def test_criterion_2_margin_loss_sweep(self, capsys):
        with gate(capsys, 2, "margin ranking loss matches exact arithmetic on 10,000 random cases"):
            rng = random.Random(424242)
            for _ in range(10_000):
                pos, neg = rng.random(), rng.random()
                for gamma in (0.0, 0.1, 0.5):
                    loss = et.margin_ranking_loss(pos, neg, gamma)
                    assert loss == oracle_margin(pos, neg, gamma)
                    assert (loss == 0.0) == (pos >= neg + gamma)

    def test_criterion_3_dependency_induction(self, capsys, tier_vocab, onto_vocab):
        with gate(capsys, 3, "label dependency induction produces exactly the expected pair sets"):
            gold = {tier_vocab.get(r) for r in ("person", "sportsman", "boxer")}
            pairs = {
                (p.descendant.raw, p.ancestor.raw)
                for p in et.induce_dependency_pairs(gold, tier_vocab)
            }
            assert pairs == {
                ("boxer", "sportsman"),
                ("boxer", "person"),
                ("sportsman", "person"),
            }

            gold = {onto_vocab.get("/location/city")}
            pairs = {
                (p.descendant.raw, p.ancestor.raw)
                for p in et.induce_dependency_pairs(gold, onto_vocab)
            }
            assert pairs == {("/location/city", "/location")}
            positives = {l.raw for l in et.positive_label_set(gold, onto_vocab)}
            assert positives == {"/location/city", "/location"}

    def test_criterion_4_metric_oracle_equivalence(self, capsys):
        with gate(capsys, 4, "metrics match the reference implementation on 1,000 random fixtures"):
            rng = random.Random(99_331)
            labels = [f"l{i}" for i in range(8)]
            for _ in range(1_000):
                n = rng.randint(1, 10)
                chosen_sets = [
                    set(rng.sample(labels, rng.randint(0, 4))) for _ in range(n)
                ]
                gold_sets = [
                    set(rng.sample(labels, rng.randint(1, 4))) for _ in range(n)
                ]
                preds = [
                    P(f"i-{k}", frozenset(c)) for k, c in enumerate(chosen_sets)
                ]
                golds = {f"i-{k}": g for k, g in enumerate(gold_sets)}

                for got, want in zip(
                    et.loose_macro(preds, golds), oracle_macro(chosen_sets, gold_sets)
                ):
                    assert abs(got - want) <= METRIC_TOL
                for got, want in zip(
                    et.micro(preds, golds), oracle_micro(chosen_sets, gold_sets)
                ):
                    assert abs(got - want) <= METRIC_TOL
                assert (
                    abs(et.strict_accuracy(preds, golds) - oracle_strict(chosen_sets, gold_sets))
                    <= METRIC_TOL
                )

                cut = rng.randint(1, 7)
                buckets = {(0, 3): set(labels[:cut]), (3, None): set(labels[cut:])}
                report = et.bucket_report(preds, golds, buckets)
                for bucket, bucket_labels in buckets.items():
                    want = oracle_bucket(chosen_sets, gold_sets, bucket_labels)
                    if want is None:
                        assert bucket not in report
                    else:
                        for got_v, want_v in zip(report[bucket], want):
                            assert abs(got_v - want_v) <= METRIC_TOL

    def test_criterion_5_golden_fixture(self, capsys, tmp_path):
        with gate(capsys, 5, "the committed 20-instance fixture reproduces its committed report"):
            reports = []
            for run in ("a", "b"):
                out = tmp_path / run
                _run_cli("predict", out)
                _run_cli("eval", out)

                got = {
                    r["instance_id"]: r["chosen"]
                    for r in read_jsonl(out / "predictions.jsonl")
                }
                expected = json.loads(
                    (GOLDEN / "expected_predictions.json").read_text(encoding="utf-8")
                )
                assert got == expected

                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                want = json.loads(
                    (GOLDEN / "expected_report.json").read_text(encoding="utf-8")
                )
                assert _close(report, want), (report, want)
                reports.append((out / "report.json").read_bytes())
            assert reports[0] == reports[1]

    def test_criterion_6_zero_shot_selection(self, capsys):
        with gate(capsys, 6, "after a 40% few-shot split a held-out label is still predictable"):
            labels = [
                "artist", "dancer", "doctor", "farmer", "judge",
                "lawyer", "pilot", "robot", "singer", "teacher",
            ]
            train = et.Dataset(
                name="fs", split="train",
                instances=tuple(
                    mk_instance(
                        id=f"train-{i:06d}", mention=f"M{i}", right=("worked", "."),
                        gold=(labels[i % len(labels)],),
                    )
                    for i in range(20)
                ),
            )
            test = et.Dataset(
                name="fs", split="test",
                instances=tuple(
                    mk_instance(
                        id=f"test-{i:06d}", mention=f"T{i}", right=("waved", "."),
                        gold=(label,),
                    )
                    for i, label in enumerate(labels)
                ),
            )
            spec = et.FewShotSplitSpec(target_unseen_fraction=0.4, seed=11)
            filtered, heldout = et.make_fewshot_split(train, test, spec)
            assert abs(len(heldout) - 0.4 * len(labels)) <= 1
            for instance in filtered:
                assert not heldout & set(instance.gold_labels)

            target = sorted(heldout)[0]
            vocab = et.LabelVocabulary.from_raws(labels)
            probe = mk_instance(
                id="probe-000000", left=("Rex", "the"), mention=target,
                right=("waved", "."), gold=(target,),
            )
            premise = et.render_premise(probe)
            assert target in premise.split()
            ranking = et.rank_all_candidates(
                probe, vocab, et.OverlapScorer(), et.TemplateKind.TAXONOMIC
            )
            pred = et.predict(
                ranking,
                et.PredictionConfig(threshold=0.5, fallback=et.FallbackPolicy.empty()),
                instance_id=probe.id,
            )
            assert target in pred.chosen

    def test_criterion_7_threshold_behavior(self, capsys):
        with gate(capsys, 7, "chosen sets nest as the threshold rises and tuning matches the grid argmax"):
            rng = random.Random(5150)
            raws = [f"l{i}" for i in range(10)]
            for _ in range(500):
                scores = {
                    raw: rng.random() for raw in rng.sample(raws, rng.randint(3, 8))
                }
                entries = sorted(
                    (
                        et.ScoredLabel(label=et.parse_label(raw), score=s)
                        for raw, s in scores.items()
                    ),
                    key=lambda s: (-s.score, s.label.raw),
                )
                ranking = et.Ranking([s.label for s in entries], [s.score for s in entries])
                previous = None
                for threshold in sorted(rng.random() for _ in range(6)):
                    config = et.PredictionConfig(
                        threshold=threshold, fallback=et.FallbackPolicy.empty()
                    )
                    chosen = et.predict(ranking, config).chosen
                    if previous is not None:
                        assert chosen <= previous
                    previous = chosen

            table = {
                (r["premise"], r["hypothesis"]): r["score"]
                for r in read_jsonl(GOLDEN / "table.jsonl")
            }
            vocab_raws = (GOLDEN / "vocab.txt").read_text(encoding="utf-8").split()
            score_maps = []
            gold_sets = []
            for row in read_jsonl(GOLDEN / "corpus_test.jsonl"):
                premise = " ".join(
                    row["left_context_token"] + [row["mention_span"]] + row["right_context_token"]
                )
                score_maps.append(
                    {
                        raw: table[(premise, f"{row['mention_span']} is a {raw}.")]
                        for raw in vocab_raws
                    }
                )
                gold_sets.append(set(row["y_str"]))
            expected = oracle_tune(
                score_maps, gold_sets, list(et.DEFAULT_GRID), fallback="top1"
            )

            dev = et.load_ufet_jsonl(GOLDEN / "corpus_test.jsonl", "test")
            vocab = et.load_vocabulary(GOLDEN / "vocab.txt")
            scorer = et.TableScorer.from_jsonl(GOLDEN / "table.jsonl")
            got = et.tune_threshold(dev, vocab, scorer, et.TemplateKind.TAXONOMIC)
            assert got == expected

    def test_criterion_8_reproducible_artifacts(self, capsys, tmp_path):
        with gate(capsys, 8, "two identical runs write byte-identical artifacts inside the time budget"):
            started = time.monotonic()
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / run
                _run_cli("render", out)
                _run_cli("predict", out)
                _run_cli("eval", out)
                outputs.append(
                    {
                        name: (out / name).read_bytes()
                        for name in (
                            "pairs.jsonl", "predictions.jsonl", "report.json", "report.txt"
                        )
                    }
                )
            elapsed = time.monotonic() - started
            assert outputs[0] == outputs[1]
            assert elapsed < TIME_BUDGET_S, f"took {elapsed:.1f}s"

    def test_criterion_9_dependency_weight_zero(self, capsys, tier_vocab):
        class Recording(et.TrainableTableScorer):
            """Records every ``accumulate_ranking_loss`` call and counts updates."""

            def __init__(self):
                super().__init__(default=0.5, lr=0.05)
                self.calls, self.updates = [], 0

            def accumulate_ranking_loss(self, pos_pair, neg_pairs, margin, weight=1.0):
                self.calls.append((pos_pair, tuple(neg_pairs), margin, weight))
                return super().accumulate_ranking_loss(pos_pair, neg_pairs, margin, weight)

            def apply_update(self):
                self.updates += 1
                super().apply_update()

        tiers = {
            "general": ("person", "organization", "location"),
            "fine": ("sportsman", "artist"),
            "ultrafine": ("boxer", "guitarist"),
        }
        untiered = et.LabelVocabulary.from_raws(list(tier_vocab.sorted_raws))
        predict_config = et.PredictionConfig(
            threshold=0.5, fallback=et.FallbackPolicy.top1(), template=et.TemplateKind.TAXONOMIC
        )

        def dataset(split, n, rng):
            instances = []
            for i in range(n):
                members = [tiers[t] for t in tiers if rng.random() < 0.7] or [tiers["general"]]
                gold = tuple(rng.choice(group) for group in members)
                instances.append(mk_instance(
                    id=f"{split}-{i:06d}", mention=f"X{i}", right=("moved", "."), gold=gold
                ))
            return et.Dataset(name="tiers", split=split, instances=tuple(instances))

        def run(train_set, dev_set, vocab, config):
            scorer = Recording()
            _, log = et.train(train_set, dev_set, vocab, scorer, config, predict_config)
            return scorer, log

        with gate(capsys, 9, "a zero dependency weight trains exactly as a dependency-free run"):
            rng = random.Random(60_601)
            for seed, batch_size, k in ((0, 8, 1), (1, 5, 2), (2, 1, 1), (3, 64, 3)):
                train_set, dev_set = dataset("train", 40, rng), dataset("dev", 10, rng)
                config = et.TrainingConfig(
                    dependency_weight=0.0, negatives_per_positive=k, batch_size=batch_size,
                    max_epochs=3, eval_every=1, seed=seed,
                )
                tiered, tiered_log = run(train_set, dev_set, tier_vocab, config)
                bare, bare_log = run(train_set, dev_set, untiered, config)
                assert tiered.calls == bare.calls
                assert tiered.updates == bare.updates
                assert tiered_log == bare_log
                assert tiered._table == bare._table
                # the comparison can tell: a nonzero weight adds dependency examples
                weighted, _ = run(
                    train_set, dev_set, tier_vocab, replace(config, dependency_weight=0.05)
                )
                assert len(weighted.calls) > len(bare.calls)
