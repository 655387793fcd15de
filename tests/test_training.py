"""Loss arithmetic, example construction, and the epoch loop."""

import hashlib
import json
import random
import sys
from dataclasses import replace

import pytest

import entail_typing.templates as templates
from entail_typing import (
    ConfigError,
    Dataset,
    ExternalTrainableScorer,
    FallbackPolicy,
    LabelVocabulary,
    PairKind,
    PredictionConfig,
    RankedExample,
    TemplateKind,
    Tier,
    TrainableScorer,
    TrainableTableScorer,
    TrainingConfig,
    TrainingError,
    ValidationError,
    build_dependency_pair,
    build_examples_for_instance,
    margin_ranking_loss,
    predict_dataset,
    prediction_to_record,
    render_description,
    train,
)
from entail_typing._util import substream
from entail_typing.training import instance_positives

from conftest import mk_instance, mk_pair, record_live_predictions
from oracles import oracle_margin
from test_scoring import STUB, recorded_requests


class TestMarginLoss:
    def test_satisfied_margin(self):
        assert margin_ranking_loss(0.9, 0.3, 0.1) == 0.0

    def test_violated_margin(self):
        assert margin_ranking_loss(0.4, 0.5, 0.1) == pytest.approx(0.2)

    def test_tie_costs_exactly_the_margin(self):
        assert margin_ranking_loss(0.5, 0.5, 0.1) == pytest.approx(0.1)

    def test_matches_oracle_sweep(self):
        rng = random.Random(1009)
        for gamma in (0.0, 0.1, 0.5):
            for _ in range(2000):
                pos, neg = rng.random(), rng.random()
                assert margin_ranking_loss(pos, neg, gamma) == oracle_margin(pos, neg, gamma)

    def test_zero_iff_margin_met(self):
        rng = random.Random(77)
        for _ in range(2000):
            pos, neg, gamma = rng.random(), rng.random(), rng.choice((0.0, 0.1, 0.5))
            loss = margin_ranking_loss(pos, neg, gamma)
            assert (loss == 0.0) == (pos >= neg + gamma)

    def test_lipschitz_in_each_argument(self):
        rng = random.Random(3)
        for _ in range(1000):
            pos, neg, gamma = rng.random(), rng.random(), rng.random() * 0.5
            delta = (rng.random() - 0.5) * 0.2
            base = margin_ranking_loss(pos, neg, gamma)
            assert abs(margin_ranking_loss(pos + delta, neg, gamma) - base) <= abs(delta) + 1e-15
            assert abs(margin_ranking_loss(pos, neg + delta, gamma) - base) <= abs(delta) + 1e-15


class TestConfig:
    def test_defaults(self):
        config = TrainingConfig()
        assert config.margin == 0.1
        assert config.dependency_weight == 0.05
        assert config.negatives_per_positive == 1
        assert config.batch_size == 16
        assert config.eval_every == 30
        assert config.template is TemplateKind.TAXONOMIC

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainingConfig(margin=-0.1)
        with pytest.raises(ConfigError):
            TrainingConfig(dependency_weight=-1)
        with pytest.raises(ConfigError):
            TrainingConfig(negatives_per_positive=0)
        with pytest.raises(ConfigError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainingConfig(eval_every=0)
        with pytest.raises(ConfigError, match="max_epochs must be positive, got 0"):
            TrainingConfig(max_epochs=0)
        with pytest.raises(ConfigError, match="margin"):
            TrainingConfig(margin=float("nan"))
        with pytest.raises(ConfigError, match="dependency_weight"):
            TrainingConfig(dependency_weight=float("nan"))


class TestBuildExamples:
    def test_three_generations_tier(self, tier_vocab):
        inst = mk_instance(
            id="t-0", mention="Mike Tyson", right=("fought", "."),
            gold=("person", "sportsman", "boxer"),
        )
        examples = build_examples_for_instance(
            inst, tier_vocab, TrainingConfig(), random.Random(0)
        )
        kinds = [e.kind for e in examples]
        assert kinds.count(PairKind.TYPE) == 3
        assert kinds.count(PairKind.DEPENDENCY) == 3

    def test_flat_vocab_single_label(self, flat_vocab):
        inst = mk_instance(id="t-0", mention="the euro", right=("rose", "."), gold=("currency",))
        examples = build_examples_for_instance(
            inst, flat_vocab, TrainingConfig(), random.Random(0)
        )
        assert [e.kind for e in examples] == [PairKind.TYPE]

    def test_ontology_adds_ancestor_positive(self, onto_vocab):
        inst = mk_instance(id="t-0", mention="London", right=("called", "."), gold=("/location/city",))
        examples = build_examples_for_instance(
            inst, onto_vocab, TrainingConfig(), random.Random(0)
        )
        type_examples = [e for e in examples if e.kind is PairKind.TYPE]
        dep_examples = [e for e in examples if e.kind is PairKind.DEPENDENCY]
        assert len(type_examples) == 2
        assert len(dep_examples) == 1
        assert {e.positive.hypothesis for e in type_examples} == {
            "London is a city.",
            "London is a location.",
        }
        assert dep_examples[0].positive.premise == "London is a city."
        assert dep_examples[0].positive.hypothesis == "London is a location."

    def test_negative_count_follows_config(self, tier_vocab):
        inst = mk_instance(id="t-0", mention="Ann", right=("won", "."), gold=("boxer",))
        examples = build_examples_for_instance(
            inst, tier_vocab, TrainingConfig(negatives_per_positive=3), random.Random(0)
        )
        assert all(len(e.negatives) == 3 for e in examples)

    def test_substitution_skips_dependency_examples(self, tier_vocab):
        inst = mk_instance(
            id="t-0", mention="He", right=("won", "."), gold=("person", "sportsman", "boxer")
        )
        config = TrainingConfig(template=TemplateKind.SUBSTITUTION)
        examples = build_examples_for_instance(inst, tier_vocab, config, random.Random(0))
        assert all(e.kind is PairKind.TYPE for e in examples)
        assert len(examples) == 3

    def test_example_without_negatives_rejected(self):
        with pytest.raises(ValidationError, match="has no negatives"):
            RankedExample(positive=mk_pair("p", "pos"), negatives=(), kind=PairKind.TYPE)

    def test_example_kind_must_be_the_positive_kind(self):
        with pytest.raises(ValidationError, match="kind type does not match example kind"):
            RankedExample(positive=mk_pair("p", "pos"), negatives=(mk_pair("p", "neg"),),
                          kind=PairKind.DEPENDENCY)

    def test_negative_with_another_premise_rejected(self):
        negatives = (mk_pair("p", "neg"), mk_pair("q", "neg"))
        with pytest.raises(ValidationError, match="negative premise differs"):
            RankedExample(positive=mk_pair("p", "pos"), negatives=negatives, kind=PairKind.TYPE)

    def test_empty_gold_rejected(self, tier_vocab):
        inst = mk_instance(id="t-0", gold=())
        with pytest.raises(ValidationError):
            build_examples_for_instance(inst, tier_vocab, TrainingConfig(), random.Random(0))

    def test_type_negatives_never_positive_sweep(self, tier_vocab, onto_vocab):
        from entail_typing import SamplingError

        rng = random.Random(515)
        satisfiable = 0
        for vocab in (tier_vocab, onto_vocab):
            raws = list(vocab.sorted_raws)
            for trial in range(100):
                gold = tuple(rng.sample(raws, rng.randint(1, 3)))
                inst = mk_instance(id=f"t-{trial}", mention="X", right=("did", "."), gold=gold)
                try:
                    examples = build_examples_for_instance(
                        inst, vocab, TrainingConfig(negatives_per_positive=2),
                        substream(trial, "sampling"),
                    )
                except SamplingError:
                    # e.g. every same-tier label is already a gold ancestor
                    continue
                satisfiable += 1
                type_examples = [e for e in examples if e.kind is PairKind.TYPE]
                positive_hyps = {e.positive.hypothesis for e in type_examples}
                for example in type_examples:
                    for neg in example.negatives:
                        assert neg.hypothesis not in positive_hyps
        assert satisfiable > 100

    @staticmethod
    def _assert_dependency_negatives_avoid(vocab, gold, true_ancestors):
        inst = mk_instance(id="t-0", mention="Mike Tyson", right=("won", "."), gold=gold)

        def hyp(raw):
            return render_description(TemplateKind.TAXONOMIC, inst, vocab.resolve(raw))

        for seed in range(50):
            examples = build_examples_for_instance(
                inst, vocab, TrainingConfig(negatives_per_positive=2),
                substream(seed, "sampling"),
            )
            deps = [e for e in examples if e.kind is PairKind.DEPENDENCY]
            assert {e.positive.label_raw for e in deps} == set(true_ancestors)
            for example in deps:
                descendant = example.positive.label_raw
                forbidden = {hyp(descendant)} | {hyp(a) for a in true_ancestors[descendant]}
                for neg in example.negatives:
                    assert neg.hypothesis not in forbidden

    def test_dependency_negatives_never_true_ancestors(self, tier_vocab):
        self._assert_dependency_negatives_avoid(
            tier_vocab,
            ("person", "sportsman", "boxer"),
            {"boxer": ("sportsman", "person"), "sportsman": ("person",)},
        )

    def test_dependency_negatives_never_implicit_ancestors(self, onto_vocab):
        # the middle ancestor is implicit: it is not in the vocabulary
        self._assert_dependency_negatives_avoid(
            onto_vocab,
            ("/location/transit/bridge",),
            {
                "/location/transit/bridge": ("/location/transit", "/location"),
                "/location/transit": ("/location",),
            },
        )


class TestExampleStream:
    # SHA-256 of every example's pairs over the sweep below
    DIGEST = "79b9eb9534fd1d41bfb80521aac60d94f2d910e4bbd4ea75e07d49a7939aaab8"

    def test_example_stream_is_pinned(self, tier_vocab, onto_vocab):
        digest = hashlib.sha256()
        for vocab in (tier_vocab, onto_vocab):
            instances = [
                mk_instance(id=f"t-{i}", left=("the",) * (i % 2), mention=f"X{i}",
                            right=("moved", "."), gold=gold)
                for i, gold in enumerate(_random_golds(vocab, 12, random.Random(5)))
            ]
            for template in TemplateKind:
                for k in (1, 2):
                    for weight in (0.05, 0.0):
                        config = TrainingConfig(
                            template=template, negatives_per_positive=k, dependency_weight=weight
                        )
                        for inst in instances:
                            for example in build_examples_for_instance(
                                inst, vocab, config, substream(11, inst.id)
                            ):
                                for pair in (example.positive, *example.negatives):
                                    record = [example.kind.value, pair.premise, pair.hypothesis,
                                              pair.kind.value, pair.label_raw,
                                              pair.template.value]
                                    digest.update(json.dumps(record).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST

    def test_premise_rendered_once_per_instance(self, tier_vocab, monkeypatch):
        calls = []
        render_premise = templates.render_premise

        def counting(instance):
            calls.append(instance.id)
            return render_premise(instance)

        monkeypatch.setattr(templates, "render_premise", counting)
        inst = mk_instance(id="t-0", mention="Ali", right=("won", "."),
                           gold=("person", "sportsman", "boxer"))
        for template in TemplateKind:
            calls.clear()
            config = TrainingConfig(template=template, negatives_per_positive=2)
            assert len(build_examples_for_instance(inst, tier_vocab, config, random.Random(0))) > 1
            assert calls == ["t-0"]


def _random_golds(vocab, n, rng):
    """``n`` seeded gold sets: one label per tier of a tiered vocabulary, else 1-2 labels."""
    if vocab.tier_partition:
        groups = [vocab.tier_members(t) for t in (Tier.GENERAL, Tier.FINE, Tier.ULTRAFINE)]
        return [
            tuple(rng.choice(g) for g in groups if rng.random() < 0.7) or (groups[0][0],)
            for _ in range(n)
        ]
    return [tuple(rng.sample(vocab.sorted_raws, rng.randint(1, 2))) for _ in range(n)]


def _dataset(split, golds):
    return Dataset(name="toy", split=split, instances=tuple(
        mk_instance(id=f"{split}-{i}", mention=f"X{i}", right=("moved", "."), gold=gold)
        for i, gold in enumerate(golds)
    ))


class TestLoggedLoss:
    """The per-epoch losses that ``train`` logs, under a frozen scorer."""

    @staticmethod
    def _world(vocab, seed, **overrides):
        """Train and dev sets, a config, each epoch's ranked examples per
        instance as ``train`` draws them, and a table scoring their pairs."""
        rng = random.Random(seed)
        train_set = _dataset("train", _random_golds(vocab, 12, rng))
        dev_set = _dataset("dev", _random_golds(vocab, 3, rng))
        config = TrainingConfig(max_epochs=3, eval_every=1, batch_size=5, seed=4, **overrides)
        epochs = [
            [
                build_examples_for_instance(
                    instance, vocab, config,
                    substream(config.seed, "sampling", str(epoch), instance.id),
                )
                for instance in train_set
            ]
            for epoch in range(1, config.max_epochs + 1)
        ]
        table = {}
        for per_instance in epochs:
            for examples in per_instance:
                for e in examples:
                    for pair in (e.positive, *e.negatives):
                        table.setdefault((pair.premise, pair.hypothesis), rng.random())
        return train_set, dev_set, config, epochs, table

    @staticmethod
    def _log(world, vocab, **overrides):
        train_set, dev_set, config, _, table = world
        scorer = TrainableTableScorer(table, lr=0.0)
        config = replace(config, **overrides)
        return train(train_set, dev_set, vocab, scorer, config, _predict_config())[1]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("vocab_fixture", ["tier_vocab", "onto_vocab"])
    def test_logged_losses_match_oracle(self, request, vocab_fixture, k):
        vocab = request.getfixturevalue(vocab_fixture)
        world = self._world(vocab, 2024 + k, negatives_per_positive=k)
        _, _, config, epochs, table = world

        def score(pair):
            return table[(pair.premise, pair.hypothesis)]

        for record, per_instance in zip(self._log(world, vocab), epochs, strict=True):
            for kind, key in ((PairKind.TYPE, "type_loss"), (PairKind.DEPENDENCY, "dep_loss")):
                means = []
                for examples in per_instance:
                    losses = [
                        sum(oracle_margin(score(e.positive), score(n), config.margin)
                            for n in e.negatives) / len(e.negatives)
                        for e in examples if e.kind is kind
                    ]
                    if losses:
                        means.append(sum(losses) / len(losses))
                assert means, f"no {kind.value} examples to check"
                # the loop averages instances in shuffled order, so the last ulp may differ
                assert record[key] == pytest.approx(sum(means) / len(means), rel=1e-12)

    def test_satisfied_examples_log_zero_loss(self, tier_vocab):
        world = self._world(tier_vocab, 8)
        *_, epochs, table = world
        for per_instance in epochs:
            for examples in per_instance:
                for e in examples:
                    table[(e.positive.premise, e.positive.hypothesis)] = 1.0
                    for neg in e.negatives:
                        table[(neg.premise, neg.hypothesis)] = 0.0
        log = self._log(world, tier_vocab)
        assert [(r["type_loss"], r["dep_loss"]) for r in log] == [(0.0, 0.0)] * 3

    def test_zero_dependency_weight_logs_no_dependency_loss(self, tier_vocab):
        world = self._world(tier_vocab, 9)
        weighted = self._log(world, tier_vocab)
        zero = self._log(world, tier_vocab, dependency_weight=0.0)
        assert all(r["dep_loss"] > 0 for r in weighted)
        assert all(r["dep_loss"] == 0.0 for r in zero)
        # type negatives are drawn before any false ancestor, so type losses agree
        assert [r["type_loss"] for r in zero] == [r["type_loss"] for r in weighted]

    def test_logged_losses_do_not_depend_on_batching(self, onto_vocab):
        world = self._world(onto_vocab, 10)
        logs = [self._log(world, onto_vocab, batch_size=size) for size in (1, 3, 64)]
        assert logs[0] == logs[1] == logs[2]
        assert len({r["type_loss"] for r in logs[0]}) == 3


def _toy_world():
    vocab = LabelVocabulary.from_raws(["person", "city", "event", "animal"])
    train_set = Dataset(
        name="toy", split="train",
        instances=tuple(
            mk_instance(id=f"train-{i}", mention=m, right=("appeared", "."), gold=g)
            for i, (m, g) in enumerate(
                [("Ann", ("person",)), ("Paris", ("city",)), ("the fair", ("event",)),
                 ("a fox", ("animal",)), ("Bob", ("person",))]
            )
        ),
    )
    dev_set = Dataset(
        name="toy", split="dev",
        instances=tuple(
            mk_instance(id=f"dev-{i}", mention=m, right=("appeared", "."), gold=g)
            for i, (m, g) in enumerate(
                [("Cara", ("person",)), ("Lyon", ("city",)), ("a crow", ("animal",))]
            )
        ),
    )
    return vocab, train_set, dev_set


def _predict_config():
    return PredictionConfig(
        threshold=0.5, fallback=FallbackPolicy.top1(), template=TemplateKind.TAXONOMIC
    )


class TestTrainLoop:
    def test_frozen_dry_run_keeps_initial_snapshot(self):
        vocab, train_set, dev_set = _toy_world()
        scorer = TrainableTableScorer(default=0.5, lr=0.0)
        config = TrainingConfig(max_epochs=4, eval_every=2, seed=1)
        best_tag, log = train(train_set, dev_set, vocab, scorer, config, _predict_config())
        assert best_tag == "ckpt-0001"
        assert [r["epoch"] for r in log] == [2, 4]
        # a scorer that never moves cannot improve after the first eval snapshots it
        assert "checkpoint" in log[0] and "checkpoint" not in log[1]

    def test_training_improves_toy_dev_f1(self):
        vocab, train_set, dev_set = _toy_world()
        scorer = TrainableTableScorer(default=0.5, lr=0.2)
        config = TrainingConfig(max_epochs=6, eval_every=2, seed=5, batch_size=4)
        best_tag, log = train(train_set, dev_set, vocab, scorer, config, _predict_config())
        assert len(log) == 3
        assert log[-1]["dev_f1"] >= log[0]["dev_f1"]
        best_f1 = max(r["dev_f1"] for r in log)
        snapshotted = [r for r in log if "checkpoint" in r]
        assert snapshotted and snapshotted[-1]["checkpoint"] == best_tag
        assert snapshotted[-1]["dev_f1"] == best_f1

    def test_dev_evaluation_drops_earlier_predictions(self, monkeypatch):
        """Each time a dev mention is ranked, no earlier mention's prediction is alive."""
        vocab, train_set, dev_set = _toy_world()
        scorer = TrainableTableScorer(default=0.5, lr=0.2)
        config = TrainingConfig(max_epochs=2, eval_every=1, seed=1)
        live, before = record_live_predictions(monkeypatch)
        train(train_set, dev_set, vocab, scorer, config, _predict_config())
        assert live == [before] * (2 * len(dev_set))

    def test_identical_seeds_identical_logs(self):
        vocab, train_set, dev_set = _toy_world()
        config = TrainingConfig(max_epochs=4, eval_every=2, seed=9, batch_size=3)
        logs = []
        for _ in range(2):
            scorer = TrainableTableScorer(default=0.5, lr=0.2)
            _, log = train(train_set, dev_set, vocab, scorer, config, _predict_config())
            logs.append(log)
        assert logs[0] == logs[1]

    def test_different_seed_changes_negative_stream(self, tier_vocab):
        streams = []
        for seed in (1, 2):
            drawn = []
            for i in range(30):
                inst = mk_instance(id=f"t-{i}", mention="X", right=("ran", "."), gold=("boxer",))
                examples = build_examples_for_instance(
                    inst, tier_vocab, TrainingConfig(),
                    substream(seed, "sampling", 0, inst.id),
                )
                drawn.extend(
                    neg.hypothesis for e in examples for neg in e.negatives
                )
            streams.append(tuple(drawn))
        assert streams[0] != streams[1]

    def test_update_failure_aborts_with_best_tag(self):
        class Exploding(TrainableTableScorer):
            def __init__(self):
                super().__init__(default=0.5, lr=0.2)
                self.updates = 0

            def apply_update(self):
                self.updates += 1
                if self.updates >= 2:
                    raise RuntimeError("device lost")
                super().apply_update()

        vocab, train_set, dev_set = _toy_world()
        scorer = Exploding()
        config = TrainingConfig(max_epochs=4, eval_every=1, seed=3, batch_size=2)
        with pytest.raises(TrainingError) as err:
            train(train_set, dev_set, vocab, scorer, config, _predict_config())
        assert err.value.best_tag == "ckpt-0000"

    def test_update_failure_is_raised_when_restore_fails_too(self):
        class Broken(TrainableTableScorer):
            def apply_update(self):
                raise RuntimeError("device lost")

            def restore(self, tag):
                raise RuntimeError("restore lost too")

        vocab, train_set, dev_set = _toy_world()
        config = TrainingConfig(max_epochs=2, eval_every=1, seed=3, batch_size=2)
        with pytest.raises(TrainingError, match="update failed in epoch 1: device lost") as err:
            train(train_set, dev_set, vocab, Broken(), config, _predict_config())
        assert err.value.best_tag == "ckpt-0000"

    def test_rejected_external_update_restores_best_tag(self):
        restored = []

        class Recording(ExternalTrainableScorer):
            def restore(self, tag):
                super().restore(tag)
                restored.append(tag)

        vocab, train_set, dev_set = _toy_world()
        scorer = Recording([sys.executable, STUB, "bad-update"])
        config = TrainingConfig(max_epochs=2, eval_every=1, seed=3, batch_size=2)
        try:
            with pytest.raises(TrainingError, match="update failed") as err:
                train(train_set, dev_set, vocab, scorer, config, _predict_config())
        finally:
            scorer.close()
        assert err.value.best_tag == "s0"
        assert restored == ["s0"]

    def test_zero_dependency_weight_sends_no_dependency_example(self, tier_vocab):
        rng = random.Random(31)
        train_set = _dataset("train", _random_golds(tier_vocab, 10, rng))
        dev_set = _dataset("dev", _random_golds(tier_vocab, 2, rng))
        dependency_positives = set()
        for instance in train_set:
            for dep in instance_positives(instance, tier_vocab, TemplateKind.TAXONOMIC)[1]:
                pair = build_dependency_pair(instance, dep, TemplateKind.TAXONOMIC)
                dependency_positives.add((pair.premise, pair.hypothesis))
        assert dependency_positives
        sent = {}
        for weight in (0.0, 0.05):
            scorer = ExternalTrainableScorer([sys.executable, STUB, "trainable"])
            requests = recorded_requests(scorer.endpoint)
            config = TrainingConfig(dependency_weight=weight, max_epochs=2, eval_every=1,
                                    batch_size=4)
            try:
                train(train_set, dev_set, tier_vocab, scorer, config, _predict_config())
            finally:
                scorer.close()
            sent[weight] = [
                (r["positive"]["premise"], r["positive"]["hypothesis"])
                for trip in requests for r in trip if r.get("op") == "accumulate"
            ]
        assert sum(p in dependency_positives for p in sent[0.05]) > 0
        assert sent[0.0] and sum(p in dependency_positives for p in sent[0.0]) == 0

    def test_empty_sets_rejected(self):
        vocab, train_set, dev_set = _toy_world()
        empty = Dataset(name="e", split="dev", instances=())
        scorer = TrainableTableScorer()
        with pytest.raises(ValidationError):
            train(train_set, empty, vocab, scorer, TrainingConfig(), _predict_config())


class PerExample(ExternalTrainableScorer):
    """An external scorer that sends one accumulate op per round trip, as the base class loops."""

    def accumulate_batch(self, examples, margin):
        return TrainableScorer.accumulate_batch(self, examples, margin)


class TestPipelinedTraining:
    """``train`` through the external stub sends each batch's accumulate ops in one round trip."""

    @staticmethod
    def _world(vocab):
        rng = random.Random(43)
        return [_dataset(split, _random_golds(vocab, n, rng))
                for split, n in (("train", 12), ("dev", 3), ("test", 4))]

    @pytest.mark.parametrize("batch_size", [4, 16])
    def test_one_accumulate_trip_per_batch(self, tier_vocab, batch_size):
        train_set, dev_set, _ = self._world(tier_vocab)
        config = TrainingConfig(max_epochs=2, eval_every=1, batch_size=batch_size, seed=6)
        scorer = ExternalTrainableScorer([sys.executable, STUB, "trainable"])
        try:
            sent = recorded_requests(scorer.endpoint)
            train(train_set, dev_set, tier_vocab, scorer, config, _predict_config())
        finally:
            scorer.close()
        expected = []
        for epoch in range(1, config.max_epochs + 1):
            n = sum(len(build_examples_for_instance(
                instance, tier_vocab, config,
                substream(config.seed, "sampling", str(epoch), instance.id),
            )) for instance in train_set)
            expected += [batch_size] * (n // batch_size) + [n % batch_size] * (n % batch_size > 0)
        assert len(expected) > 2 * config.max_epochs
        ops = [[r.get("op") for r in trip] for trip in sent]
        accumulating = [i for i, trip in enumerate(ops) if "accumulate" in trip]
        assert [len(ops[i]) for i in accumulating] == expected
        assert all(set(ops[i]) == {"accumulate"} and ops[i + 1] == ["update"] for i in accumulating)

    def test_equals_the_per_example_loop(self, tier_vocab):
        train_set, dev_set, test_set = self._world(tier_vocab)
        config = TrainingConfig(max_epochs=4, eval_every=1, batch_size=5, seed=8)
        results, sent = [], []
        for cls in (ExternalTrainableScorer, PerExample):
            scorer = cls([sys.executable, STUB, "trainable"])
            try:
                sent.append(recorded_requests(scorer.endpoint))
                best_tag, log = train(train_set, dev_set, tier_vocab, scorer, config,
                                      _predict_config())
                predictions = predict_dataset(test_set, tier_vocab, scorer, _predict_config())
            finally:
                scorer.close()
            results.append((best_tag, log, [prediction_to_record(p) for p in predictions]))
        assert results[0] == results[1]
        assert len({r["type_loss"] for r in results[0][1]}) == config.max_epochs
        # the same requests, paced differently
        assert [r for trip in sent[0] for r in trip] == [r for trip in sent[1] for r in trip]
        trips = [len([t for t in sent_by if t[0].get("op") == "accumulate"]) for sent_by in sent]
        assert trips[0] < trips[1]
