"""Loss arithmetic, example construction, and the epoch loop."""

import random
import sys
from pathlib import Path

import pytest

from entail_typing import (
    ConfigError,
    Dataset,
    ExternalTrainableScorer,
    FallbackPolicy,
    LabelVocabulary,
    PairKind,
    PredictionConfig,
    RankedExample,
    TableScorer,
    TemplateKind,
    TrainableTableScorer,
    TrainingConfig,
    TrainingError,
    ValidationError,
    build_examples_for_instance,
    instance_loss,
    margin_ranking_loss,
    render_description,
    train,
)
from entail_typing._util import substream

from conftest import mk_instance, mk_pair
from oracles import oracle_margin


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


class TestInstanceLoss:
    def _config(self, **kw):
        return TrainingConfig(**kw)

    def test_satisfied_example_is_free(self):
        example = RankedExample(
            positive=mk_pair("p", "pos"), negatives=(mk_pair("p", "neg"),), kind=PairKind.TYPE
        )
        scorer = TableScorer({("p", "pos"): 0.8, ("p", "neg"): 0.2})
        report = instance_loss([example], scorer, self._config())
        assert report.type_loss == 0.0
        assert report.dependency_loss == 0.0
        assert report.joint == 0.0

    def test_mixed_kind_arithmetic(self):
        type_example = RankedExample(
            positive=mk_pair("p", "t-pos"), negatives=(mk_pair("p", "t-neg"),),
            kind=PairKind.TYPE,
        )
        dep_example = RankedExample(
            positive=mk_pair("d", "d-pos", kind=PairKind.DEPENDENCY),
            negatives=(mk_pair("d", "d-neg", kind=PairKind.DEPENDENCY),),
            kind=PairKind.DEPENDENCY,
        )
        scorer = TableScorer(
            {
                ("p", "t-pos"): 0.5, ("p", "t-neg"): 0.6,   # type loss 0.2
                ("d", "d-pos"): 0.3, ("d", "d-neg"): 0.6,   # dependency loss 0.4
            }
        )
        report = instance_loss([type_example, dep_example], scorer, self._config())
        assert report.type_loss == pytest.approx(0.2)
        assert report.dependency_loss == pytest.approx(0.4)
        assert report.joint == pytest.approx(0.22)
        assert (report.n_type, report.n_dependency) == (1, 1)

    def test_lambda_zero_annihilates_dependency_term(self):
        dep_example = RankedExample(
            positive=mk_pair("d", "d-pos", kind=PairKind.DEPENDENCY),
            negatives=(mk_pair("d", "d-neg", kind=PairKind.DEPENDENCY),),
            kind=PairKind.DEPENDENCY,
        )
        scorer = TableScorer({("d", "d-pos"): 0.0, ("d", "d-neg"): 1.0})
        report = instance_loss([dep_example], scorer, self._config(dependency_weight=0.0))
        assert report.dependency_loss > 0
        assert report.joint == 0.0

    def test_order_invariance(self):
        rng = random.Random(12)
        examples = []
        table = {}
        for i in range(8):
            kind = PairKind.TYPE if i % 2 == 0 else PairKind.DEPENDENCY
            pos = mk_pair("p", f"pos{i}", kind=kind)
            negs = tuple(mk_pair("p", f"neg{i}-{j}", kind=kind) for j in range(2))
            examples.append(RankedExample(positive=pos, negatives=negs, kind=kind))
            table[("p", f"pos{i}")] = rng.random()
            for j in range(2):
                table[("p", f"neg{i}-{j}")] = rng.random()
        scorer = TableScorer(table)
        base = instance_loss(examples, scorer, self._config())
        for _ in range(5):
            shuffled = examples[:]
            rng.shuffle(shuffled)
            report = instance_loss(shuffled, scorer, self._config())
            # means over reordered floats may differ in the last ulp
            assert report.type_loss == pytest.approx(base.type_loss, rel=1e-12)
            assert report.dependency_loss == pytest.approx(base.dependency_loss, rel=1e-12)
            assert report.joint == pytest.approx(base.joint, rel=1e-12)
            assert (report.n_type, report.n_dependency) == (base.n_type, base.n_dependency)

    def test_mean_over_k_negatives(self):
        example = RankedExample(
            positive=mk_pair("p", "pos"),
            negatives=(mk_pair("p", "n0"), mk_pair("p", "n1")),
            kind=PairKind.TYPE,
        )
        scorer = TableScorer({("p", "pos"): 0.5, ("p", "n0"): 0.5, ("p", "n1"): 0.7})
        report = instance_loss([example], scorer, self._config())
        # losses 0.1 and 0.3 average to 0.2
        assert report.type_loss == pytest.approx(0.2)


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

    def test_rejected_external_update_restores_best_tag(self):
        restored = []

        class Recording(ExternalTrainableScorer):
            def restore(self, tag):
                super().restore(tag)
                restored.append(tag)

        stub = str(Path(__file__).parent / "external_stub.py")
        vocab, train_set, dev_set = _toy_world()
        scorer = Recording([sys.executable, stub, "bad-update"])
        config = TrainingConfig(max_epochs=2, eval_every=1, seed=3, batch_size=2)
        try:
            with pytest.raises(TrainingError, match="update failed") as err:
                train(train_set, dev_set, vocab, scorer, config, _predict_config())
        finally:
            scorer.close()
        assert err.value.best_tag == "s0"
        assert restored == ["s0"]

    def test_empty_sets_rejected(self):
        vocab, train_set, dev_set = _toy_world()
        empty = Dataset(name="e", split="dev", instances=())
        scorer = TrainableTableScorer()
        with pytest.raises(ValidationError):
            train(train_set, empty, vocab, scorer, TrainingConfig(), _predict_config())
