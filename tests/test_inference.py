"""Ranking, threshold selection, fallbacks, and grid tuning."""

import gc
import random
import tracemalloc

import pytest

from entail_typing import (
    DEFAULT_GRID,
    ConfigError,
    Dataset,
    EntailmentScorer,
    EvaluationError,
    FallbackPolicy,
    LabelVocabulary,
    OverlapScorer,
    PredictionConfig,
    Ranking,
    ScoredLabel,
    TableScorer,
    TemplateKind,
    Tier,
    TrainableTableScorer,
    TypeLabel,
    ValidationError,
    build_type_pair,
    dev_loose_macro,
    loose_macro,
    parse_label,
    predict,
    predict_dataset,
    prediction_to_record,
    rank_all_candidates,
    tune_threshold,
)

import entail_typing.inference as inference
import entail_typing.templates as templates
from conftest import mk_instance
from oracles import oracle_predict, oracle_rank, oracle_tune


class RawLabelScorer(EntailmentScorer):
    """Scores by raw label name, ignoring the rendered text."""

    def __init__(self, scores, default=0.0):
        self._scores = dict(scores)
        self._default = default

    def score(self, pair):
        return self._scores.get(pair.label_raw, self._default)


class PremiseLabelScorer(EntailmentScorer):
    """Scores keyed by (premise, raw label) so instances can differ."""

    def __init__(self, scores):
        self._scores = dict(scores)

    def score(self, pair):
        return self._scores[(pair.premise, pair.label_raw)]


class RecordingScorer(EntailmentScorer):
    """Scores by raw label like RawLabelScorer, keeping every pair it is sent."""

    def __init__(self, scores):
        self._scores = dict(scores)
        self.pairs = []

    def score(self, pair):
        self.pairs.append(pair)
        return self._scores.get(pair.label_raw, 0.0)


def _fallback(kind):
    return FallbackPolicy.other("entity") if kind == "other" else FallbackPolicy.parse(kind)


def _ranking(scores):
    """A Ranking of ``scores`` in oracle order: descending score, ties by raw label."""
    order = oracle_rank(scores)
    return Ranking([parse_label(raw) for raw in order], [scores[raw] for raw in order])


class TestFallbackPolicy:
    def test_parse_forms(self):
        assert FallbackPolicy.parse("top1") == FallbackPolicy.top1()
        assert FallbackPolicy.parse("empty") == FallbackPolicy.empty()
        other = FallbackPolicy.parse("other:entity")
        assert other.kind == "other" and other.label == "entity"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigError):
            FallbackPolicy.parse("loudest")

    def test_other_requires_label(self):
        with pytest.raises(ConfigError):
            FallbackPolicy(kind="other")

    def test_label_only_for_other(self):
        with pytest.raises(ConfigError):
            FallbackPolicy(kind="top1", label="entity")

    def test_spec_round_trip(self):
        for text in ("top1", "empty", "other:entity"):
            assert FallbackPolicy.parse(text).spec() == text


class TestScoredLabel:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ScoredLabel(label=parse_label("person"), score=1.2)
        with pytest.raises(ValidationError):
            ScoredLabel(label=parse_label("person"), score=-0.01)


class TestPredict:
    def test_threshold_keeps_clearing_labels(self):
        ranking = _ranking({"person": 0.92, "athlete": 0.70, "location": 0.10})
        pred = predict(ranking, PredictionConfig(threshold=0.5), instance_id="i-1")
        assert pred.chosen == frozenset({"person", "athlete"})
        assert pred.instance_id == "i-1"

    def test_threshold_boundary_is_inclusive(self):
        ranking = _ranking({"person": 0.5, "athlete": 0.499})
        pred = predict(ranking, PredictionConfig(threshold=0.5))
        assert pred.chosen == frozenset({"person"})

    def test_top1_fallback(self):
        ranking = _ranking({"person": 0.92, "athlete": 0.70})
        pred = predict(ranking, PredictionConfig(threshold=0.95))
        assert pred.chosen == frozenset({"person"})

    def test_empty_fallback(self):
        ranking = _ranking({"person": 0.4})
        config = PredictionConfig(threshold=0.9, fallback=FallbackPolicy.empty())
        assert predict(ranking, config).chosen == frozenset()

    def test_other_fallback(self):
        ranking = _ranking({"person": 0.4})
        config = PredictionConfig(threshold=0.9, fallback=FallbackPolicy.other("entity"))
        assert predict(ranking, config).chosen == frozenset({"entity"})

    def test_zero_threshold_selects_everything(self):
        ranking = _ranking({"person": 0.0, "athlete": 0.3, "event": 1.0})
        pred = predict(ranking, PredictionConfig(threshold=0.0))
        assert pred.chosen == frozenset({"person", "athlete", "event"})

    def test_above_one_threshold_means_fallback_only(self):
        ranking = _ranking({"person": 1.0, "athlete": 0.9})
        pred = predict(ranking, PredictionConfig(threshold=1.5))
        assert pred.chosen == frozenset({"person"})

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValidationError):
            predict(Ranking([], []), PredictionConfig(threshold=0.5))

    def test_nan_threshold_rejected(self):
        with pytest.raises(ConfigError, match="nan"):
            PredictionConfig(threshold=float("nan"))

    def test_negative_topk_rejected(self):
        with pytest.raises(ConfigError, match="topk must be nonnegative, got -1"):
            PredictionConfig(threshold=0.5, topk=-1)

    def test_prediction_keeps_the_leading_topk_entries(self, flat_vocab):
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        ranking = rank_all_candidates(
            inst, flat_vocab, RawLabelScorer({"person": 0.8, "event": 0.3}),
            TemplateKind.TAXONOMIC,
        )
        for topk in (0, 2, len(ranking), len(ranking) + 3):
            pred = predict(ranking, PredictionConfig(threshold=0.5, topk=topk))
            assert isinstance(pred.top, Ranking)
            assert pred.top == ranking[:topk]
            assert pred.chosen == frozenset({"person"})

    def test_retained_memory_does_not_grow_with_the_vocabulary(self):
        def retained_per_prediction(size):
            vocab = LabelVocabulary.from_raws([f"l{i:05d}" for i in range(size)])
            scorer = OverlapScorer()
            instances = [
                mk_instance(id=f"t-{i}", mention="Sam", right=("ran", ".")) for i in range(8)
            ]
            # each hypothesis shares only "Sam" of its two content words with
            # the premise, so every label scores 0.5 and top1 is chosen
            config = PredictionConfig(threshold=0.9)
            rank_all_candidates(instances[0], vocab, scorer, config.template)  # warm memos
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                preds = [
                    predict(
                        rank_all_candidates(inst, vocab, scorer, config.template),
                        config, instance_id=inst.id,
                    )
                    for inst in instances
                ]
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del preds  # alive until the measurement
            return (after - before) / len(instances)

        # Free lists make the traced bytes drift by tens of bytes; a whole
        # ranking of 10,000 labels would add about 160 KiB.
        small, large = retained_per_prediction(100), retained_per_prediction(10_000)
        assert abs(large - small) <= 256

    def test_matches_oracle_sweep(self):
        rng = random.Random(808)
        raws = [f"l{i}" for i in range(10)]
        for trial in range(300):
            scores = {raw: rng.random() for raw in rng.sample(raws, rng.randint(2, 8))}
            threshold = rng.random()
            kind = rng.choice(("top1", "empty", "other"))
            fallback = (
                FallbackPolicy.other("entity") if kind == "other"
                else FallbackPolicy.parse(kind)
            )
            ranking = _ranking(scores)
            pred = predict(ranking, PredictionConfig(threshold=threshold, fallback=fallback))
            expected = oracle_predict(scores, threshold, kind, other_label="entity")
            assert pred.chosen == frozenset(expected)


class TestRanking:
    def test_order_and_tie_break(self, flat_vocab):
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        scorer = RawLabelScorer(
            {"athlete": 0.7, "currency": 0.7, "event": 0.9, "location": 0.1, "person": 0.7}
        )
        ranking = rank_all_candidates(inst, flat_vocab, scorer, TemplateKind.TAXONOMIC)
        assert [s.label.raw for s in ranking] == [
            "event", "athlete", "currency", "person", "location"
        ]

    def test_covers_vocabulary_once(self, flat_vocab):
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        ranking = rank_all_candidates(
            inst, flat_vocab, RawLabelScorer({}, default=0.2), TemplateKind.CONTEXTUAL
        )
        assert sorted(s.label.raw for s in ranking) == sorted(flat_vocab.sorted_raws)

    def test_matches_oracle_rank_sweep(self, flat_vocab):
        rng = random.Random(41)
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        for _ in range(200):
            scores = {raw: rng.choice(levels) for raw in flat_vocab.sorted_raws}
            ranking = rank_all_candidates(
                inst, flat_vocab, RawLabelScorer(scores), TemplateKind.TAXONOMIC
            )
            assert [s.label.raw for s in ranking] == oracle_rank(scores)

    def test_render_failures_score_zero_and_report(self, flat_vocab):
        # empty mention defeats every template
        inst = mk_instance(id="t-0", mention="", right=("ran", "."))
        seen = []
        ranking = rank_all_candidates(
            inst, flat_vocab, RawLabelScorer({}, default=0.9),
            TemplateKind.TAXONOMIC,
            on_render_error=lambda label, exc: seen.append(label.raw),
        )
        assert all(s.score == 0.0 for s in ranking)
        assert sorted(seen) == sorted(flat_vocab.sorted_raws)
        assert [s.label.raw for s in ranking] == sorted(flat_vocab.sorted_raws)

    def test_out_of_range_score_names_first_bad_label(self, flat_vocab):
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        cases = [
            ({"event": 1.5, "person": -0.2}, "event"),
            ({"location": 0.3, "person": -0.01}, "person"),
            ({"athlete": float("nan")}, "athlete"),
        ]
        for scores, first_bad in cases:
            with pytest.raises(ValidationError, match=f"for label '{first_bad}'"):
                rank_all_candidates(
                    inst, flat_vocab, RawLabelScorer(scores), TemplateKind.TAXONOMIC
                )

    def test_scorer_returning_too_few_scores_rejected(self, flat_vocab):
        class ShortScorer(RawLabelScorer):
            def score_batch(self, pairs):
                return super().score_batch(pairs)[1:]

        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        with pytest.raises(ValidationError, match="4 scores for 5 pairs"):
            rank_all_candidates(inst, flat_vocab, ShortScorer({}), TemplateKind.TAXONOMIC)

    def test_wrong_number_of_candidate_scores_rejected(self, flat_vocab):
        class ShortOverlap(OverlapScorer):
            def score_candidates(self, candidates):
                return super().score_candidates(candidates)[1:]

        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        with pytest.raises(ValidationError, match="4 scores for 5 pairs"):
            rank_all_candidates(inst, flat_vocab, ShortOverlap(), TemplateKind.TAXONOMIC)

    def test_overlap_ranking_builds_no_pairs(self, flat_vocab, monkeypatch):
        inst = mk_instance(id="t-0", mention="Sam", right=("the", "athlete", "ran", "."))
        athlete = [build_type_pair(inst, flat_vocab.get("athlete"), t) for t in TemplateKind]
        table = {(p.premise, p.hypothesis): 0.9 for p in athlete}
        built = []
        monkeypatch.setattr(
            templates.PremiseHypothesisPair, "__post_init__", lambda pair: built.append(pair)
        )
        for scorer in (OverlapScorer(), TableScorer(table), TrainableTableScorer(table)):
            for template in TemplateKind:
                ranking = rank_all_candidates(inst, flat_vocab, scorer, template)
                assert ranking[0].label.raw == "athlete"
        assert built == []

    def test_sends_the_text_of_build_type_pair(self):
        # "ggg" and "zzz" have no surface, so their hypotheses cannot render.
        blank = [TypeLabel(raw=raw, segments=(raw,), tier=Tier.UNSPECIFIED, surface="")
                 for raw in ("ggg", "zzz")]
        vocab = LabelVocabulary(
            [parse_label(raw) for raw in ("boxer", "head of state", "person", "/x/sports_team")]
            + blank
        )
        scores = {"boxer": 0.5, "head of state": 0.0, "person": 0.5, "/x/sports_team": 0.0}
        instances = [
            mk_instance(id="at-0", mention="champion", right=("won", ".")),
            mk_instance(id="inner", left=("The", "young"), mention="champion", right=("won",)),
        ]
        for inst in instances:
            for template in TemplateKind:
                scorer = RecordingScorer(scores)
                failed = []
                ranking = rank_all_candidates(
                    inst, vocab, scorer, template,
                    on_render_error=lambda label, exc: failed.append(label.raw),
                )
                expected = [
                    build_type_pair(inst, label, template)
                    for label in vocab if label.surface
                ]
                assert scorer.pairs == expected
                assert failed == ["ggg", "zzz"]
                assert [s.label.raw for s in ranking] == [
                    "boxer", "person", "/x/sports_team", "ggg", "head of state", "zzz"
                ]
        for inst, raw, hypothesis in [
            (instances[0], "head of state", "Head of state won ."),
            (instances[0], "/x/sports_team", "Sports team won ."),
            (instances[1], "head of state", "The young head of state won"),
        ]:
            scorer = RecordingScorer(scores)
            rank_all_candidates(inst, vocab, scorer, TemplateKind.SUBSTITUTION)
            assert {p.label_raw: p.hypothesis for p in scorer.pairs}[raw] == hypothesis

    def test_premise_rendered_once_per_mention(self, flat_vocab, monkeypatch):
        calls = []
        render_premise = templates.render_premise

        def counting(instance):
            calls.append(instance.id)
            return render_premise(instance)

        monkeypatch.setattr(templates, "render_premise", counting)
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        one_label = LabelVocabulary.from_raws(["person"])
        for template in TemplateKind:
            per_vocab = []
            for vocab in (one_label, flat_vocab):
                calls.clear()
                rank_all_candidates(inst, vocab, RawLabelScorer({}), template)
                per_vocab.append(len(calls))
            assert per_vocab[0] == per_vocab[1] <= 2

    def test_empty_vocab_rejected(self):
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        with pytest.raises(ValidationError):
            rank_all_candidates(
                inst, LabelVocabulary.from_raws([]), RawLabelScorer({}),
                TemplateKind.TAXONOMIC,
            )

    def test_monotone_transform_preserves_order(self, flat_vocab):
        rng = random.Random(6)
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        scores = {raw: rng.random() for raw in flat_vocab.sorted_raws}
        squashed = {raw: s * s for raw, s in scores.items()}
        base = rank_all_candidates(
            inst, flat_vocab, RawLabelScorer(scores), TemplateKind.TAXONOMIC
        )
        other = rank_all_candidates(
            inst, flat_vocab, RawLabelScorer(squashed), TemplateKind.TAXONOMIC
        )
        assert [s.label.raw for s in base] == [s.label.raw for s in other]


class TestOracleAgreement:
    RAWS = [f"t{i:02d}" for i in range(24)]
    LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
    EDGES = (-0.5, 0.0, 1.0, 1.5)

    def _scores(self, rng):
        # Coarse levels give ties; fine values give distinct scores.
        return {
            raw: rng.choice(self.LEVELS) if rng.random() < 0.6 else round(rng.random(), 2)
            for raw in self.RAWS
        }

    def test_rank_then_predict(self):
        rng = random.Random(3031)
        vocab = LabelVocabulary.from_raws(self.RAWS)
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        for trial in range(150):
            scores = self._scores(rng)
            ranking = rank_all_candidates(
                inst, vocab, RawLabelScorer(scores), TemplateKind.CONTEXTUAL
            )
            assert [s.label.raw for s in ranking] == oracle_rank(scores)
            thresholds = [*self.EDGES, rng.choice(list(scores.values())), rng.random()]
            for threshold in thresholds:
                for kind in ("top1", "empty", "other"):
                    config = PredictionConfig(threshold=threshold, fallback=_fallback(kind))
                    expected = oracle_predict(scores, threshold, kind, other_label="entity")
                    assert predict(ranking, config).chosen == frozenset(expected)

    def test_tune(self):
        rng = random.Random(3032)
        vocab = LabelVocabulary.from_raws(self.RAWS)
        for trial in range(40):
            instances, table, score_maps, gold_sets = [], {}, [], []
            for i in range(3):
                inst = mk_instance(
                    id=f"dev-{i}", mention=f"M{trial}x{i}", right=("ran", "."),
                    gold=rng.sample(self.RAWS, rng.randint(1, 3)),
                )
                scores = self._scores(rng)
                for raw, value in scores.items():
                    table[(f"M{trial}x{i} ran .", raw)] = value
                instances.append(inst)
                score_maps.append(scores)
                gold_sets.append(set(inst.gold_labels))
            dev = Dataset(name="dev", split="dev", instances=tuple(instances))
            candidates = {*self.EDGES, *self.LEVELS, round(rng.random(), 2)}
            grid = sorted(rng.sample(sorted(candidates), rng.randint(2, len(candidates))))
            for kind in ("top1", "empty", "other"):
                got = tune_threshold(
                    dev, vocab, PremiseLabelScorer(table), TemplateKind.TAXONOMIC,
                    grid=grid, fallback=_fallback(kind),
                )
                assert got == oracle_tune(
                    score_maps, gold_sets, grid, fallback=kind, other_label="entity"
                )


class TestMonotonicity:
    def test_chosen_sets_nest_downward(self):
        rng = random.Random(2024)
        raws = [f"l{i}" for i in range(10)]
        for trial in range(500):
            scores = {raw: rng.random() for raw in rng.sample(raws, rng.randint(3, 8))}
            ranking = _ranking(scores)
            thresholds = sorted(rng.random() for _ in range(6))
            previous = None
            for threshold in thresholds:
                config = PredictionConfig(
                    threshold=threshold, fallback=FallbackPolicy.empty()
                )
                chosen = predict(ranking, config).chosen
                if previous is not None:
                    assert chosen <= previous
                previous = chosen


class TestPredictDataset:
    def test_order_and_ids(self, flat_vocab):
        dataset = Dataset(
            name="d", split="test",
            instances=tuple(
                mk_instance(id=f"test-{i}", mention=m, right=("ran", "."))
                for i, m in enumerate(["Sam", "Kim", "Lee"])
            ),
        )
        preds = predict_dataset(
            dataset, flat_vocab, RawLabelScorer({"person": 0.8}),
            PredictionConfig(threshold=0.5),
        )
        assert [p.instance_id for p in preds] == ["test-0", "test-1", "test-2"]
        assert all(p.chosen == frozenset({"person"}) for p in preds)


class TestTuneThreshold:
    def _dev(self, rows):
        return Dataset(
            name="dev", split="dev",
            instances=tuple(
                mk_instance(id=f"dev-{i}", mention=m, right=("ran", "."), gold=g)
                for i, (m, g) in enumerate(rows)
            ),
        )

    def test_single_point_grid(self, flat_vocab):
        dev = self._dev([("Sam", ("person",))])
        scorer = RawLabelScorer({"person": 0.9})
        assert tune_threshold(
            dev, flat_vocab, scorer, TemplateKind.TAXONOMIC, grid=[0.3]
        ) == 0.3

    def test_ties_resolve_to_larger(self, flat_vocab):
        dev = self._dev([("Sam", ("person",))])
        scorer = RawLabelScorer({"person": 0.9})
        got = tune_threshold(
            dev, flat_vocab, scorer, TemplateKind.TAXONOMIC, grid=[0.2, 0.5, 0.8]
        )
        assert got == 0.8

    def test_interior_argmax(self, flat_vocab):
        dev = self._dev([("Sam", ("person",))])
        scorer = RawLabelScorer({"person": 0.6, "athlete": 0.45})
        got = tune_threshold(
            dev, flat_vocab, scorer, TemplateKind.TAXONOMIC,
            grid=[0.3, 0.5, 0.7], fallback=FallbackPolicy.empty(),
        )
        assert got == 0.5

    def test_empty_gold_set_raises(self, flat_vocab):
        dev = self._dev([("Sam", ("person",)), ("Kim", ())])
        scorer = RawLabelScorer({"person": 0.9})
        with pytest.raises(EvaluationError, match="empty gold label set for instance 'dev-1'"):
            tune_threshold(dev, flat_vocab, scorer, TemplateKind.TAXONOMIC)

    def test_empty_dev_gives_last_grid_value(self, flat_vocab):
        dev = self._dev([])
        scorer = RawLabelScorer({"person": 0.9})
        got = tune_threshold(
            dev, flat_vocab, scorer, TemplateKind.TAXONOMIC, grid=[0.2, 0.5, 0.8]
        )
        assert got == 0.8

    def test_dev_loose_macro_matches_loose_macro_of_predict_dataset(self, flat_vocab):
        dev = self._dev([
            ("Sam", ("person", "athlete")), ("Paris", ("location",)), ("the euro", ("currency",)),
        ])
        scorer = OverlapScorer()
        configs = [
            PredictionConfig(threshold, fallback)
            for threshold in (0.0, 0.2, 0.5, 0.9, 1.1)
            for fallback in (FallbackPolicy.top1(), FallbackPolicy.empty())
        ]
        golds = {inst.id: set(inst.gold_labels) for inst in dev}
        expected = [loose_macro(predict_dataset(dev, flat_vocab, scorer, c), golds) for c in configs]
        assert dev_loose_macro(dev, flat_vocab, scorer, configs) == expected

    def test_dev_configs_share_one_template(self, flat_vocab):
        dev = self._dev([("Sam", ("person",))])
        scorer = RawLabelScorer({"person": 0.9})
        mixed = [PredictionConfig(0.5), PredictionConfig(0.5, template=TemplateKind.SUBSTITUTION)]
        for configs in (mixed, []):
            with pytest.raises(ValidationError, match="share one template"):
                dev_loose_macro(dev, flat_vocab, scorer, configs)

    def test_earlier_rankings_are_dropped(self, flat_vocab, monkeypatch):
        """Each time a mention is ranked, no earlier mention's ranking is alive."""
        dev = self._dev([(m, ("person",)) for m in ("Sam", "Kim", "Lee", "Bo")])
        scorer = RawLabelScorer({"person": 0.9, "athlete": 0.4})
        rank = inference.rank_all_candidates
        live = []

        def rank_and_count(*args, **kwargs):
            live.append(sum(isinstance(o, Ranking) for o in gc.get_objects()))
            return rank(*args, **kwargs)

        monkeypatch.setattr(inference, "rank_all_candidates", rank_and_count)
        gc.collect()
        before = sum(isinstance(o, Ranking) for o in gc.get_objects())
        tune_threshold(dev, flat_vocab, scorer, TemplateKind.TAXONOMIC)
        assert live == [before] * len(dev)

    def test_grid_validation(self, flat_vocab):
        dev = self._dev([("Sam", ("person",))])
        scorer = RawLabelScorer({"person": 0.9})
        with pytest.raises(ValidationError):
            tune_threshold(dev, flat_vocab, scorer, TemplateKind.TAXONOMIC, grid=[])
        with pytest.raises(ValidationError):
            tune_threshold(
                dev, flat_vocab, scorer, TemplateKind.TAXONOMIC, grid=[0.5, 0.5]
            )
        with pytest.raises(ValidationError):
            tune_threshold(
                dev, flat_vocab, scorer, TemplateKind.TAXONOMIC, grid=[0.6, 0.4]
            )
        for grid in ([0.2, float("nan"), 0.6], [float("nan"), 0.4]):
            with pytest.raises(ValidationError):
                tune_threshold(dev, flat_vocab, scorer, TemplateKind.TAXONOMIC, grid=grid)

    def test_matches_oracle_sweep(self, flat_vocab):
        rng = random.Random(97)
        raws = list(flat_vocab.sorted_raws)
        for trial in range(50):
            rows = []
            table = {}
            score_maps = []
            gold_sets = []
            for i in range(4):
                mention = f"M{trial}x{i}"
                gold = tuple(sorted(rng.sample(raws, rng.randint(1, 3))))
                rows.append((mention, gold))
                premise = f"{mention} ran ."
                per_label = {raw: round(rng.random(), 3) for raw in raws}
                for raw, s in per_label.items():
                    table[(premise, raw)] = s
                score_maps.append(per_label)
                gold_sets.append(set(gold))
            dev = self._dev(rows)
            grid = sorted(rng.sample([i / 20 for i in range(1, 20)], rng.randint(3, 8)))
            got = tune_threshold(
                dev, flat_vocab, PremiseLabelScorer(table), TemplateKind.TAXONOMIC,
                grid=grid,
            )
            assert got == oracle_tune(score_maps, gold_sets, grid, fallback="top1")


class TestSerialization:
    def test_record_shape_and_truncation(self):
        scores = {f"l{i:02d}": (19 - i) / 20 for i in range(12)}
        ranking = _ranking(scores)
        pred = predict(ranking, PredictionConfig(threshold=0.88), instance_id="test-000003")
        record = prediction_to_record(pred, topk=3)
        assert set(record) == {"instance_id", "chosen", "topk"}
        assert record["instance_id"] == "test-000003"
        assert record["chosen"] == ["l00", "l01"]
        assert [r["label"] for r in record["topk"]] == ["l00", "l01", "l02"]

    def test_default_keeps_every_kept_entry(self):
        scores = {f"l{i:02d}": (19 - i) / 20 for i in range(15)}
        config = PredictionConfig(threshold=0.4, topk=12)
        pred = predict(_ranking(scores), config, instance_id="x")
        record = prediction_to_record(pred)
        assert [r["label"] for r in record["topk"]] == [f"l{i:02d}" for i in range(12)]
        assert prediction_to_record(pred, 3)["topk"] == record["topk"][:3]

    def test_chosen_list_is_sorted(self):
        ranking = _ranking({"zebra": 0.9, "ant": 0.9, "mole": 0.9})
        pred = predict(ranking, PredictionConfig(threshold=0.5), instance_id="x")
        assert prediction_to_record(pred)["chosen"] == ["ant", "mole", "zebra"]


class TestDefaultGrid:
    def test_shape(self):
        assert DEFAULT_GRID == tuple(i / 20 for i in range(1, 20))
        assert len(DEFAULT_GRID) == 19
        assert DEFAULT_GRID[0] == 0.05 and DEFAULT_GRID[-1] == 0.95
        assert all(b > a for a, b in zip(DEFAULT_GRID, DEFAULT_GRID[1:]))
