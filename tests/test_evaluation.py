"""Metric semantics: loose macro, micro, strict accuracy, and buckets."""

import random
from dataclasses import dataclass

import pytest

from entail_typing import (
    EvaluationError,
    bucket_report,
    evaluate,
    format_bucket,
    loose_macro,
    micro,
    report_to_json,
    report_to_text,
    strict_accuracy,
)

from oracles import oracle_bucket, oracle_macro, oracle_micro, oracle_strict


@dataclass(frozen=True)
class P:
    instance_id: str
    chosen: frozenset


def mk(pairs):
    """(chosen, gold) list -> (preds, golds) keyed i-0, i-1, ..."""
    preds = [P(f"i-{n}", frozenset(chosen)) for n, (chosen, _) in enumerate(pairs)]
    golds = {f"i-{n}": set(gold) for n, (_, gold) in enumerate(pairs)}
    return preds, golds


class TestLooseMacro:
    def test_worked_example(self):
        preds, golds = mk([({"a", "b"}, {"a"}), ({"c"}, {"c", "d"})])
        p, r, f1 = loose_macro(preds, golds)
        assert p == pytest.approx(0.75)
        assert r == pytest.approx(0.75)
        assert f1 == pytest.approx(0.75)

    def test_perfect(self):
        preds, golds = mk([({"a"}, {"a"}), ({"b", "c"}, {"b", "c"})])
        assert loose_macro(preds, golds) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        preds, golds = mk([({"a"}, {"b"}), ({"c"}, {"d"})])
        assert loose_macro(preds, golds) == (0.0, 0.0, 0.0)

    def test_empty_chosen_costs_precision(self):
        preds, golds = mk([(set(), {"a"}), ({"b"}, {"b"})])
        p, r, _ = loose_macro(preds, golds)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)

    def test_f1_is_harmonic_of_averages_not_average_of_f1s(self):
        # per-instance F1s would average to 0.5; harmonic of P=0.5, R=0.5 is 0.5,
        # but with asymmetric P/R the two disagree
        preds, golds = mk([({"a", "b", "c", "d"}, {"a"}), ({"e"}, {"e", "f"})])
        p, r, f1 = loose_macro(preds, golds)
        assert p == pytest.approx((0.25 + 1.0) / 2)
        assert r == pytest.approx((1.0 + 0.5) / 2)
        assert f1 == pytest.approx(2 * p * r / (p + r))


class TestMicro:
    def test_worked_example(self):
        preds, golds = mk([({"a", "b"}, {"a"}), ({"c"}, {"c", "d"})])
        p, r, f1 = micro(preds, golds)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_no_chosen_anywhere(self):
        preds, golds = mk([(set(), {"a"})])
        assert micro(preds, golds) == (0.0, 0.0, 0.0)

    def test_single_label_world_micro_equals_macro(self):
        rng = random.Random(11)
        labels = ["a", "b", "c", "d"]
        for _ in range(100):
            pairs = [
                ({rng.choice(labels)}, {rng.choice(labels)}) for _ in range(rng.randint(1, 8))
            ]
            preds, golds = mk(pairs)
            ma = loose_macro(preds, golds)
            mi = micro(preds, golds)
            assert ma[0] == pytest.approx(mi[0])
            assert ma[1] == pytest.approx(mi[1])


class TestStrict:
    def test_exact_match_fraction(self):
        preds, golds = mk(
            [({"a"}, {"a"}), ({"a", "b"}, {"a"}), ({"c", "d"}, {"c", "d"}), ({"e"}, {"f"})]
        )
        assert strict_accuracy(preds, golds) == pytest.approx(0.5)

    def test_subset_is_not_exact(self):
        preds, golds = mk([({"a"}, {"a", "b"})])
        assert strict_accuracy(preds, golds) == 0.0


class TestAlignment:
    def test_duplicate_prediction_named(self):
        preds = [P("i-0", frozenset({"a"})), P("i-0", frozenset({"b"}))]
        golds = {"i-0": {"a"}}
        with pytest.raises(EvaluationError, match="i-0"):
            loose_macro(preds, golds)

    def test_unknown_instance_named(self):
        preds = [P("ghost-7", frozenset({"a"}))]
        with pytest.raises(EvaluationError, match="ghost-7"):
            loose_macro(preds, {"i-0": {"a"}})

    def test_missing_prediction_named(self):
        preds = [P("i-0", frozenset({"a"}))]
        golds = {"i-0": {"a"}, "i-9": {"b"}}
        with pytest.raises(EvaluationError, match="i-9"):
            micro(preds, golds)

    def test_empty_gold_named(self):
        preds = [P("i-3", frozenset({"a"}))]
        with pytest.raises(EvaluationError, match="i-3"):
            strict_accuracy(preds, {"i-3": set()})

    def test_prediction_order_does_not_matter(self):
        rng = random.Random(5)
        pairs = [({"a", "b"}, {"a"}), ({"c"}, {"c", "d"}), ({"d"}, {"d"})]
        preds, golds = mk(pairs)
        base = (loose_macro(preds, golds), micro(preds, golds), strict_accuracy(preds, golds))
        for _ in range(5):
            shuffled = preds[:]
            rng.shuffle(shuffled)
            got = (
                loose_macro(shuffled, golds),
                micro(shuffled, golds),
                strict_accuracy(shuffled, golds),
            )
            assert got == base


class TestBuckets:
    def test_restrict_then_score(self):
        preds, golds = mk([({"a", "x"}, {"a", "y"})])
        report = bucket_report(preds, golds, {(0, 5): {"a", "x", "y"}, (5, None): {"z"}})
        # the (5, None) bucket holds no gold labels, so it is omitted
        assert list(report) == [(0, 5)]
        p, r, f1 = report[(0, 5)]
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)

    def test_instance_without_bucket_gold_dropped(self):
        preds, golds = mk([({"a"}, {"a"}), ({"x"}, {"y"})])
        report = bucket_report(preds, golds, {(0, None): {"a"}})
        assert report[(0, None)] == (1.0, 1.0, 1.0)

    def test_single_bucket_covering_everything_equals_global(self):
        rng = random.Random(23)
        labels = [f"l{i}" for i in range(8)]
        for _ in range(50):
            pairs = [
                (
                    set(rng.sample(labels, rng.randint(0, 4))),
                    set(rng.sample(labels, rng.randint(1, 4))),
                )
                for _ in range(rng.randint(1, 6))
            ]
            preds, golds = mk(pairs)
            report = bucket_report(preds, golds, {(0, None): set(labels)})
            assert report[(0, None)] == loose_macro(preds, golds)

    def test_matches_oracle_sweep(self):
        rng = random.Random(303)
        labels = [f"l{i}" for i in range(8)]
        for _ in range(200):
            pairs = [
                (
                    set(rng.sample(labels, rng.randint(0, 4))),
                    set(rng.sample(labels, rng.randint(1, 4))),
                )
                for _ in range(rng.randint(1, 6))
            ]
            preds, golds = mk(pairs)
            cut = rng.randint(1, 7)
            buckets = {(0, 3): set(labels[:cut]), (3, None): set(labels[cut:])}
            report = bucket_report(preds, golds, buckets)
            chosen_sets = [set(pred.chosen) for pred in preds]
            gold_sets = [golds[pred.instance_id] for pred in preds]
            for bucket, bucket_labels in buckets.items():
                expected = oracle_bucket(chosen_sets, gold_sets, bucket_labels)
                if expected is None:
                    assert bucket not in report
                else:
                    got = report[bucket]
                    for a, b in zip(got, expected):
                        assert a == pytest.approx(b, abs=1e-12)


class TestFullReport:
    def test_matches_oracle_sweep(self):
        rng = random.Random(777)
        labels = [f"l{i}" for i in range(8)]
        for _ in range(300):
            pairs = [
                (
                    set(rng.sample(labels, rng.randint(0, 4))),
                    set(rng.sample(labels, rng.randint(1, 4))),
                )
                for _ in range(rng.randint(1, 10))
            ]
            preds, golds = mk(pairs)
            report = evaluate(preds, golds)
            chosen_sets = [set(pred.chosen) for pred in preds]
            gold_sets = [golds[pred.instance_id] for pred in preds]
            for got, want in zip(report.loose_macro, oracle_macro(chosen_sets, gold_sets)):
                assert got == pytest.approx(want, abs=1e-12)
            for got, want in zip(report.micro, oracle_micro(chosen_sets, gold_sets)):
                assert got == pytest.approx(want, abs=1e-12)
            assert report.strict_accuracy == pytest.approx(
                oracle_strict(chosen_sets, gold_sets), abs=1e-12
            )
            assert report.n_instances == len(pairs)

    def test_one_shot_generator_equals_list(self):
        preds, golds = mk([({"a", "b"}, {"a"}), ({"c"}, {"c", "d"}), (set(), {"b"})])
        buckets = {(0, 2): {"a", "b"}, (2, None): {"c", "d"}}
        streamed = evaluate((pred for pred in preds), golds, buckets)
        assert streamed == evaluate(preds, golds, buckets)
        assert streamed.per_bucket

    def test_json_shape(self):
        preds, golds = mk([({"a", "b"}, {"a"}), ({"c"}, {"c", "d"})])
        report = evaluate(preds, golds, buckets={(0, 2): {"a", "b"}, (2, None): {"c", "d"}})
        doc = report_to_json(report)
        assert set(doc) == {"n_instances", "loose_macro", "micro", "strict_accuracy", "per_bucket"}
        assert set(doc["loose_macro"]) == {"precision", "recall", "f1"}
        assert doc["n_instances"] == 2
        assert set(doc["per_bucket"]) == {"[0,2)", "[2,inf)"}
        assert doc["per_bucket"]["[0,2)"]["n_labels"] == 2

    def test_text_rendering_mentions_every_section(self):
        preds, golds = mk([({"a"}, {"a"})])
        report = evaluate(preds, golds, buckets={(0, None): {"a"}})
        text = report_to_text(report)
        assert "loose_macro" in text
        assert "micro" in text
        assert "strict_accuracy" in text
        assert f"bucket {format_bucket((0, None))}" in text
        assert text.endswith("\n")

    def test_deterministic(self):
        preds, golds = mk([({"a", "b"}, {"a"}), ({"c"}, {"c", "d"})])
        buckets = {(0, 2): {"a", "b"}, (2, None): {"c", "d"}}
        first = report_to_json(evaluate(preds, golds, buckets=buckets))
        second = report_to_json(evaluate(preds, golds, buckets=buckets))
        assert first == second
