"""Dataset loading, premise assembly, splits, and frequency buckets."""

import random

import pytest

from entail_typing import (
    Dataset,
    DatasetLoadError,
    FewShotSplitSpec,
    SchemaError,
    SplitError,
    ValidationError,
    frequency_buckets,
    load_ufet_jsonl,
    make_fewshot_split,
    render_premise,
)
from entail_typing.corpus import (
    format_bucket,
    instance_to_record,
    mention_span_in_premise,
    split_label_set,
    train_label_counts,
)

from conftest import mk_instance, ufet_record, write_jsonl


class TestLoader:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "dev.jsonl"
        write_jsonl(
            path,
            [
                ufet_record(["About"], "Jay", ["today", "."], ["producer", "person"]),
                ufet_record([], "She", ["sang", "."], ["singer"], annot_id="x9"),
            ],
        )
        dataset = load_ufet_jsonl(path, "dev")
        assert len(dataset) == 2
        assert dataset.split == "dev"
        first, second = list(dataset)
        assert first.id == "dev-000000"
        assert first.gold_labels == frozenset({"producer", "person"})
        assert second.extras == {"annot_id": "x9"}

    def test_ids_follow_line_order(self, tmp_path):
        path = tmp_path / "train.jsonl"
        write_jsonl(path, [ufet_record([], f"m{i}", [], ["t"]) for i in range(5)])
        dataset = load_ufet_jsonl(path, "train")
        assert [i.id for i in dataset] == [f"train-{n:06d}" for n in range(5)]

    def test_malformed_json_names_position(self, tmp_path):
        path = tmp_path / "train.jsonl"
        good = '{"left_context_token": [], "mention_span": "m", "right_context_token": [], "y_str": ["t"]}'
        path.write_text(good + "\n{oops\n", encoding="utf-8")
        with pytest.raises(DatasetLoadError) as err:
            load_ufet_jsonl(path, "train")
        assert f"{path}:2" in str(err.value)

    def test_oversized_integer_names_position(self, tmp_path):
        # json.loads raises a plain ValueError, not JSONDecodeError, here
        path = tmp_path / "train.jsonl"
        record = '{"left_context_token": [], "mention_span": "m", "right_context_token": [], '
        path.write_text(record + '"y_str": ["t"], "n": ' + "9" * 5000 + "}\n", encoding="utf-8")
        with pytest.raises(DatasetLoadError) as err:
            load_ufet_jsonl(path, "train")
        assert f"{path}:1: malformed JSON" in str(err.value)

    def test_non_utf8_byte_names_position(self, tmp_path):
        path = tmp_path / "train.jsonl"
        write_jsonl(path, [ufet_record([], "m", [], ["t"])])
        path.write_bytes(path.read_bytes() + b'{"mention_span": "\xff"}\n')
        with pytest.raises(DatasetLoadError) as err:
            load_ufet_jsonl(path, "train")
        assert f"{path}:2: not UTF-8" in str(err.value)

    def test_missing_key_names_key(self, tmp_path):
        path = tmp_path / "train.jsonl"
        record = ufet_record([], "m", [], ["t"])
        del record["y_str"]
        write_jsonl(path, [record])
        with pytest.raises(SchemaError) as err:
            load_ufet_jsonl(path, "train")
        assert "y_str" in str(err.value)

    def test_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "train.jsonl"
        record = ufet_record([], "m", [], ["t"])
        record["mention_span"] = 7
        write_jsonl(path, [record])
        with pytest.raises(SchemaError):
            load_ufet_jsonl(path, "train")

    def test_newline_in_mention_rejected(self, tmp_path):
        path = tmp_path / "train.jsonl"
        write_jsonl(path, [ufet_record([], "a\nb", [], ["t"])])
        with pytest.raises(ValidationError):
            load_ufet_jsonl(path, "train")

    def test_empty_labels_rejected_on_train_but_not_test(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [ufet_record([], "m", [], [])])
        with pytest.raises(ValidationError):
            load_ufet_jsonl(path, "train")
        dataset = load_ufet_jsonl(path, "test")
        assert list(dataset)[0].gold_labels == frozenset()

    def test_round_trip_through_records(self, tmp_path):
        path = tmp_path / "dev.jsonl"
        original = [ufet_record(["x"], "m", ["y"], ["b", "a"], note="keep")]
        write_jsonl(path, original)
        dataset = load_ufet_jsonl(path, "dev")
        record = instance_to_record(list(dataset)[0])
        assert record["y_str"] == ["a", "b"]
        assert record["note"] == "keep"
        assert list(record)[:4] == [
            "left_context_token",
            "mention_span",
            "right_context_token",
            "y_str",
        ]


class TestDataset:
    def test_split_validated(self):
        with pytest.raises(ValidationError):
            Dataset(name="d", split="validation", instances=())

    def test_duplicate_ids_rejected(self):
        a = mk_instance(id="i-0")
        b = mk_instance(id="i-0", mention="Other")
        with pytest.raises(ValidationError):
            Dataset(name="d", split="train", instances=(a, b))


class TestPremise:
    def test_joins_segments_with_spaces(self):
        inst = mk_instance(left=("He", "met"), mention="Mike Tyson", right=("today", "."))
        assert render_premise(inst) == "He met Mike Tyson today ."

    def test_empty_contexts(self):
        assert render_premise(mk_instance(left=(), mention="Jay", right=())) == "Jay"
        inst = mk_instance(left=(), mention="Jay", right=("sang", "."))
        assert render_premise(inst) == "Jay sang ."

    def test_token_spacing_is_preserved_not_detokenized(self):
        inst = mk_instance(left=("Well", ","), mention="Jay", right=("left", "."))
        assert render_premise(inst) == "Well , Jay left ."

    def test_mention_span_is_exact(self):
        for left, right in [((), ()), (("a", "bb"), ("c",)), (("x",), ())]:
            inst = mk_instance(left=left, mention="the mention", right=right)
            premise = render_premise(inst)
            start, end = mention_span_in_premise(inst)
            assert premise[start:end] == "the mention"


class TestFewShotSplit:
    def _datasets(self):
        train = Dataset(
            name="t",
            split="train",
            instances=tuple(
                mk_instance(id=f"train-{i}", mention=f"m{i}", gold=gold)
                for i, gold in enumerate(
                    [("person",), ("person", "boxer"), ("city",), ("boxer",), ("event",)]
                )
            ),
        )
        test = Dataset(
            name="t",
            split="test",
            instances=tuple(
                mk_instance(id=f"test-{i}", mention=f"m{i}", gold=gold)
                for i, gold in enumerate([("person",), ("boxer",), ("city",), ("event",)])
            ),
        )
        return train, test

    def test_holds_out_target_fraction(self):
        train, test = self._datasets()
        spec = FewShotSplitSpec(target_unseen_fraction=0.5, seed=11)
        filtered, heldout = make_fewshot_split(train, test, spec)
        assert len(heldout) == round(0.5 * len(split_label_set(test)))
        for inst in filtered:
            assert not (inst.gold_labels & heldout)

    def test_deterministic_per_seed(self):
        train, test = self._datasets()
        spec = FewShotSplitSpec(target_unseen_fraction=0.5, seed=3)
        _, h1 = make_fewshot_split(train, test, spec)
        _, h2 = make_fewshot_split(train, test, spec)
        assert h1 == h2
        _, h3 = make_fewshot_split(train, test, FewShotSplitSpec(0.5, seed=4))
        # a different seed is allowed to pick the same set, but across this
        # label pool seeds 3 and 4 differ; pin that as a regression anchor
        assert h3 != h1

    def test_zero_fraction_keeps_everything(self):
        train, test = self._datasets()
        filtered, heldout = make_fewshot_split(train, test, FewShotSplitSpec(0.0, seed=1))
        assert heldout == set()
        assert len(filtered) == len(train)

    def test_impossible_fraction_reports_achievable_maximum(self):
        train = Dataset(
            name="t",
            split="train",
            instances=(mk_instance(id="train-0", gold=("person",)),),
        )
        test = Dataset(
            name="t",
            split="test",
            instances=(mk_instance(id="test-0", gold=("person",)),),
        )
        with pytest.raises(SplitError):
            make_fewshot_split(train, test, FewShotSplitSpec(1.0, seed=0))

    def test_fraction_validated(self):
        with pytest.raises(ValidationError):
            FewShotSplitSpec(target_unseen_fraction=1.5, seed=0)


class TestFrequencyBuckets:
    def _datasets(self):
        gold_lists = [("person",)] * 7 + [("person", "boxer")] * 2 + [("city",)]
        train = Dataset(
            name="t",
            split="train",
            instances=tuple(
                mk_instance(id=f"train-{i}", mention=f"m{i}", gold=g)
                for i, g in enumerate(gold_lists)
            ),
        )
        test = Dataset(
            name="t",
            split="test",
            instances=(
                mk_instance(id="test-0", gold=("person", "boxer", "ghost")),
                mk_instance(id="test-1", gold=("city",)),
            ),
        )
        return train, test

    def test_assignment(self):
        train, test = self._datasets()
        buckets = frequency_buckets(train, test, (0, 1, 5))
        assert buckets[(0, 1)] == {"ghost"}
        assert buckets[(1, 5)] == {"boxer", "city"}
        assert buckets[(5, None)] == {"person"}

    def test_counts(self):
        train, _ = self._datasets()
        counts = train_label_counts(train)
        assert counts["person"] == 9
        assert counts["boxer"] == 2
        assert counts["ghost"] == 0

    def test_all_buckets_present_even_when_empty(self):
        train, test = self._datasets()
        buckets = frequency_buckets(train, test, (0, 100, 200))
        assert set(buckets) == {(0, 100), (100, 200), (200, None)}
        assert buckets[(100, 200)] == set()

    def test_edges_validated(self):
        train, test = self._datasets()
        with pytest.raises(ValidationError):
            frequency_buckets(train, test, (1, 5))
        with pytest.raises(ValidationError):
            frequency_buckets(train, test, (0, 5, 5))
        with pytest.raises(ValidationError):
            frequency_buckets(train, test, (0, True))
        with pytest.raises(ValidationError):
            frequency_buckets(train, test, (0, float("nan")))

    def test_format(self):
        assert format_bucket((0, 1)) == "[0,1)"
        assert format_bucket((10, None)) == "[10,inf)"


class TestRandomizedSweeps:
    def test_fewshot_respects_heldout_exclusion(self):
        rng = random.Random(20240817)
        labels = [f"type{i}" for i in range(12)]
        for trial in range(50):
            train_instances = tuple(
                mk_instance(
                    id=f"train-{i}",
                    mention=f"m{i}",
                    gold=tuple(rng.sample(labels, rng.randint(1, 3))),
                )
                for i in range(rng.randint(4, 10))
            )
            test_instances = tuple(
                mk_instance(
                    id=f"test-{i}",
                    mention=f"m{i}",
                    gold=tuple(rng.sample(labels, rng.randint(1, 3))),
                )
                for i in range(rng.randint(3, 8))
            )
            train = Dataset(name="t", split="train", instances=train_instances)
            test = Dataset(name="t", split="test", instances=test_instances)
            spec = FewShotSplitSpec(0.3, seed=trial)
            try:
                filtered, heldout = make_fewshot_split(train, test, spec)
            except SplitError:
                continue
            pool = split_label_set(test)
            assert heldout <= pool
            assert abs(len(heldout) - 0.3 * len(pool)) <= 0.5 + 1e-9
            for inst in filtered:
                assert not (inst.gold_labels & heldout)
                assert inst.gold_labels
