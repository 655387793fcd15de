"""Label parsing, ancestor derivation, dependency pairs, negative sampling."""

import random

import pytest

from entail_typing import (
    DatasetLoadError,
    DependencyPair,
    LabelVocabulary,
    SamplingError,
    Tier,
    ValidationError,
    ancestors,
    induce_dependency_pairs,
    load_vocabulary,
    parse_label,
    positive_label_set,
    sample_negative_ancestor,
    sample_negative_type,
)


def raw_pairs(pairs):
    return sorted((p.descendant.raw, p.ancestor.raw) for p in pairs)


class TestParseLabel:
    def test_hierarchical(self):
        label = parse_label("/location/transit/bridge")
        assert label.segments == ("location", "transit", "bridge")
        assert label.surface == "bridge"
        assert label.hierarchical

    def test_flat(self):
        label = parse_label("currency")
        assert label.segments == ("currency",)
        assert label.surface == "currency"
        assert not label.hierarchical

    def test_two_level(self):
        assert parse_label("/art/film").surface == "film"

    def test_underscores_become_spaces_in_surface(self):
        label = parse_label("/living_thing")
        assert label.surface == "living thing"
        assert label.raw == "/living_thing"

    def test_multiword_flat_surface_kept(self):
        assert parse_label("head of state").surface == "head of state"

    def test_empty_and_slash_only_rejected(self):
        with pytest.raises(ValidationError):
            parse_label("")
        with pytest.raises(ValidationError):
            parse_label("/")
        with pytest.raises(ValidationError):
            parse_label("///")

    def test_tier_lookup(self, tier_vocab):
        assert tier_vocab.get("boxer").tier is Tier.ULTRAFINE
        assert tier_vocab.get("sportsman").tier is Tier.FINE
        assert tier_vocab.get("person").tier is Tier.GENERAL

    def test_tier_unspecified_without_partition(self):
        assert parse_label("boxer").tier is Tier.UNSPECIFIED

    def test_idempotent_on_raw(self):
        rng = random.Random(5)
        alphabet = "abc_/"
        for _ in range(200):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            try:
                label = parse_label(raw)
            except ValidationError:
                continue
            again = parse_label(label.raw)
            assert again == label


class TestAncestors:
    def test_path_prefixes_nearest_first(self, onto_vocab):
        label = onto_vocab.get("/location/transit/bridge")
        assert [a.raw for a in ancestors(label, onto_vocab)] == [
            "/location/transit",
            "/location",
        ]

    def test_flat_label_has_none(self, flat_vocab):
        assert ancestors(flat_vocab.get("currency"), flat_vocab) == []

    def test_single_step(self, onto_vocab):
        label = onto_vocab.get("/location/city")
        assert [a.raw for a in ancestors(label, onto_vocab)] == ["/location"]

    def test_implicit_ancestor_synthesized(self):
        vocab = LabelVocabulary.from_raws(["/a/b/c"])
        label = vocab.get("/a/b/c")
        assert [a.raw for a in ancestors(label, vocab)] == ["/a/b", "/a"]

    def test_never_contains_self(self, onto_vocab):
        for label in onto_vocab:
            for anc in ancestors(label, onto_vocab):
                assert anc.raw != label.raw
                assert len(anc.segments) < len(label.segments)


class TestDependencyPairs:
    def test_three_generation_tier_example(self, tier_vocab):
        gold = {tier_vocab.get("person"), tier_vocab.get("sportsman"), tier_vocab.get("boxer")}
        assert raw_pairs(induce_dependency_pairs(gold, tier_vocab)) == [
            ("boxer", "person"),
            ("boxer", "sportsman"),
            ("sportsman", "person"),
        ]

    def test_single_general_label_yields_nothing(self, tier_vocab):
        assert induce_dependency_pairs({tier_vocab.get("person")}, tier_vocab) == set()

    def test_same_tier_labels_not_paired(self, tier_vocab):
        gold = {tier_vocab.get("boxer"), tier_vocab.get("guitarist")}
        assert induce_dependency_pairs(gold, tier_vocab) == set()

    def test_ontology_ancestor_induction(self, onto_vocab):
        gold = {onto_vocab.get("/location/city")}
        assert raw_pairs(induce_dependency_pairs(gold, onto_vocab)) == [
            ("/location/city", "/location")
        ]
        positives = positive_label_set(gold, onto_vocab)
        assert sorted(l.raw for l in positives) == ["/location", "/location/city"]

    def test_ontology_deep_chain(self, onto_vocab):
        gold = {onto_vocab.get("/location/transit/bridge")}
        assert raw_pairs(induce_dependency_pairs(gold, onto_vocab)) == [
            ("/location/transit", "/location"),
            ("/location/transit/bridge", "/location"),
            ("/location/transit/bridge", "/location/transit"),
        ]

    def test_flat_vocab_yields_nothing(self, flat_vocab):
        gold = {flat_vocab.get("currency"), flat_vocab.get("person")}
        assert induce_dependency_pairs(gold, flat_vocab) == set()

    def test_empty_gold_rejected(self, flat_vocab):
        with pytest.raises(ValidationError):
            induce_dependency_pairs(set(), flat_vocab)

    def test_reflexive_pair_rejected(self, tier_vocab):
        boxer = tier_vocab.get("boxer")
        with pytest.raises(ValidationError):
            DependencyPair(descendant=boxer, ancestor=boxer)

    def test_tier_pairs_point_strictly_finer_to_coarser(self, tier_vocab):
        rng = random.Random(77)
        raws = list(tier_vocab.sorted_raws)
        for _ in range(100):
            gold = {tier_vocab.get(r) for r in rng.sample(raws, rng.randint(1, 5))}
            for pair in induce_dependency_pairs(gold, tier_vocab):
                assert pair.descendant.tier.fineness < pair.ancestor.tier.fineness


class TestVocabulary:
    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            LabelVocabulary.from_raws(["a", "a"])

    def test_ontology_detection(self, onto_vocab, flat_vocab):
        assert onto_vocab.has_ontology
        assert not flat_vocab.has_ontology

    def test_sorted_iteration(self, flat_vocab):
        assert [l.raw for l in flat_vocab] == sorted(flat_vocab.sorted_raws)

    def test_labels_tuple_built_once_on_first_use(self):
        vocab = LabelVocabulary.from_raws(["person", "/x/sports_team", "boxer", "head of state"])
        assert "labels" not in vars(vocab)
        labels = vocab.labels
        assert [l.raw for l in labels] == ["/x/sports_team", "boxer", "head of state", "person"]
        assert labels == tuple(vocab.get(raw) for raw in vocab.sorted_raws)
        assert tuple(vocab) == labels
        assert all(a is b for a, b in zip(vocab, labels))
        assert vocab.labels is labels

    def test_file_loading(self, tmp_path):
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("person\nboxer\n\nsportsman\n", encoding="utf-8")
        tier_file = tmp_path / "tiers.tsv"
        tier_file.write_text(
            "person\tgeneral\nboxer\tultra-fine\nsportsman\tfine\n", encoding="utf-8"
        )
        vocab = load_vocabulary(vocab_file, tier_file)
        assert len(vocab) == 3
        assert vocab.get("boxer").tier is Tier.ULTRAFINE
        assert vocab.get("sportsman").tier is Tier.FINE

    def test_bad_tier_line_rejected(self, tmp_path):
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("person\n", encoding="utf-8")
        tier_file = tmp_path / "tiers.tsv"
        tier_file.write_text("person general\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_vocabulary(vocab_file, tier_file)
        tier_file.write_text("person\tmega\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_vocabulary(vocab_file, tier_file)

    def test_non_utf8_files_name_path_and_line(self, tmp_path):
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_bytes(b"person\nbox\xe9r\n")
        with pytest.raises(DatasetLoadError, match=r"vocab\.txt:2: not UTF-8"):
            load_vocabulary(vocab_file)
        vocab_file.write_text("person\n", encoding="utf-8")
        tier_file = tmp_path / "tiers.tsv"
        tier_file.write_bytes(b"person\tgen\xe9ral\n")
        with pytest.raises(DatasetLoadError, match=r"tiers\.tsv:1: not UTF-8"):
            load_vocabulary(vocab_file, tier_file)


class TestNegativeSampling:
    def test_exclusion_forced(self):
        vocab = LabelVocabulary.from_raws(["a", "b", "c", "d"])
        rng = random.Random(0)
        for _ in range(50):
            pick = sample_negative_type(vocab, {"a", "b"}, rng)
            assert pick.raw in {"c", "d"}

    def test_empty_complement_errors(self):
        vocab = LabelVocabulary.from_raws(["a", "b"])
        with pytest.raises(SamplingError):
            sample_negative_type(vocab, {"a", "b"}, random.Random(0))

    def test_uniformity(self):
        vocab = LabelVocabulary.from_raws(["a", "b", "c", "d"])
        rng = random.Random(123)
        counts = {"c": 0, "d": 0}
        for _ in range(1000):
            counts[sample_negative_type(vocab, {"a", "b"}, rng).raw] += 1
        assert abs(counts["c"] / 1000 - 0.5) <= 0.05
        assert abs(counts["d"] / 1000 - 0.5) <= 0.05

    def test_never_returns_a_positive(self):
        rng = random.Random(42)
        for trial in range(200):
            size = rng.randint(2, 30)
            raws = [f"lbl{i}" for i in range(size)]
            vocab = LabelVocabulary.from_raws(raws)
            positives = set(rng.sample(raws, rng.randint(1, size - 1)))
            for _ in range(50):
                assert sample_negative_type(vocab, positives, rng).raw not in positives

    def test_ancestor_negative_restricted_to_ancestor_tier(self, tier_vocab):
        pair = DependencyPair(
            descendant=tier_vocab.get("boxer"), ancestor=tier_vocab.get("person")
        )
        rng = random.Random(9)
        for _ in range(100):
            pick = sample_negative_ancestor(pair, tier_vocab, {"person", "sportsman"}, rng)
            assert pick.raw in {"organization", "location"}

    def test_ancestor_negative_forced_pool(self):
        vocab = LabelVocabulary.from_raws(["a", "b", "c"])
        pair = DependencyPair(descendant=vocab.get("a"), ancestor=vocab.get("b"))
        pick = sample_negative_ancestor(pair, vocab, {"b"}, random.Random(1))
        assert pick.raw == "c"

    def test_ancestor_negative_empty_pool_errors(self):
        vocab = LabelVocabulary.from_raws(["a", "b"])
        pair = DependencyPair(descendant=vocab.get("a"), ancestor=vocab.get("b"))
        with pytest.raises(SamplingError):
            sample_negative_ancestor(pair, vocab, {"b"}, random.Random(1))

    def test_heavy_exclusion_still_uniform(self):
        # exclusion majority forces the fallback path; it must stay uniform
        raws = [f"l{i:02d}" for i in range(20)]
        vocab = LabelVocabulary.from_raws(raws)
        positives = set(raws[:18])
        rng = random.Random(7)
        counts = {raws[18]: 0, raws[19]: 0}
        for _ in range(1000):
            counts[sample_negative_type(vocab, positives, rng).raw] += 1
        assert abs(counts[raws[18]] / 1000 - 0.5) <= 0.05
