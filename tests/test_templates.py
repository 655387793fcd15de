"""Hypothesis rendering and premise-hypothesis pair assembly."""

import pytest

from entail_typing import (
    DependencyPair,
    LabelVocabulary,
    PairKind,
    RenderingError,
    TemplateKind,
    Tier,
    TypeLabel,
    UnsupportedTemplateError,
    ValidationError,
    build_dependency_pair,
    build_type_pair,
    parse_label,
    render_description,
    render_premise,
    type_candidates,
)
from entail_typing.templates import pair_to_record

from conftest import mk_instance, mk_pair


JAY_RIGHT = (
    "is currently working on his Spring 09 collection , which is being "
    "sponsored by the YKK Group ."
).split()


class TestRenderDescription:
    def test_taxonomic(self):
        inst = mk_instance(mention="Jay", right=JAY_RIGHT)
        out = render_description(TemplateKind.TAXONOMIC, inst, parse_label("producer"))
        assert out == "Jay is a producer."

    def test_contextual(self):
        inst = mk_instance(left=("His",), mention="career at a company", right=("ended", "."))
        out = render_description(TemplateKind.CONTEXTUAL, inst, parse_label("duration"))
        assert out == "In this context, career at a company is referring to duration."

    def test_substitution_sentence_initial_capitalizes(self):
        inst = mk_instance(
            mention="He", right="knows how to make a hip-hop record sound good.".split()
        )
        out = render_description(TemplateKind.SUBSTITUTION, inst, parse_label("musician"))
        assert out == "Musician knows how to make a hip-hop record sound good."

    def test_substitution_mid_sentence_not_capitalized(self):
        inst = mk_instance(left=("Yesterday",), mention="he", right=("left", "."))
        out = render_description(TemplateKind.SUBSTITUTION, inst, parse_label("musician"))
        assert out == "Yesterday musician left ."

    def test_substitution_targets_the_mention_slot(self):
        # the same word appears earlier in the sentence; only the mention
        # position may be replaced
        inst = mk_instance(left=("Jay", "told"), mention="Jay", right=("to", "go", "."))
        out = render_description(TemplateKind.SUBSTITUTION, inst, parse_label("singer"))
        assert out == "Jay told singer to go ."

    def test_substitution_multiword_surface(self):
        inst = mk_instance(mention="He", right=("left", "."))
        out = render_description(TemplateKind.SUBSTITUTION, inst, parse_label("head of state"))
        assert out == "Head of state left ."

    def test_article_is_never_inflected(self):
        inst = mk_instance(mention="Ann", right=("runs", "."))
        out = render_description(TemplateKind.TAXONOMIC, inst, parse_label("athlete"))
        assert out == "Ann is a athlete."

    def test_underscore_label_surface(self):
        inst = mk_instance(mention="It", right=("grew", "."))
        out = render_description(TemplateKind.TAXONOMIC, inst, parse_label("/living_thing"))
        assert out == "It is a living thing."

    def test_empty_mention_rejected(self):
        inst = mk_instance(mention="", right=("x",), gold=("t",))
        for template in TemplateKind:
            with pytest.raises(RenderingError):
                render_description(template, inst, parse_label("person"))

    def test_purity(self):
        inst = mk_instance(left=("The",), mention="man", right=("sat", "."))
        label = parse_label("person")
        for template in TemplateKind:
            a = render_description(template, inst, label)
            b = render_description(template, inst, label)
            assert a == b


class TestTypePairs:
    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValidationError, match="empty hypothesis for instance 'i-0'"):
            mk_pair("p", "")

    def test_fields(self):
        inst = mk_instance(id="dev-000003", mention="Jay", right=JAY_RIGHT)
        pair = build_type_pair(inst, parse_label("producer"), TemplateKind.TAXONOMIC)
        assert pair.premise == render_premise(inst)
        assert pair.hypothesis == "Jay is a producer."
        assert pair.kind is PairKind.TYPE
        assert pair.instance_id == "dev-000003"
        assert pair.label_raw == "producer"

    def test_contextual_prefix(self):
        inst = mk_instance(mention="Jay", right=("sang", "."))
        pair = build_type_pair(inst, parse_label("singer"), TemplateKind.CONTEXTUAL)
        assert pair.hypothesis.startswith("In this context,")

    def test_substitution_differs_only_at_mention(self):
        inst = mk_instance(left=("The", "young"), mention="champion", right=("won", "."))
        pair = build_type_pair(inst, parse_label("boxer"), TemplateKind.SUBSTITUTION)
        assert pair.premise == "The young champion won ."
        assert pair.hypothesis == "The young boxer won ."

    def test_framed_hypotheses_contain_mention_and_surface(self):
        inst = mk_instance(left=("A",), mention="tall player", right=("scored", "."))
        for template in (TemplateKind.TAXONOMIC, TemplateKind.CONTEXTUAL):
            pair = build_type_pair(inst, parse_label("athlete"), template)
            assert "tall player" in pair.hypothesis
            assert "athlete" in pair.hypothesis

    def test_substitution_hypothesis_drops_mention(self):
        inst = mk_instance(left=("The",), mention="champion", right=("won", "."))
        pair = build_type_pair(inst, parse_label("boxer"), TemplateKind.SUBSTITUTION)
        assert "boxer" in pair.hypothesis
        assert "champion" not in pair.hypothesis

    def test_empty_premise_rejected(self):
        from entail_typing import PremiseHypothesisPair

        with pytest.raises(ValidationError):
            PremiseHypothesisPair(
                premise="",
                hypothesis="h",
                kind=PairKind.TYPE,
                instance_id="i",
                label_raw="l",
                template=TemplateKind.TAXONOMIC,
            )


class TestVocabularyCandidates:
    """``type_candidates`` given a vocabulary reuses its one surface tuple."""

    VOCAB = ["athlete", "/x/sports_team", "head of state"]

    @pytest.mark.parametrize("template", list(TemplateKind))
    @pytest.mark.parametrize("left", [("The",), ()], ids=["inside", "opening"])
    def test_same_as_the_label_tuple(self, template, left):
        vocab = LabelVocabulary.from_raws(self.VOCAB)
        instance = mk_instance(left=left, mention="champion", right=("won", "."))
        given_vocab = type_candidates(instance, vocab, template)
        given_labels = type_candidates(instance, vocab.labels, template)
        assert given_vocab.pairs() == given_labels.pairs()
        assert list(given_vocab.surfaces) == given_labels.surfaces
        # a capitalized substitution takes the vocabulary's capitalized twin
        capitalized = template is TemplateKind.SUBSTITUTION and not left
        assert given_vocab.labels is vocab.labels
        assert given_vocab.surfaces is (
            vocab.capitalized_surfaces if capitalized else vocab.surfaces)

    def test_sentence_start_mentions_share_one_capitalized_tuple(self):
        vocab = LabelVocabulary.from_raws(self.VOCAB)
        first, second = (
            type_candidates(mk_instance(mention=mention, right=("won", ".")), vocab,
                            TemplateKind.SUBSTITUTION)
            for mention in ("Champion", "Kavo"))
        assert first.surfaces is second.surfaces is vocab.capitalized_surfaces
        assert first.surfaces == ("Sports team", "Athlete", "Head of state")
        assert first.labels is second.labels is vocab.labels
        assert not vocab.has_empty_surface

    def test_an_empty_surface_fails_under_the_capitalized_twin(self):
        labels = [parse_label(raw) for raw in self.VOCAB]
        blank = TypeLabel(raw="blank", segments=("blank",), tier=Tier.UNSPECIFIED, surface="")
        vocab = LabelVocabulary(labels + [blank])
        assert vocab.has_empty_surface
        failed = []
        candidates = type_candidates(mk_instance(mention="Kavo", right=("won", ".")), vocab,
                                     TemplateKind.SUBSTITUTION,
                                     lambda label, exc: failed.append(label.raw))
        assert failed == ["blank"] and candidates.failed == (2,)
        assert candidates.surfaces == ["Sports team", "Athlete", "Head of state"]

    def test_failures_keep_the_vocabulary_order(self):
        vocab = LabelVocabulary.from_raws(self.VOCAB)
        instance = mk_instance(mention="")
        failed = []
        candidates = type_candidates(instance, vocab, TemplateKind.TAXONOMIC,
                                     lambda label, exc: failed.append(label.raw))
        assert failed == list(vocab.sorted_raws)
        assert candidates.failed == (0, 1, 2) and not candidates.labels


class TestDependencyPairs:
    def test_city_location(self):
        inst = mk_instance(mention="London", right=("hosted", "it", "."), gold=("/location/city",))
        dep = DependencyPair(
            descendant=parse_label("/location/city"), ancestor=parse_label("/location")
        )
        pair = build_dependency_pair(inst, dep, TemplateKind.TAXONOMIC)
        assert pair.premise == "London is a city."
        assert pair.hypothesis == "London is a location."
        assert pair.kind is PairKind.DEPENDENCY

    def test_boxer_person(self):
        inst = mk_instance(mention="Mike Tyson", right=("fought", "."), gold=("boxer",))
        dep = DependencyPair(descendant=parse_label("boxer"), ancestor=parse_label("person"))
        pair = build_dependency_pair(inst, dep, TemplateKind.TAXONOMIC)
        assert pair.premise == "Mike Tyson is a boxer."
        assert pair.hypothesis == "Mike Tyson is a person."

    def test_contextual_dependency(self):
        inst = mk_instance(mention="London", right=("called", "."), gold=("/location/city",))
        dep = DependencyPair(
            descendant=parse_label("/location/city"), ancestor=parse_label("/location")
        )
        pair = build_dependency_pair(inst, dep, TemplateKind.CONTEXTUAL)
        assert pair.premise == "In this context, London is referring to city."
        assert pair.hypothesis == "In this context, London is referring to location."

    def test_substitution_unsupported(self):
        inst = mk_instance(mention="London", right=("called", "."), gold=("/location/city",))
        dep = DependencyPair(
            descendant=parse_label("/location/city"), ancestor=parse_label("/location")
        )
        with pytest.raises(UnsupportedTemplateError):
            build_dependency_pair(inst, dep, TemplateKind.SUBSTITUTION)


class TestPairRecords:
    def test_record_keys_and_values(self):
        inst = mk_instance(id="train-000001", mention="Jay", right=("sang", "."))
        pair = build_type_pair(inst, parse_label("singer"), TemplateKind.TAXONOMIC)
        record = pair_to_record(pair)
        assert record == {
            "premise": "Jay sang .",
            "hypothesis": "Jay is a singer.",
            "kind": "type",
            "instance_id": "train-000001",
            "label": "singer",
            "template": "taxonomic",
        }
