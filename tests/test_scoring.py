"""Scorer implementations, the external wire protocol, and the score cache."""

import array
import dataclasses
import hashlib
import json
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import entail_typing.inference as inference
import entail_typing.scoring as scoring
import entail_typing.templates as templates
from entail_typing import (
    CacheError,
    CachedScorer,
    ConfigError,
    DatasetLoadError,
    EntailmentScorer,
    ExternalScorer,
    ExternalTrainableScorer,
    LabelVocabulary,
    OverlapScorer,
    PredictionConfig,
    ProtocolError,
    ScoreCache,
    ScoreGroups,
    TableScorer,
    TemplateKind,
    Tier,
    TrainableTableScorer,
    TransportError,
    TypeLabel,
    ValidationError,
    load_ufet_jsonl,
    load_vocabulary,
    overlap_score,
    predict,
    prediction_to_record,
    rank_all_candidates,
    type_candidates,
)
from entail_typing.scoring import CheckedScores, scorer_from_spec

from conftest import mk_instance, mk_pair
from oracles import SCAFFOLD, oracle_overlap, oracle_tokens

STUB = str(Path(__file__).parent / "external_stub.py")


def stub_command(mode="ok"):
    return [sys.executable, STUB, mode]


def reply_command(reply, copies=1):
    """An endpoint answering each request ``r`` with ``copies`` lines of JSON ``reply``.

    ``reply`` is a Python expression over the parsed request ``r``.
    """
    code = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    r = json.loads(line)\n"
        f"    for _ in range({copies}):\n"
        f"        print(json.dumps({reply}), flush=True)\n"
    )
    return [sys.executable, "-c", code]


def recorded_requests(endpoint):
    """Record the request list of every ``round_trip`` call on ``endpoint``."""
    sent = []
    real = endpoint.round_trip

    def recording(requests):
        sent.append(requests)
        return real(requests)

    endpoint.round_trip = recording
    return sent


class TestOverlap:
    def test_full_containment(self):
        pair = mk_pair("Jay is a famous producer", "Jay is a producer.")
        assert overlap_score(pair) == 1.0

    def test_disjoint(self):
        assert overlap_score(mk_pair("the sky is blue", "Jay is a producer.")) == 0.0

    def test_half(self):
        assert overlap_score(mk_pair("Jay released an album", "Jay is a producer.")) == 0.5

    def test_scaffold_words_do_not_count(self):
        # premise contains only scaffold words from the hypothesis
        assert overlap_score(mk_pair("this is a context", "Jay is a producer.")) == 0.0

    def test_empty_effective_hypothesis(self):
        assert overlap_score(mk_pair("anything at all", "is a . in this")) == 0.0

    def test_case_and_edge_punctuation_ignored(self):
        assert overlap_score(mk_pair("JAY, arrived", "Jay is a producer.")) == 0.5

    def test_matches_oracle_on_random_text(self):
        rng = random.Random(31)
        words = ["jay", "producer", "is", "a", "sky", "blue,", "Mike", "tyson.", "(boxer)"]
        scorer = OverlapScorer()
        for _ in range(500):
            premise = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
            hypothesis = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
            pair = mk_pair(premise, hypothesis)
            assert scorer.score(pair) == oracle_overlap(premise, hypothesis)

    def test_batch_equals_loop(self):
        scorer = OverlapScorer()
        pairs = [mk_pair(f"word{i} here", f"word{i} is a thing.") for i in range(10)]
        expected = [oracle_overlap(p.premise, p.hypothesis) for p in pairs]
        assert scorer.score_batch(pairs) == expected

    def test_batch_equals_loop_on_interleaved_and_repeated_premises(self):
        premises = ["Jay, a famous producer", "the sky is BLUE.", "Jay is a producer"]
        hypotheses = ["Jay is a producer.", "is a . in this", "sky is blue,", "Jay is a thing."]
        pairs = [
            mk_pair(premises[i % 3], hypotheses[(i * 7) % 4]) for i in range(24)
        ] + [mk_pair(premises[0], "this is a context referring to .")]
        batch = OverlapScorer().score_batch(pairs)
        assert batch == [oracle_overlap(p.premise, p.hypothesis) for p in pairs]
        assert 0.0 in batch and 1.0 in batch


# Words for mentions, contexts and label surfaces: scaffold words, words
# shared between contexts and labels, edge punctuation, punctuation-only
# tokens, and letters whose case mapping changes length or depends on
# context (final sigma).
_FUZZ_WORDS = [
    "Jay", "jay", "producer", "boxer", "head", "of", "state", "context", "is", "a",
    "In", "this", "referring", "to", ".", ",", "--", "(boxer)", "tyson.", "ß", "SS",
    "ss", "İ", "i̇", "ΑΣ", "ας", "σ", "Σ.", "ßoxer",
]


def _fuzz_surface(rng):
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(["...", "--", "!?", "."])
    surface = " ".join(rng.choice(_FUZZ_WORDS) for _ in range(rng.randint(1, 3)))
    if kind > 0.9:
        surface = rng.choice([" ", ""]) + surface + rng.choice([" ", "."])
    return surface


def _fuzz_instance(rng):
    words = lambda lo, hi: tuple(rng.choice(_FUZZ_WORDS) for _ in range(rng.randint(lo, hi)))
    return mk_instance(
        left=words(0, 4) if rng.random() < 0.6 else (),
        mention=" ".join(words(1, 2)),
        right=words(0, 5),
    )


def _fuzz_labels(rng, count, prefix="l"):
    return [
        TypeLabel(raw=f"{prefix}{i}", segments=(f"{prefix}{i}",), tier=Tier.UNSPECIFIED,
                  surface=_fuzz_surface(rng))
        for i in range(count)
    ]


def _label(raw, surface):
    return TypeLabel(raw=raw, segments=(raw,), tier=Tier.UNSPECIFIED, surface=surface)


def _fuzz_candidates(rng, template, empty_mention=False):
    """A fuzzed mention's candidates, some labels failing to render."""
    instance = _fuzz_instance(rng)
    if rng.random() < 0.3:  # mention at position 0: capitalized substitution
        instance = mk_instance(mention=instance.mention, right=instance.right_tokens)
    if empty_mention:
        instance = dataclasses.replace(instance, mention="")
    labels = _fuzz_labels(rng, rng.randint(1, 12))
    labels = [_label(label.raw, "" if rng.random() < 0.1 else label.surface) for label in labels]
    return type_candidates(instance, labels, template)


class TestOverlapCandidates:
    """``OverlapScorer.score_candidates`` against the oracle's overlap of each pair."""

    def test_equals_pair_scores_bit_for_bit(self):
        rng = random.Random(61)
        scorer = OverlapScorer()
        for template in TemplateKind:
            for _ in range(400):
                candidates = type_candidates(
                    _fuzz_instance(rng), _fuzz_labels(rng, rng.randint(1, 12)), template
                )
                expected = [oracle_overlap(p.premise, p.hypothesis) for p in candidates.pairs()]
                got = scorer.score_candidates(candidates)
                assert list(map(float.hex, got)) == list(map(float.hex, expected))

    def test_covers_the_split_cases(self):
        # mention at position 0 (capitalized substitution), words shared by
        # mention, context and label, scaffold words inside a surface,
        # punctuation-only and non-ASCII surfaces
        surfaces = ["ßoxer", "İstanbul", "ΑΣ", "head of state", "context is", "...",
                    "jay producer", "σ Σ."]
        labels = [TypeLabel(raw=f"l{i}", segments=(f"l{i}",), tier=Tier.UNSPECIFIED,
                            surface=surface) for i, surface in enumerate(surfaces)]
        instances = [
            mk_instance(mention="Jay", right=("the", "ΑΣ", "producer", "in", "context", ".")),
            mk_instance(left=("İstanbul", "'s"), mention="ßoxer", right=("head", "of", "state")),
        ]
        scorer = OverlapScorer()
        for instance in instances:
            for template in TemplateKind:
                candidates = type_candidates(instance, labels, template)
                assert scorer.score_candidates(candidates) == [
                    oracle_overlap(p.premise, p.hypothesis) for p in candidates.pairs()
                ]
        capitalized = type_candidates(instances[0], labels, TemplateKind.SUBSTITUTION)
        assert capitalized.surfaces[0] == "SSoxer"

    def test_dense_fuzz_where_nearly_every_label_is_touched(self):
        # the premise and mention hold most label words, so nearly every
        # label shares one with them; surfaces of scaffold words only,
        # punctuation only, a word repeated, the case-mapping letters, and
        # one of more distinct words than a byte counts
        words = ["jay", "Producer", "boxer,", "head", "state", "ßoxer", "SS", "İstanbul",
                 "i̇stanbul", "(tyson)", "ΑΣ", "σ"]
        rng = random.Random(65)
        surfaces = ["is a", "this context", "...", "--", "jay jay", "Boxer boxer.",
                    " ".join(f"w{i}" for i in range(300)) + " jay"]
        pool = words * 3 + sorted(SCAFFOLD)
        surfaces += [" ".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
                     for _ in range(60)]
        vocab = LabelVocabulary([_label(f"l{i:02d}", s) for i, s in enumerate(surfaces)])
        scorer = OverlapScorer()
        touched = labels = 0
        for n in range(150):
            # now and then a mention of scaffold words only: an empty frame
            mention = "this" if n % 10 == 0 else " ".join(rng.sample(words, rng.randint(1, 3)))
            context = tuple(rng.sample(words, rng.randint(9, 12)))
            instance = mk_instance(left=context[:n % 3], mention=mention, right=context[n % 3:])
            # a frame may hold label words that the premise lacks
            absent = [w for w in words if w not in context and w not in mention.split()]
            framed = type_candidates(instance, vocab, TemplateKind.TAXONOMIC)
            assert_oracle_scores(scorer, dataclasses.replace(
                framed, head=f"{' '.join(absent[:2])} is a {framed.head}"))
            for template in TemplateKind:
                candidates = type_candidates(instance, vocab, template)
                assert_oracle_scores(scorer, candidates)
                words_in = oracle_tokens(candidates.premise + " " + candidates.head
                                         + " " + candidates.tail)
                for surface in candidates.surfaces:
                    labels += 1
                    touched += bool((oracle_tokens(surface) - SCAFFOLD) & words_in)
        assert touched > 0.8 * labels
        assert 0.0 in scorer.score_candidates(type_candidates(
            mk_instance(mention="this", right=("jay",)), vocab, TemplateKind.TAXONOMIC))

    def test_reused_scorer_matches_fresh_ones(self):
        rng = random.Random(62)
        vocabs = [LabelVocabulary(_fuzz_labels(rng, 30, prefix=f"v{n}-")) for n in range(2)]
        instances = [_fuzz_instance(rng) for _ in range(5)]
        reused = OverlapScorer()
        for template in TemplateKind:
            for vocab in vocabs:
                for instance in instances:
                    candidates = type_candidates(instance, vocab.labels, template)
                    assert reused.score_candidates(candidates) == (
                        OverlapScorer().score_candidates(candidates)
                    )

    def test_empty_candidates(self):
        candidates = type_candidates(mk_instance(), [], TemplateKind.TAXONOMIC)
        assert OverlapScorer().score_candidates(candidates) == []


def assert_oracle_scores(scorer, candidates):
    """``scorer``'s scores of ``candidates`` equal the oracle's overlap of each pair, bit for bit."""
    expected = [oracle_overlap(p.premise, p.hypothesis) for p in candidates.pairs()]
    got = scorer.score_candidates(candidates)
    assert list(map(float.hex, got)) == list(map(float.hex, expected))


def recorded_index_builds(monkeypatch):
    """Record the surface tuple of every surface index the overlap scorer builds."""
    built = []
    real = scoring._SurfaceIndex

    def recording(surfaces):
        built.append(surfaces)
        return real(surfaces)

    monkeypatch.setattr(scoring, "_SurfaceIndex", recording)
    return built


class TestOverlapIndex:
    """The overlap scorer's surface indexes: when they are built, reused and dropped."""

    LABELS = [_label(f"l{i}", s) for i, s in enumerate(
        ["jay", "producer", "head of state", "ßoxer", "İstanbul", "boxer jay", "..."])]
    STARTS = mk_instance(mention="Jay", right=("the", "producer", "of", "state"))
    INSIDE = mk_instance(left=("İstanbul", "'s"), mention="ßoxer", right=("head", "jay"))

    def test_a_list_and_its_capitalized_twin_are_each_indexed_once(self, monkeypatch):
        built = recorded_index_builds(monkeypatch)
        vocab = LabelVocabulary(self.LABELS)
        scorer = OverlapScorer()
        for _ in range(3):
            for instance in (self.STARTS, self.INSIDE):
                for template in TemplateKind:
                    assert_oracle_scores(scorer, type_candidates(instance, vocab, template))
        twin = type_candidates(self.STARTS, vocab, TemplateKind.SUBSTITUTION).surfaces
        assert twin[3] == "SSoxer" and twin[4] == "İstanbul"
        assert built == [vocab.surfaces, tuple(twin)]

    def test_a_third_list_drops_the_index_used_least_recently(self, monkeypatch):
        built = recorded_index_builds(monkeypatch)
        lists = [self.LABELS, self.LABELS[:4], self.LABELS[2:]]
        scorer = OverlapScorer()
        for n in (0, 1, 0, 2, 0, 1):
            assert_oracle_scores(scorer, type_candidates(
                self.INSIDE, lists[n], TemplateKind.TAXONOMIC))
        # the third list replaced the second, so the second is indexed again
        assert [len(surfaces) for surfaces in built] == [7, 4, 5, 4]

    def test_a_list_changed_in_place_is_indexed_again(self, monkeypatch):
        built = recorded_index_builds(monkeypatch)
        scorer = OverlapScorer()
        candidates = type_candidates(self.INSIDE, self.LABELS, TemplateKind.TAXONOMIC)
        surfaces = list(candidates.surfaces)
        candidates = dataclasses.replace(candidates, surfaces=surfaces)
        assert_oracle_scores(scorer, candidates)
        before = scorer.score_candidates(candidates)
        surfaces[1], surfaces[6] = "state jay", "producer"
        assert_oracle_scores(scorer, candidates)
        assert scorer.score_candidates(candidates) != before
        assert len(built) == 2

    def test_one_empty_surface_still_builds_one_index(self, monkeypatch):
        built = recorded_index_builds(monkeypatch)
        vocab = LabelVocabulary(self.LABELS + [_label("empty", "")])
        scorer = OverlapScorer()
        rng = random.Random(64)
        lists = []
        for _ in range(20):
            candidates = type_candidates(_fuzz_instance(rng), vocab, TemplateKind.TAXONOMIC)
            assert len(candidates.failed) == 1
            lists.append(candidates.surfaces)
            assert_oracle_scores(scorer, candidates)
        # each mention rendered a list of its own, and one index served them all
        assert len({id(surfaces) for surfaces in lists}) == 20
        assert len(built) == 1

    def test_each_size_lists_its_positions_in_ascending_order(self):
        rng = random.Random(66)
        surfaces = tuple(_fuzz_surface(rng) for _ in range(200)) + ("", "is a", "a b c d e")
        index = scoring._SurfaceIndex(surfaces)
        assert len(index.members) == index.top + 1 == 5
        for n, members in enumerate(index.members):
            assert list(members) == [i for i, size in enumerate(index.sizes) if size == n]
        for i, surface in enumerate(surfaces):
            assert index.sizes[i] == len(oracle_tokens(surface) - SCAFFOLD)

    # one-token spellings (the build's fast path) and words that edge or inner
    # punctuation, spaces or a scaffold word turn into other tokens
    PIECES = ["İ", "İstanbul", "i̇", "Σ", "ς", "σ", "ΑΣ", "ας", "ß", "ßoxer", "SS", "ss",
              "jay", "Jay", "JAY", "is", "Is", "A", "in", "Context", "referring", "to",
              "7", "2024", "b52", "state"]
    PUNCTUATION = [".", "'s", "-", "(", ")", '"', "...", "/", "!?"]

    def _surface(self, rng, made):
        roll = rng.random()
        if made and roll < 0.1:
            return "".join(rng.choice(made))  # an equal string, not the same object
        if made and roll < 0.2:
            return rng.choice([str.upper, str.lower, str.capitalize, str.swapcase])(
                rng.choice(made))
        if roll < 0.25:
            return rng.choice(["", " ", ".", "..."])
        words = []
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            word = rng.choice(self.PIECES)
            if rng.random() < 0.2:
                word = rng.choice(self.PUNCTUATION) + word
            if rng.random() < 0.2:
                word += rng.choice(self.PUNCTUATION)
            if rng.random() < 0.1:
                word += rng.choice(self.PUNCTUATION) + rng.choice(self.PIECES)
            words.append(word)
        return " ".join(words)

    def test_build_equals_a_per_surface_oracle_on_fuzzed_lists(self):
        rng = random.Random(67)
        seen = set()
        for _ in range(60):
            surfaces = []
            for _ in range(rng.randint(0, 120)):
                surfaces.append(self._surface(rng, surfaces))
            surfaces = tuple(surfaces)
            sizes, held = [], {}
            for i, surface in enumerate(surfaces):
                tokens = scoring._content_tokens(surface) - scoring.SCAFFOLD_TOKENS
                sizes.append(len(tokens))
                for tok in tokens:
                    held.setdefault(tok, []).append(i)
                seen.add("one token" if surface.isalnum() and tokens else
                         "scaffold" if surface.isalnum() else
                         "" if not surface else "tokenized")
            index = scoring._SurfaceIndex(surfaces)
            assert list(index.sizes) == sizes
            assert index.top == max(sizes, default=0)
            assert [list(members) for members in index.members] == [
                [i for i, size in enumerate(sizes) if size == n] for n in range(index.top + 1)]
            assert index.postings == {
                tok: positions[0] if len(positions) == 1 else positions
                for tok, positions in held.items()}
            # a token spelled like the first surface holding it is keyed by that surface
            keys = {key: key for key in index.postings}
            for tok, positions in held.items():
                if surfaces[positions[0]] == tok:
                    assert keys[tok] is surfaces[positions[0]]
        assert seen == {"one token", "scaffold", "", "tokenized"}


class TestScoreGroups:
    """``ScoreGroups`` reads as the list of scores it stands for."""

    GROUPS = ScoreGroups([0.25, 0.5], bytes([1, 0, 1, 0, 1]), [[1, 3], [0, 2, 4]], {2: 1.0})
    LIST = [0.5, 0.25, 1.0, 0.25, 0.5]

    def test_reads_as_its_list(self):
        groups = self.GROUPS
        assert len(groups) == 5 and list(groups) == self.LIST
        assert groups == self.LIST and self.LIST == groups and groups != self.LIST[:4]
        assert groups == ScoreGroups([0.5, 0.25], bytes([0, 1, 1, 1, 0]), [[0, 4], [1, 2, 3]],
                                     {2: 1.0})
        assert groups.__eq__(tuple(self.LIST)) is NotImplemented
        assert [groups[i] for i in range(-5, 5)] == self.LIST * 2
        assert groups[1:4] == self.LIST[1:4] and groups[::-1] == self.LIST[::-1]
        assert 1.0 in groups and 0.75 not in groups
        with pytest.raises(IndexError):
            groups[5]
        with pytest.raises(TypeError):
            hash(groups)
        assert repr(groups) == "ScoreGroups([0.5, 0.25, 1.0, 0.25, 0.5])"

    def test_checked_makes_floats_and_names_the_first_bad_label(self):
        name = "l{}".format
        clean = ScoreGroups([0.5, 1.0], bytes([1, 0, 1]), [[1], [0, 2]], {2: 0.0})
        assert scoring.check_scores(clean, 3, name) is clean
        checked = scoring.check_scores(
            ScoreGroups([0, 1], bytes([1, 0, 1]), [[1], [0, 2]], {2: 0}), 3, name)
        assert type(checked) is CheckedScores and checked == [1.0, 0.0, 0.0]
        assert {type(score) for score in checked} == {float}
        cases = [
            # a bad exception before the first label its bad default serves
            (ScoreGroups([0.5, -1.0], bytes([1, 0, 1]), [[1], [0, 2]], {0: True}),
             "^not a JSON number: True for label 'l0'$"),
            # a bad default first serves its second member, the first being an exception
            (ScoreGroups([0.5, 2], bytes([1, 1, 0]), [[2], [0, 1]], {0: 0.5}),
             "^score 2.0 outside \\[0, 1\\] for label 'l1'$"),
        ]
        for groups, message in cases:
            with pytest.raises(ValidationError, match=message):
                scoring.check_scores(groups, 3, name)
        # a bad default that serves no position is never read
        unserved = ScoreGroups([0.5, "x"], bytes([1, 0]), [[1], [0]], {0: 0.5})
        checked = scoring.check_scores(unserved, 2, name)
        assert type(checked) is CheckedScores and checked == [0.5, 0.5]
        with pytest.raises(ValidationError, match="^scorer returned 3 scores for 2 pairs$"):
            scoring.check_scores(ScoreGroups([0.5], bytes(3), [[0, 1, 2]], {}), 2, name)

    def test_malformed_groups_raise(self):
        """Member lists must add up to the labels, and exceptions be keyed by positions."""
        cases = [
            # too few members: a 2-entry ranking of 3 labels
            (ScoreGroups([0.5], bytes(3), [[0, 1]], {}), "holding 2 positions for 3 labels"),
            # too many: "c" twice
            (ScoreGroups([0.5, 0.25], bytes([0, 0, 1]), [[0, 1, 2], [2]], {}),
             "holding 4 positions for 3 labels"),
            # a member list short of the defaults
            (ScoreGroups([0.5, 0.25], bytes(3), [[0, 1, 2]], {}), "2 defaults and 1 member"),
            # an exception past the last label, or keyed by no position at all
            (ScoreGroups([0.5], bytes(3), [[0, 1, 2]], {5: 1.0}),
             "key 5 is not one of its 3 positions"),
            (ScoreGroups([0.5], bytes(3), [[0, 1, 2]], {-1: 1.0}), "key -1 is not one of"),
            (ScoreGroups([0.5], bytes(3), [[0, 1, 2]], {True: 1.0}), "key True is not one of"),
        ]
        vocab = LabelVocabulary.from_raws(["a", "b", "c"])
        inst = mk_instance(id="t-0", mention="Sam", right=("ran", "."))
        for groups, message in cases:
            with pytest.raises(ValidationError, match=message):
                scoring.check_scores(groups, 3, str)
            scorer = OverlapScorer()
            scorer.score_candidates = lambda candidates: groups
            with pytest.raises(ValidationError, match=message):
                rank_all_candidates(inst, vocab, scorer, TemplateKind.TAXONOMIC)

    @pytest.mark.parametrize("groups, message", [
        # the counts add up, but "a" is listed twice and "b" not at all
        (ScoreGroups([0.5], bytes(3), [[0, 0, 2]], {}),
         r"^ScoreGroups members\[0\] is not the ascending list"),
        # "c" is listed in group 0, so it would rank at 0.5 though it reads 0.25
        (ScoreGroups([0.5, 0.25], bytes([0, 0, 1]), [[0, 1, 2], []], {}),
         r"^ScoreGroups members\[0\] is not the ascending list"),
    ], ids=["a-twice-b-dropped", "c-in-the-wrong-group"])
    def test_members_that_disagree_with_group_of_raise(self, groups, message):
        with pytest.raises(ValidationError, match=message):
            scoring.check_scores(groups, 3, str)
        scorer = OverlapScorer()
        scorer.score_candidates = lambda candidates: groups
        with pytest.raises(ValidationError, match=message):
            rank_all_candidates(mk_instance(mention="Sam", right=("ran", ".")),
                                LabelVocabulary.from_raws(["a", "b", "c"]), scorer,
                                TemplateKind.TAXONOMIC)

    def test_group_of_values_must_be_ints_naming_a_group(self):
        for group_of, message in [([0, 1.0, 1], r"group_of\[1\] is 1\.0"),
                                  ([0, True, 1], r"group_of\[1\] is True"),
                                  ([0, 2, 1], r"group_of\[1\] is 2, not one of its 2 groups"),
                                  ([0, -1, 1], r"group_of\[1\] is -1")]:
            with pytest.raises(ValidationError, match=message):
                scoring.check_scores(ScoreGroups([0.5, 0.25], group_of, [[0], [1, 2]], {}),
                                     3, str)

    def test_each_pair_is_checked_once_and_built_pairs_never(self, monkeypatch):
        checked = []
        disagreement = scoring._disagreement

        def counting(group_of, members):
            checked.append((group_of, members))
            return disagreement(group_of, members)

        monkeypatch.setattr(scoring, "_disagreement", counting)
        group_of, members = bytes([1, 0, 1]), [[1], [0, 2]]
        for exceptions in ({}, {2: 0.0}, {0: 1.0}):
            scoring.check_scores(ScoreGroups([0.5, 1.0], group_of, members, exceptions), 3, str)
        assert checked == [(group_of, members)]
        # an equal members list is another object, so it is checked again
        scoring.check_scores(ScoreGroups([0.5, 1.0], group_of, [[1], [0, 2]], {}), 3, str)
        assert len(checked) == 2
        # the overlap index builds its groups from group_of, so they agree by construction
        vocab = LabelVocabulary.from_raws(["a", "b c", "d"])
        rank_all_candidates(mk_instance(right=("saw", "b", ".")), vocab, OverlapScorer(),
                            TemplateKind.TAXONOMIC)
        assert len(checked) == 2
        # the pairs held are bounded, and held by reference, so their ids stay theirs
        for _ in range(2 * scoring._AGREEING_HELD):
            scoring.check_scores(ScoreGroups([0.5, 1.0], group_of, [[1], [0, 2]], {}), 3, str)
        assert len(scoring._AGREEING) == scoring._AGREEING_HELD
        assert all(key == (id(g), id(m)) for key, (g, m) in scoring._AGREEING.items())


class TestTableScorer:
    def test_lookup_and_default(self):
        scorer = TableScorer({("p", "h"): 0.75}, default=0.1)
        assert scorer.score(mk_pair("p", "h")) == 0.75
        assert scorer.score(mk_pair("p", "other")) == 0.1

    def test_range_validated(self):
        with pytest.raises(ValidationError):
            TableScorer({("p", "h"): 1.5})
        with pytest.raises(ValidationError):
            TableScorer({}, default=-0.2)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "table.jsonl"
        path.write_text(
            '{"default": 0.25}\n'
            '{"premise": "p", "hypothesis": "h", "score": 0.9}\n',
            encoding="utf-8",
        )
        scorer = TableScorer.from_jsonl(path)
        assert scorer.score(mk_pair("p", "h")) == 0.9
        assert scorer.score(mk_pair("p", "x")) == 0.25

    def test_jsonl_oversized_integer_names_line(self, tmp_path):
        path = tmp_path / "table.jsonl"
        path.write_text('{"default": 0.25}\n{"default": ' + "1" * 5000 + "}\n", encoding="utf-8")
        with pytest.raises(DatasetLoadError, match=r"table\.jsonl:2: malformed JSON"):
            TableScorer.from_jsonl(path)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (b"5", DatasetLoadError, "expected a JSON object"),
            (b'{"premise": "p", "hypothesis": "h", "score": "high"}', ValidationError,
             "score must be a JSON number"),
            (b'{"premise": "p", "hypothesis": "h", "score": null}', ValidationError,
             "score must be a JSON number"),
            (b'{"premise": "p", "hypothesis": "h", "score": true}', ValidationError,
             "score must be a JSON number"),
            (b'{"premise": "p", "hypothesis": "h", "score": "0.5"}', ValidationError,
             "score must be a JSON number"),
            (b'{"premise": "p", "hypothesis": "h", "score": 1.5}', ValidationError,
             "score must be a JSON number in"),
            (b'{"default": "x"}', ValidationError, "default must be a JSON number"),
            (b'{"default": true}', ValidationError, "default must be a JSON number"),
            (b'{"default": NaN}', ValidationError, "default must be a JSON number in"),
            (b'{"premise": ["p"], "hypothesis": "h", "score": 0.5}', ValidationError,
             "premise and hypothesis must be strings"),
            (b'{"premise": "\xff", "hypothesis": "h", "score": 1}', DatasetLoadError,
             "not UTF-8"),
            (b'{"premise": "p", "score": 0.5}', ValidationError, "missing key 'hypothesis'"),
            (b'{"default": 0.25}', ValidationError, "duplicate default record"),
            (b'{"premise": "p", "hypothesis": "h", "score": 0.75}', ValidationError,
             "duplicate record for premise 'p', hypothesis 'h'"),
        ],
        ids=["number-line", "score-word", "score-null", "score-bool", "score-string",
             "score-out-of-range", "default-string", "default-bool", "default-nan",
             "premise-list", "not-utf8", "no-hypothesis", "second-default", "repeated-pair"],
    )
    def test_jsonl_bad_line_names_line(self, tmp_path, bad, error, message):
        path = tmp_path / "table.jsonl"
        path.write_bytes(b'{"default": 0.25}\n\n{"premise": "p", "hypothesis": "h", "score": 0.5}\n'
                         + bad + b"\n")
        with pytest.raises(error, match=r"table\.jsonl:4: " + message):
            TableScorer.from_jsonl(path)

    def test_monotone_transform_preserves_argsort(self):
        rng = random.Random(8)
        pairs = [mk_pair("p", f"h{i}") for i in range(12)]
        table = {("p", f"h{i}"): rng.random() for i in range(12)}
        transformed = {k: v**3 * 0.5 + 0.1 for k, v in table.items()}
        base = TableScorer(table)
        warped = TableScorer(transformed)

        def argsort(scorer):
            scores = scorer.score_batch(pairs)
            return sorted(range(len(pairs)), key=lambda i: (-scores[i], pairs[i].hypothesis))

        assert argsort(base) == argsort(warped)


class TestTrainableTableScorer:
    def test_update_moves_scores_toward_margin(self):
        scorer = TrainableTableScorer({("p", "pos"): 0.4, ("p", "neg"): 0.6}, lr=0.1)
        pos, neg = mk_pair("p", "pos"), mk_pair("p", "neg")
        loss = scorer.accumulate_ranking_loss(pos, [neg], margin=0.1)
        assert loss == pytest.approx(0.3)
        assert scorer.score(pos) == 0.4  # nothing moves before the update
        scorer.apply_update()
        assert scorer.score(pos) == pytest.approx(0.5)
        assert scorer.score(neg) == pytest.approx(0.5)

    def test_satisfied_margin_accumulates_nothing(self):
        scorer = TrainableTableScorer({("p", "pos"): 0.9, ("p", "neg"): 0.2}, lr=0.1)
        loss = scorer.accumulate_ranking_loss(mk_pair("p", "pos"), [mk_pair("p", "neg")], 0.1)
        assert loss == 0.0
        before = scorer.score(mk_pair("p", "pos"))
        scorer.apply_update()
        assert scorer.score(mk_pair("p", "pos")) == before
        # a hinge of exactly zero, or no negatives at all, records no step either
        pos, neg = mk_pair("p", "pos"), mk_pair("p", "neg")
        tie = TrainableTableScorer({("p", "pos"): 0.5, ("p", "neg"): 0.5}, lr=0.1)
        assert tie.accumulate_ranking_loss(pos, [neg], 0.0) == 0.0
        assert tie.accumulate_ranking_loss(pos, [], 0.1) == 0.0
        tie.apply_update()
        assert (tie.score(pos), tie.score(neg)) == (0.5, 0.5)

    def test_scores_clamped_to_unit_interval(self):
        scorer = TrainableTableScorer({("p", "pos"): 0.95, ("p", "neg"): 0.99}, lr=0.5)
        scorer.accumulate_ranking_loss(mk_pair("p", "pos"), [mk_pair("p", "neg")], 0.1)
        scorer.apply_update()
        assert 0.0 <= scorer.score(mk_pair("p", "pos")) <= 1.0
        assert 0.0 <= scorer.score(mk_pair("p", "neg")) <= 1.0

    def test_version_tag_tracks_updates(self):
        scorer = TrainableTableScorer()
        assert scorer.version_tag == "v0"
        scorer.apply_update()
        assert scorer.version_tag == "v1"

    def test_snapshot_restore_bit_stable(self):
        rng = random.Random(4)
        scorer = TrainableTableScorer(lr=0.07)
        pairs = [mk_pair("p", f"h{i}") for i in range(6)]
        for _ in range(3):
            scorer.accumulate_ranking_loss(pairs[0], [rng.choice(pairs[1:])], 0.2)
            scorer.apply_update()
        tag = scorer.snapshot()
        saved = [scorer.score(p) for p in pairs]
        for _ in range(5):
            scorer.accumulate_ranking_loss(pairs[2], [rng.choice(pairs)], 0.3)
            scorer.apply_update()
        assert [scorer.score(p) for p in pairs] != saved
        scorer.restore(tag)
        assert [scorer.score(p) for p in pairs] == saved

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError):
            TrainableTableScorer().restore("nope")

    def test_range_validated(self):
        with pytest.raises(ValidationError, match="outside"):
            TrainableTableScorer({("p", "h"): 1.5})
        with pytest.raises(ValidationError):
            TrainableTableScorer(default=-0.2)

    @pytest.mark.parametrize("cls", [TableScorer, TrainableTableScorer])
    def test_bool_rejected(self, cls):
        with pytest.raises(ValidationError, match="table not a JSON number: True"):
            cls({("p", "h"): True})
        with pytest.raises(ValidationError, match="table not a JSON number: False"):
            cls({}, default=False)

    def test_int_values_are_kept_as_floats(self):
        scorer = TableScorer({("p", "h"): 1}, default=0)
        assert [type(scorer.score(mk_pair("p", h))) for h in ("h", "x")] == [float, float]


class TestTableCandidates:
    """``TableScorer.score_candidates`` against ``score_batch`` of the same pairs."""

    @staticmethod
    def _check(scorer, candidates, rng):
        # a random subset stands for a smaller vocabulary
        n = len(candidates.labels)
        part = sorted(rng.sample(range(n), rng.randint(0, n)))
        for each in (candidates, _subset(candidates, part)):
            assert _hex(scorer.score_candidates(each)) == _hex(scorer.score_batch(each.pairs()))

    def test_fuzz_equals_pair_path_bit_for_bit(self):
        rng = random.Random(91)
        failed = capitalized = 0
        for round_ in range(450):
            template = list(TemplateKind)[round_ % 3]
            # every 50th mention is empty, so every label fails
            candidates = _fuzz_candidates(rng, template, empty_mention=round_ % 50 == 49)
            failed += bool(candidates.failed)
            capitalized += template is TemplateKind.SUBSTITUTION and candidates.head == ""
            pairs = candidates.pairs()
            table = {(p.premise, p.hypothesis): rng.random() for p in pairs if rng.random() < 0.6}
            self._check(TableScorer(table, default=rng.random()), candidates, rng)
            trainable = TrainableTableScorer(table, default=rng.random(), lr=0.15)
            tag = trainable.snapshot()
            if len(pairs) > 1:
                trainable.accumulate_ranking_loss(pairs[0], pairs[1:], margin=0.3)
            trainable.apply_update()
            self._check(trainable, candidates, rng)
            trainable.restore(tag)
            self._check(trainable, candidates, rng)
        assert failed and capitalized


class TestExternalProtocol:
    def test_scores_in_order(self):
        scorer = ExternalScorer(stub_command("ok"))
        try:
            pairs = [mk_pair("p", f"h{i}") for i in range(3)]
            scores = scorer.score_batch(pairs)
            assert len(scores) == 3
            assert all(0.0 <= s <= 1.0 for s in scores)
            # deterministic endpoint: same pairs, same scores
            assert scorer.score_batch(pairs) == scores
        finally:
            scorer.close()

    def test_large_batch_does_not_deadlock(self):
        """20,000 pairs overflow both pipes unless requests go out in windows."""
        scorer = ExternalScorer(stub_command("ok"))
        # Killing a stuck endpoint turns a deadlock into an error, not a hang.
        watchdog = threading.Timer(30.0, scorer.endpoint._ensure_started().kill)
        watchdog.start()
        try:
            pairs = [mk_pair(f"premise {i % 7}", f"hypothesis number {i}") for i in range(20_000)]
            scores = scorer.score_batch(pairs)
            assert len(scores) == len(pairs)
            assert scores[::997] == [scorer.score(p) for p in pairs[::997]]
        finally:
            watchdog.cancel()
            watchdog.join()
            scorer.close()

    def test_empty_batch_short_circuits(self):
        scorer = ExternalScorer(stub_command("ok"))
        assert scorer.score_batch([]) == []

    def test_short_response_raises_protocol_error(self):
        scorer = ExternalScorer(stub_command("short"))
        try:
            with pytest.raises(ProtocolError, match="length mismatch"):
                scorer.score_batch([mk_pair("p", f"h{i}") for i in range(3)])
        finally:
            scorer.close()

    def test_close_after_endpoint_exit_closes_pipes(self):
        scorer = ExternalScorer(stub_command("short"))
        with pytest.raises(ProtocolError):
            scorer.score_batch([mk_pair("p", f"h{i}") for i in range(3)])
        proc = scorer.endpoint._proc
        proc.wait(timeout=10)
        scorer.close()
        assert proc.stdin.closed and proc.stdout.closed

    def test_restart_closes_the_exited_endpoint(self):
        scorer = ExternalScorer(stub_command("short"))
        try:
            with pytest.raises(ProtocolError):
                scorer.score_batch([mk_pair("p", f"h{i}") for i in range(3)])
            first = scorer.endpoint._proc
            first.wait(timeout=10)
            for _ in range(2):
                with pytest.raises(TransportError, match="exited with code 0"):
                    scorer.score_batch([mk_pair("p", "h")])
            assert first.stdin.closed and first.stdout.closed
        finally:
            scorer.close()
        # after an explicit close the endpoint starts afresh
        try:
            assert len(scorer.score_batch([mk_pair("p", "h")])) == 1
            assert scorer.endpoint._proc is not first
        finally:
            scorer.close()

    def test_killed_trainable_endpoint_is_not_replaced(self):
        scorer = ExternalTrainableScorer(stub_command("trainable"))
        try:
            pos, neg = mk_pair("p", "pos"), mk_pair("p", "neg")
            for _ in range(5):
                scorer.accumulate_ranking_loss(pos, [neg], margin=1.0)
                scorer.apply_update()
            proc = scorer.endpoint._proc
            proc.kill()
            proc.wait(timeout=10)
            # a fresh process would answer untrained scores under the same tag
            with pytest.raises(TransportError, match=f"exited with code {proc.returncode}"):
                scorer.score_batch([pos, neg])
            assert scorer.version_tag == "v5"
        finally:
            scorer.close()

    def test_close_kills_an_endpoint_that_ignores_eof(self, monkeypatch):
        monkeypatch.setattr(scoring.ExternalEndpoint, "CLOSE_WAIT_S", 0.2)
        endpoint = scoring.ExternalEndpoint(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )
        proc = endpoint._ensure_started()
        endpoint.close()
        assert proc.returncode is not None and proc.returncode < 0
        assert proc.stdin.closed and proc.stdout.closed

    def test_write_to_an_endpoint_that_closed_its_stdin_raises(self, monkeypatch):
        # it answers one request, closes its stdin, and runs on until killed
        code = (
            "import json, os, sys, time\n"
            "r = json.loads(sys.stdin.readline())\n"
            "os.close(0)\n"
            "print(json.dumps({'id': r['id'], 'entailment': 0.5}), flush=True)\n"
            "time.sleep(60)\n"
        )
        monkeypatch.setattr(scoring.ExternalEndpoint, "CLOSE_WAIT_S", 0.2)
        endpoint = scoring.ExternalEndpoint([sys.executable, "-c", code])
        try:
            assert endpoint.round_trip([{"id": "a"}]) == [{"id": "a", "entailment": 0.5}]
            with pytest.raises(TransportError, match="not reachable for writes"):
                endpoint.round_trip([{"id": "b"}])
        finally:
            endpoint.close()

    def test_unencodable_request_sends_nothing_and_keeps_the_endpoint(self):
        scorer = ExternalScorer(stub_command("ok"))
        try:
            with pytest.raises(ValidationError, match="request .q000001. holds a lone surrogate"):
                scorer.score_batch([mk_pair("p", "h"), mk_pair("p\ud800", "h")])
            # nothing of the refused window was written, so no reply is left over
            assert scorer.score_batch([mk_pair("p", "h")]) == scorer.score_batch(
                [mk_pair("p", "h")])
        finally:
            scorer.close()

    def test_id_mismatch_raises(self):
        scorer = ExternalScorer(stub_command("bad-id"))
        try:
            with pytest.raises(ProtocolError, match="id mismatch"):
                scorer.score_batch([mk_pair("p", "h")])
        finally:
            scorer.close()

    def test_out_of_range_raises(self):
        scorer = ExternalScorer(stub_command("range"))
        try:
            with pytest.raises(ProtocolError, match="outside"):
                scorer.score_batch([mk_pair("p", "h")])
        finally:
            scorer.close()

    def test_non_numeric_raises(self):
        scorer = ExternalScorer(stub_command("non-numeric"))
        try:
            with pytest.raises(ProtocolError):
                scorer.score_batch([mk_pair("p", "h")])
        finally:
            scorer.close()

    def test_unreachable_endpoint_raises_transport_error(self):
        scorer = ExternalScorer(["/nonexistent/scorer-binary"])
        with pytest.raises(TransportError):
            scorer.score_batch([mk_pair("p", "h")])

    def test_trainable_ops(self):
        scorer = ExternalTrainableScorer(stub_command("trainable"))
        try:
            pos, neg = mk_pair("p", "pos"), mk_pair("p", "neg")
            before = scorer.score_batch([pos, neg])
            tag = scorer.snapshot()
            moved = False
            for _ in range(5):
                loss = scorer.accumulate_ranking_loss(pos, [neg], margin=1.0)
                assert loss >= 0.0
                scorer.apply_update()
            after = scorer.score_batch([pos, neg])
            # margin 1.0 forces violations, so scores must have moved
            assert after != before
            scorer.restore(tag)
            assert scorer.score_batch([pos, neg]) == before
        finally:
            scorer.close()

    def test_non_numeric_loss_raises(self):
        scorer = ExternalTrainableScorer(stub_command("bad-loss"))
        try:
            pos, neg = mk_pair("p", "pos"), mk_pair("p", "neg")
            # the stub answers "high", true, NaN, Infinity, then 10**400
            for _ in range(5):
                with pytest.raises(ProtocolError, match="accumulate loss"):
                    scorer.accumulate_ranking_loss(pos, [neg], margin=1.0)
        finally:
            scorer.close()

    def test_oversized_integer_reply_raises_protocol_error(self):
        # the JSON parser rejects an integer of over 4,300 digits with a
        # plain ValueError, not a JSONDecodeError
        reply = '{"loss": ' + "1" * 5000 + "}"
        scorer = ExternalTrainableScorer(
            [sys.executable, "-c", f"input(); print({reply!r}, flush=True)"]
        )
        try:
            with pytest.raises(ProtocolError, match="invalid JSON"):
                scorer.accumulate_ranking_loss(mk_pair("p", "pos"), [mk_pair("p", "neg")], 0.1)
        finally:
            scorer.close()

    def test_non_utf8_reply_raises_protocol_error(self):
        reply = "import sys; input(); sys.stdout.buffer.write(b'\\xff\\n'); sys.stdout.flush()"
        scorer = ExternalScorer([sys.executable, "-c", reply])
        try:
            with pytest.raises(ProtocolError, match="not UTF-8"):
                scorer.score_batch([mk_pair("p", "h")])
        finally:
            scorer.close()

    def test_non_object_reply_raises_protocol_error(self):
        scorer = ExternalScorer(reply_command("[1, 2]"))
        try:
            with pytest.raises(ProtocolError, match="reply to 'q000000' is not a JSON object"):
                scorer.score_batch([mk_pair("p", "h")])
        finally:
            scorer.close()

    def test_a_stale_pair_reply_cannot_pass(self):
        # every request is answered twice, so the second batch reads the
        # first batch's spare line
        scorer = ExternalScorer(reply_command('{"id": r["id"], "entailment": 0.5}', copies=2))
        try:
            assert scorer.score_batch([mk_pair("p", "h")]) == [0.5]
            with pytest.raises(ProtocolError, match="sent 'q000001', got 'q000000'"):
                scorer.score_batch([mk_pair("p", "h2")])
        finally:
            scorer.close()

    @pytest.mark.parametrize(
        "reply", ['{"tag": 5}', '{"tag": {}}', '{"tag": ""}', '{"tag": None}', "{}",
                  '{"tag": "ckpt-\\ud800"}'],
        ids=["number", "object", "empty", "null", "missing", "lone-surrogate"],
    )
    def test_bad_snapshot_tag_raises(self, reply):
        scorer = ExternalTrainableScorer(reply_command(reply))
        try:
            with pytest.raises(ProtocolError, match="snapshot reply has no valid 'tag'"):
                scorer.snapshot()
        finally:
            scorer.close()

    def test_rejected_update_raises(self):
        scorer = ExternalTrainableScorer(stub_command("bad-update"))
        try:
            pos, neg = mk_pair("p", "pos"), mk_pair("p", "neg")
            scorer.accumulate_ranking_loss(pos, [neg], margin=1.0)
            with pytest.raises(ProtocolError, match="update reply has no valid .ok."):
                scorer.apply_update()
            assert scorer.version_tag == "v0"
        finally:
            scorer.close()

    def test_restore_moves_to_a_fresh_tag_through_the_cache(self, tmp_path):
        inner = ExternalTrainableScorer(stub_command("trainable"))
        scorer = CachedScorer(inner, ScoreCache(tmp_path / "cache.jsonl"))
        candidates = self._batch()[0]
        pairs = candidates.pairs()
        try:
            initial = scorer.score_candidates(candidates)
            tags = {inner.version_tag}
            snapshot = inner.snapshot()
            for _ in range(3):
                inner.accumulate_ranking_loss(pairs[0], pairs[1:], margin=1.0)
                inner.apply_update()
                tags.add(inner.version_tag)
            assert scorer.score_candidates(candidates) != initial
            inner.restore(snapshot)
            assert inner.version_tag not in tags
            assert scorer.score_candidates(candidates) == initial
            # one cached ranking at each of the three tags scored, then all hits
            assert len(scorer.cache) == 3 * len(pairs)
            sent = recorded_requests(inner.endpoint)
            assert scorer.score_candidates(candidates) == initial and sent == []
        finally:
            scorer.close()

    def test_endpoints_trained_apart_from_one_command_do_not_share_entries(self, tmp_path):
        candidates = self._batch()[0]
        pairs = candidates.pairs()
        scorers = [ExternalTrainableScorer(stub_command("trainable")) for _ in range(2)]
        try:
            with ScoreCache(tmp_path / "cache.jsonl") as cache:
                served, direct = [], []
                for scorer, positive in zip(scorers, (0, 1)):
                    negatives = [p for i, p in enumerate(pairs) if i != positive]
                    scorer.accumulate_ranking_loss(pairs[positive], negatives, margin=1.0)
                    scorer.apply_update()
                    served.append(CachedScorer(scorer, cache).score_candidates(candidates))
                    direct.append(scorer.score_candidates(candidates))
                assert [s.version_tag for s in scorers] == ["v1", "v1"]
                assert served == direct and direct[0] != direct[1]
        finally:
            for scorer in scorers:
                scorer.close()

    # ``score_candidates``: one request line per mention
    SURFACES = ["ßoxer", "İstanbul", "ΑΣ σ", "head of state", "€ 😀", "jay", "..."]

    def _batch(self):
        labels = [_label(f"l{i}", s) for i, s in enumerate(self.SURFACES)]
        instances = [
            mk_instance(left=("İn", "ß"), mention="Jay", right=("the", "ΑΣ", "😀", ".")),
            mk_instance(mention="ßoxer", right=("is", "a", "head", "of", "state")),
        ]
        return [type_candidates(i, labels, t) for i in instances for t in TemplateKind]

    def test_candidates_equal_pair_scores_bit_for_bit(self):
        rng = random.Random(81)
        batch = self._batch() + [
            type_candidates(_fuzz_instance(rng), _fuzz_labels(rng, rng.randint(1, 12)), template)
            for template in TemplateKind for _ in range(20)
        ]
        scorer = ExternalScorer(stub_command("ok"))
        try:
            sent = recorded_requests(scorer.endpoint)
            for candidates in batch:
                got = scorer.score_candidates(candidates)
                assert _hex(got) == _hex(scorer.score_batch(candidates.pairs()))
        finally:
            scorer.close()
        per_mention = [trip for trip in sent if "surfaces" in trip[0]]
        assert [len(trip) for trip in per_mention] == [1] * len(batch)
        assert [trip[0]["id"] for trip in per_mention[:3]] == ["m000000", "m000001", "m000002"]

    def test_candidates_on_trainable_endpoint_after_an_update(self):
        candidates = self._batch()[0]
        pairs = candidates.pairs()
        scorer = ExternalTrainableScorer(stub_command("trainable"))
        try:
            before = scorer.score_candidates(candidates)
            scorer.accumulate_ranking_loss(pairs[0], pairs[1:], margin=1.0)
            scorer.apply_update()
            after = scorer.score_candidates(candidates)
            assert after != before
            assert _hex(after) == _hex(scorer.score_batch(pairs))
        finally:
            scorer.close()

    def test_all_failed_candidates_start_no_process(self):
        labels = [_label("a", ""), _label("b", "")]
        candidates = type_candidates(mk_instance(), labels, TemplateKind.CONTEXTUAL)
        assert candidates.failed == (0, 1)
        scorer = ExternalScorer(stub_command("ok"))
        assert scorer.score_candidates(candidates) == []
        assert scorer.endpoint._proc is None

    def test_cached_scorer_sends_only_the_missed_surfaces(self, tmp_path):
        candidates = self._batch()[0]
        warm = _subset(candidates, range(0, len(candidates.labels), 2))
        inner = ExternalScorer(stub_command("ok"))
        scorer = CachedScorer(inner, ScoreCache(tmp_path / "cache.jsonl"))
        try:
            scorer.score_candidates(warm)
            sent = recorded_requests(inner.endpoint)
            # a longer list of the same mention misses in full, then both hit
            scores = [scorer.score_candidates(c) for c in (candidates, warm, candidates)]
            assert [[r["surfaces"] for r in trip] for trip in sent] == [
                [list(candidates.surfaces)]]
            assert _hex(scores[0]) == _hex(scores[2]) == _hex(
                inner.score_batch(candidates.pairs()))
        finally:
            scorer.close()

    def test_two_commands_do_not_share_entries(self, tmp_path):
        candidates = self._batch()[0]
        path = tmp_path / "cache.jsonl"
        for value in (0.25, 0.75, 0.25):
            command = reply_command(
                f'{{"id": r["id"], "entailments": [{value}] * len(r["surfaces"])}}')
            scorer = CachedScorer(ExternalScorer(command), ScoreCache(path))
            try:
                assert scorer.score_candidates(candidates) == [value] * len(candidates.surfaces)
            finally:
                scorer.close()
        assert len(path.read_text().splitlines()) == 2

    def test_pairs_only_endpoint_is_asked_for_pairs_from_then_on(self):
        batch = self._batch()
        honest, pairs_only = ExternalScorer(stub_command("ok")), ExternalScorer(
            stub_command("pairs-only"))
        try:
            sent = recorded_requests(pairs_only.endpoint)
            for candidates in batch:
                assert _hex(pairs_only.score_candidates(candidates)) == _hex(
                    honest.score_candidates(candidates))
        finally:
            honest.close()
            pairs_only.close()
        sizes = [len(c.surfaces) for c in batch]
        assert [len(trip) for trip in sent] == [1] + sizes
        assert "surfaces" in sent[0][0]
        assert not any("surfaces" in r for trip in sent[1:] for r in trip)

    @pytest.mark.parametrize(
        "command, message",
        [
            (stub_command("bad-id"), "id mismatch"),
            (stub_command("range"), "outside"),
            (stub_command("non-numeric"), "non-numeric"),
            (reply_command('{"id": r["id"], "entailments": [0.5] * (len(r["surfaces"]) - 1)}'),
             "length mismatch"),
            (reply_command('{"id": r["id"], "entailments": [0.5] * (len(r["surfaces"]) + 1)}'),
             "length mismatch"),
            (reply_command('{"id": r["id"], "entailments": 0.5}'), "not a list"),
            (reply_command('{"id": r["id"]}'), "lacks entailment scores"),
            (reply_command("[1, 2]"), "not a JSON object"),
            # answers the mention as pairs only, then the pair requests without a score
            (reply_command('{"id": r["id"], **({"entailment": 0.5} if "head" in r else {})}'),
             "lacks an entailment score"),
        ],
        ids=["bad-id", "range", "non-numeric", "short-list", "long-list", "not-a-list",
             "no-scores", "not-an-object", "no-pair-score"],
    )
    def test_bad_per_mention_reply_raises(self, command, message):
        scorer = ExternalScorer(command)
        try:
            with pytest.raises(ProtocolError, match=message):
                scorer.score_candidates(self._batch()[0])
        finally:
            scorer.close()

    @staticmethod
    def _replying(scores):
        """An endpoint answering each mention with ``scores``, padded with 0.5."""
        return ExternalScorer(reply_command(
            '{"id": r["id"], "entailments": (%s + [0.5] * 9)[:len(r["surfaces"])]}' % scores))

    def test_int_and_float_replies_are_served_as_checked_floats(self):
        for scores, served in (("[0, 1, 0.5]", [0.0, 1.0, 0.5]),
                               ("[0.25, 1e-400, -0.0]", [0.25, 0.0, -0.0])):
            scorer = self._replying(scores)
            try:
                reply = scorer.score_candidates(self._batch()[0])
            finally:
                scorer.close()
            assert type(reply) is CheckedScores
            assert _hex(reply) == _hex(served + [0.5] * (len(self.SURFACES) - 3))
            assert {type(score) for score in reply} == {float}

    @pytest.mark.parametrize("scores, message", [
        ("[0.5, True, 0.25]", "non-numeric entailment score True"),
        ('[0.5, float("nan")]', "non-finite entailment score nan"),
        ('[0.5, float("inf")]', "non-finite entailment score inf"),
        ('[float("-inf")]', "non-finite entailment score -inf"),
        ("[1.5, 0.5]", "entailment score 1.5 outside [0, 1]"),
        ("[0.5, -0.5]", "entailment score -0.5 outside [0, 1]"),
        ("[0.5, 2, True]", "entailment score 2.0 outside [0, 1]"),
        ('[0.5, "0.5"]', "non-numeric entailment score '0.5'"),
    ], ids=["bool", "nan", "inf", "minus-inf", "above-one", "negative", "first-bad", "string"])
    def test_bad_per_mention_score_is_named(self, scores, message):
        scorer = self._replying(scores)
        try:
            with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
                scorer.score_candidates(self._batch()[0])
        finally:
            scorer.close()

    def test_a_stale_reply_cannot_pass(self):
        # every request is answered twice, so the second mention reads the
        # first mention's spare line
        scorer = ExternalScorer(reply_command(
            '{"id": r["id"], "entailments": [0.5] * len(r["surfaces"])}', copies=2))
        try:
            candidates = self._batch()[0]
            assert scorer.score_candidates(candidates) == [0.5] * len(candidates.surfaces)
            with pytest.raises(ProtocolError, match="sent 'm000001', got 'm000000'"):
                scorer.score_candidates(candidates)
        finally:
            scorer.close()

    def test_wire_bytes_are_pinned(self, tmp_path):
        log = tmp_path / "requests.bin"
        code = (
            "import json, sys\n"
            f"log = open({str(log)!r}, 'ab')\n"
            "for line in sys.stdin.buffer:\n"
            "    log.write(line)\n"
            "    log.flush()\n"
            "    r = json.loads(line)\n"
            "    n = len(r.get('surfaces', ()))\n"
            "    reply = {'id': r['id'], 'entailments': [0.5] * n} if n else "
            "{'id': r['id'], 'entailment': 0.5}\n"
            "    print(json.dumps(reply), flush=True)\n"
        )
        candidates = templates.TypeCandidates(
            instance_id="i-0", template=TemplateKind.CONTEXTUAL, premise="ßoxer İn ΑΣ 😀.",
            head="In this context, ßoxer is referring to ", tail=".",
            labels=[_label("a", "ΑΣ"), _label("b", '"q" \\ €')], surfaces=["ΑΣ", '"q" \\ €'],
            failed=())
        scorer = ExternalScorer([sys.executable, "-c", code])
        try:
            pairs = [mk_pair('ßoxer İn ΑΣ "q" \\ €', "ßoxer is a 😀."), mk_pair("p\u2028\t", "h\n")]
            assert scorer.score_batch(pairs) == [0.5, 0.5]
            assert scorer.score_candidates(candidates) == [0.5, 0.5]
        finally:
            scorer.close()
        assert log.read_bytes() == (
            '{"id": "q000000", "premise": "ßoxer İn ΑΣ \\"q\\" \\\\ €", '
            '"hypothesis": "ßoxer is a 😀."}\n'
            '{"id": "q000001", "premise": "p\u2028\\t", "hypothesis": "h\\n"}\n'
            '{"id": "m000000", "premise": "ßoxer İn ΑΣ 😀.", '
            '"hypothesis": "In this context, ßoxer is referring to ΑΣ.", '
            '"head": "In this context, ßoxer is referring to ", "tail": ".", '
            '"surfaces": ["ΑΣ", "\\"q\\" \\\\ €"]}\n'
        ).encode("utf-8")


class TestPipelinedAccumulate:
    """``ExternalTrainableScorer.accumulate_batch``: one round trip, replies checked in order."""

    @staticmethod
    def _examples(n):
        return [(mk_pair("p", f"pos {i}"), [mk_pair("p", f"neg {i}"), mk_pair("p", f"neg {i + 1}")],
                 (i + 1) / 8) for i in range(n)]

    def test_a_batch_over_one_window_is_one_trip_with_losses_in_request_order(self):
        examples = self._examples(300)
        assert len(examples) > scoring.ExternalEndpoint.WINDOW
        scorer = ExternalTrainableScorer(reply_command('{"loss": r["weight"]}'))
        try:
            sent = recorded_requests(scorer.endpoint)
            assert scorer.accumulate_batch(examples, 0.2) == [weight for *_, weight in examples]
        finally:
            scorer.close()
        assert [len(trip) for trip in sent] == [300]
        assert [r["positive"]["hypothesis"] for r in sent[0]] == [f"pos {i}" for i in range(300)]

    def test_batch_sends_and_accumulates_what_one_call_per_example_does(self):
        examples = self._examples(40)
        scorers = [ExternalTrainableScorer(stub_command("trainable")) for _ in range(2)]
        pairs = [pair for pos, negs, _ in examples for pair in (pos, *negs)]
        try:
            sent = [recorded_requests(scorer.endpoint) for scorer in scorers]
            batched = scorers[0].accumulate_batch(examples, 0.6)
            one_by_one = [scorers[1].accumulate_ranking_loss(pos, negs, 0.6, weight=weight)
                          for pos, negs, weight in examples]
            assert _hex(batched) == _hex(one_by_one)
            assert any(batched) and not all(batched)
            for scorer in scorers:
                scorer.apply_update()
            assert _hex(scorers[0].score_batch(pairs)) == _hex(scorers[1].score_batch(pairs))
        finally:
            for scorer in scorers:
                scorer.close()
        assert [len(trip) for trip in sent[0]] == [40, 1, len(pairs)]
        assert [len(trip) for trip in sent[1]] == [1] * 41 + [len(pairs)]
        assert [r for trip in sent[0] for r in trip] == [r for trip in sent[1] for r in trip]

    @pytest.mark.parametrize("bad, message", [
        ('"high"', "^non-numeric accumulate loss 'high'$"),
        ("True", "^non-numeric accumulate loss True$"),
        ('float("nan")', "^non-finite accumulate loss nan$"),
        ('float("inf")', "^non-finite accumulate loss inf$"),
        ("10**400", "^non-numeric accumulate loss 10{400}$"),
        ("None", "^accumulate reply has no valid 'loss': {'loss': None}$"),
    ], ids=["string", "bool", "nan", "inf", "huge", "null"])
    def test_bad_loss_mid_batch_raises_as_one_call_does_and_keeps_ids_in_step(self, bad, message):
        scorer = ExternalTrainableScorer(reply_command(
            '{"id": r["id"], "entailments": [0.5] * len(r["surfaces"])} if "id" in r else '
            f'{{"loss": {bad} if r["positive"]["hypothesis"] == "bad" else 0.25}}'))
        candidates = type_candidates(
            mk_instance(), [_label("a", "jay"), _label("b", "state")], TemplateKind.CONTEXTUAL)
        good, bad_example = ((mk_pair("p", h), [mk_pair("p", "neg")], 1.0) for h in ("good", "bad"))
        try:
            sent = recorded_requests(scorer.endpoint)
            with pytest.raises(ProtocolError, match=message) as one_call:
                scorer.accumulate_ranking_loss(*bad_example[:2], 0.1)
            with pytest.raises(ProtocolError, match=message) as in_batch:
                scorer.accumulate_batch([good, good, bad_example, good, bad_example, good], 0.1)
            assert str(in_batch.value) == str(one_call.value)
            assert scorer.accumulate_batch([good], 0.1) == [0.25]
            assert scorer.score_candidates(candidates) == [0.5, 0.5]
        finally:
            scorer.close()
        assert [len(trip) for trip in sent] == [1, 6, 1, 1]

    def test_bad_loss_in_a_batch_raises_after_the_whole_batch_was_answered(self):
        scorer = ExternalTrainableScorer(stub_command("bad-loss"))
        candidates = type_candidates(
            mk_instance(), [_label("a", "jay"), _label("b", "state")], TemplateKind.CONTEXTUAL)
        example = (mk_pair("p", "pos"), [mk_pair("p", "neg")], 1.0)
        try:
            # the stub answers "high", true, NaN, Infinity, then 10**400, and again
            with pytest.raises(ProtocolError, match="^non-numeric accumulate loss 'high'$"):
                scorer.accumulate_batch([example] * 7, 0.1)
            # all seven were answered, so the eighth reply is the third bad loss
            with pytest.raises(ProtocolError, match="^non-finite accumulate loss nan$"):
                scorer.accumulate_ranking_loss(*example[:2], 0.1)
            assert _hex(scorer.score_candidates(candidates)) == _hex(
                scorer.score_batch(candidates.pairs()))
        finally:
            scorer.close()

    def test_empty_batch_starts_no_process(self):
        scorer = ExternalTrainableScorer(stub_command("trainable"))
        assert scorer.accumulate_batch([], 0.1) == []
        assert scorer.endpoint._proc is None


def _table_candidates(scores):
    """A taxonomic mention with one label per key of ``scores``, and the table giving
    each label's hypothesis its score."""
    labels = [_label(raw, raw) for raw in scores]
    candidates = type_candidates(mk_instance(), labels, TemplateKind.TAXONOMIC)
    return candidates, {(p.premise, p.hypothesis): scores[p.label_raw] for p in candidates.pairs()}


# record keys for tests that put and get records directly
KEY_A, KEY_B, KEY_C = ("%x" % n * 64 for n in (10, 11, 12))


def _list_digest(surfaces):
    """The SHA-256, in lowercase hex, of a surface list's JSON text."""
    return hashlib.sha256(json.dumps(list(surfaces)).encode("ascii")).hexdigest()


def _key_text(tag, candidates):
    """The text a cache key hashes: the tag, premise, frame and surface-list digest."""
    return json.dumps([tag, candidates.premise, candidates.head, candidates.tail,
                       _list_digest(candidates.surfaces)])


def _expected_key(tag, candidates):
    """The record key of ``candidates`` under ``tag``, recomputed from its definition."""
    return hashlib.sha256(_key_text(tag, candidates).encode("ascii")).hexdigest()


def _record_lines(path):
    """The cache file's record lines, parsed, its group lines left out."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [record for record in map(json.loads, lines) if "k" in record]


def _grouped_text(records, numbers=None):
    """The text a cache writes for ``(key, groups)`` records put in turn as groups.

    A ``group_of`` whose values ``numbers`` lacks gets a group line first,
    numbered next; a record lists the defaults its group_of values name,
    and its exceptions in ascending order of position.
    """
    numbers = {} if numbers is None else numbers
    lines = []
    for key, groups in records:
        values = tuple(groups.group_of)
        if values not in numbers:
            numbers[values] = len(numbers)
            lines.append(json.dumps({"g": numbers[values], "of": list(values)}))
        positions = sorted(groups.exceptions)
        lines.append(json.dumps({
            "k": key, "g": numbers[values],
            "d": list(groups.defaults)[:max(values, default=-1) + 1],
            "i": positions, "x": [groups.exceptions[i] for i in positions]}))
    return "".join(line + "\n" for line in lines)


class TestScoreCache:
    def test_warm_run_matches_cold_run(self, tmp_path):
        labels = [_label(f"l{i}", f"word{i}") for i in range(8)]
        instance = mk_instance(right=("word1", "word5", "text"))
        candidates = type_candidates(instance, labels, TemplateKind.TAXONOMIC)
        inner = RecordingOverlap()
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            scorer = CachedScorer(inner, cache)
            cold = scorer.score_candidates(candidates)
            warm = scorer.score_candidates(candidates)
            assert warm == cold == OverlapScorer().score_candidates(candidates)
            assert len(cache) == 8 and len(inner.calls) == 1

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(KEY_A, [0.625, 1])
        with ScoreCache(path) as cache:
            assert cache.get(KEY_A, 2) == [0.625, 1.0]
            assert len(cache) == 2

    def test_version_isolation(self, tmp_path):
        candidates, _ = _table_candidates({"a": 0.25})
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            cache.put(cache.key("overlap v0", candidates), [0.25])
            assert cache.get(cache.key("overlap v1", candidates), 1) is None

    def test_cached_scorer_never_reuses_stale_version(self, tmp_path):
        candidates, table = _table_candidates({"pos": 0.4, "neg": 0.9})
        pos, neg = candidates.pairs()
        inner = TrainableTableScorer(table, lr=0.2)
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            scorer = CachedScorer(inner, cache)
            assert scorer.score_candidates(candidates) == [0.4, 0.9]
            inner.accumulate_ranking_loss(pos, [neg], 0.1)
            inner.apply_update()
            assert scorer.score_candidates(candidates)[0] == inner.score(pos) != 0.4
            assert len(cache) == 4  # both labels at v0 and at v1

    def test_cached_scorer_after_restore_and_a_diverging_update(self, tmp_path):
        candidates, table = _table_candidates({"a": 0.5, "b": 0.5})
        a, b = candidates.pairs()
        inner = TrainableTableScorer(table, lr=0.2)
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            scorer = CachedScorer(inner, cache)
            tag = inner.snapshot()
            inner.accumulate_ranking_loss(a, [b], 0.1)
            inner.apply_update()
            assert scorer.score_candidates(candidates)[0] == 0.7
            inner.restore(tag)
            inner.accumulate_ranking_loss(b, [a], 0.1)
            inner.apply_update()
            assert scorer.score_candidates(candidates)[0] == inner.score(a) == 0.3
            # the restore and this update each took a tag of their own
            assert inner.version_tag == "v3"
            assert len(cache) == 4  # both labels at v1 and at v3

    def test_scorers_trained_apart_from_one_start_do_not_share_entries(self, tmp_path):
        candidates, table = _table_candidates({"a": 0.5, "b": 0.5})
        a, b = candidates.pairs()
        first, second = TrainableTableScorer(table, lr=0.1), TrainableTableScorer(table, lr=0.1)
        first.accumulate_ranking_loss(a, [b], 0.1)
        second.accumulate_ranking_loss(b, [a], 0.1)
        first.apply_update()
        second.apply_update()
        assert first.version_tag == second.version_tag == "v1"
        direct = [first.score_candidates(candidates), second.score_candidates(candidates)]
        assert direct == [[0.6, 0.4], [0.4, 0.6]]
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            served = [CachedScorer(inner, cache).score_candidates(candidates)
                      for inner in (first, second)]
            assert served == direct
            assert len(cache) == 4
        # a v0 key is the identity and the version alone, as it always was
        assert TrainableTableScorer(table).cache_tag == f"{first.identity} v0"

    def test_append_only_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(KEY_A, [0.5])
            size_one = path.stat().st_size
            cache.put(KEY_B, [0.75, 0.25])
            assert path.stat().st_size > size_one
            cache.put(KEY_A, [0.5])  # duplicate: no growth
            assert len(path.read_text().splitlines()) == 2

    def test_identity_names_the_scorer(self):
        table = {("p", "h"): 0.5, ("p", "g"): 0.25}
        identity = TableScorer(table, default=0.125).identity
        assert identity.startswith("table:")
        # the content counts, not the order it was given in
        assert TableScorer(dict(reversed(table.items())), default=0.125).identity == identity
        assert TableScorer(table).identity != identity
        assert TableScorer({("p", "h"): 0.5}, default=0.125).identity != identity
        # a trainable table starts as the same table, so it starts with the same scores
        assert TrainableTableScorer(table, default=0.125).identity == identity
        assert OverlapScorer().identity == "overlap"
        assert ExternalScorer(["run it", "-q"]).identity == "external:'run it' -q"

    def test_scorers_do_not_share_entries(self, tmp_path):
        candidates, table = _table_candidates({"a": 0.25, "b": 0.5})
        path = tmp_path / "cache.jsonl"
        for inner, expected in [
            (OverlapScorer(), OverlapScorer().score_candidates(candidates)),
            (TableScorer(table, default=0.125), [0.25, 0.5]),
            (TableScorer({}, default=0.125), [0.125, 0.125]),
            (TableScorer(table, default=0.875), [0.25, 0.5]),
        ]:
            with ScoreCache(path) as cache:
                assert CachedScorer(inner, cache).score_candidates(candidates) == expected
        # four scorers, four records; a repeated scorer is served its own
        assert len(_record_lines(path)) == 4
        with ScoreCache(path) as cache:
            served = CachedScorer(TableScorer({}, default=0.875), cache).score_candidates(
                candidates)
        assert served == [0.875, 0.875]

    def test_custom_scorers_are_named_by_module_and_class(self, tmp_path):
        class Low(EntailmentScorer):
            def score(self, pair):
                return 0.25

        class High(EntailmentScorer):
            def score(self, pair):
                return 0.75

        assert Low().identity == f"{__name__}.{Low.__qualname__}"
        assert High().identity != Low().identity
        candidates, _ = _table_candidates({"a": 0.0, "b": 0.0})
        path = tmp_path / "cache.jsonl"
        # one file: each class is served its own record, never the other's
        for inner, expected in [(Low(), 0.25), (High(), 0.75), (Low(), 0.25), (High(), 0.75)]:
            with ScoreCache(path) as cache:
                assert CachedScorer(inner, cache).score_candidates(candidates) == [expected] * 2
        assert len(path.read_text().splitlines()) == 2

    def test_wrapper_shows_the_inner_version_and_passes_pairs_through(self, tmp_path):
        candidates, table = _table_candidates({"a": 0.25, "b": 0.5})
        inner = TrainableTableScorer(table)
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            scorer = CachedScorer(inner, cache)
            assert scorer.version_tag == "v0"
            assert scorer.score(candidates.pairs()[1]) == 0.5
            assert path.read_bytes() == b""  # a pair call neither reads nor writes
            scorer.score_candidates(candidates)
            inner.apply_update()
            assert scorer.version_tag == inner.version_tag == "v1"
            # the new version is a new key, so the mention is scored again
            scorer.score_candidates(candidates)
        assert len(path.read_text().splitlines()) == 2


class TestBatchedCache:
    def test_mixed_hits_and_misses(self, tmp_path):
        labels = [_label(raw, raw) for raw in ("a", "b", "c")]
        batch = [type_candidates(mk_instance(mention=name), labels, TemplateKind.TAXONOMIC)
                 for name in ("Jay", "Kim", "Bo")]
        inner = RecordingOverlap()
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            # a stand-in record for the second mention, so a hit shows
            cache.put(cache.key(f"{inner.identity} v0", batch[1]), [0.125, 0.25, 0.375])
            scorer = CachedScorer(inner, cache)
            # pair calls pass straight through: they neither read nor write the cache
            assert scorer.score_batch(batch[0].pairs()) == inner.score_batch(batch[0].pairs())
            assert len(cache) == 3
            scores = [scorer.score_candidates(c) for c in batch]
            assert scores[1] == [0.125, 0.25, 0.375]
            for i in (0, 2):
                assert scores[i] == OverlapScorer().score_candidates(batch[i])
            assert len(inner.calls) == 2 and len(cache) == 9
        assert len(_record_lines(path)) == 3

    def test_pair_repeated_in_one_batch_writes_one_record(self, tmp_path):
        # two labels share a surface, so the mention holds one pair twice
        labels = [_label("a1", "alpha"), _label("b", "beta"), _label("a2", "alpha")]
        candidates = type_candidates(mk_instance(), labels, TemplateKind.TAXONOMIC)
        alpha, beta = candidates.pairs()[:2]
        inner = TableScorer({(alpha.premise, alpha.hypothesis): 0.25,
                             (beta.premise, beta.hypothesis): 0.5})
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            scorer = CachedScorer(inner, cache)
            assert scorer.score_candidates(candidates) == [0.25, 0.5, 0.25]
            assert scorer.score_candidates(candidates) == [0.25, 0.5, 0.25]
            assert len(cache) == 3
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1

    def test_cold_batch_hashes_premise_once(self, tmp_path, monkeypatch):
        texts = []
        real = scoring.hashlib.sha256

        def counting_sha256(data):
            texts.append(data.decode())
            return real(data)

        n = 50
        labels = [_label(f"l{i}", f"label{i}") for i in range(n)]
        candidates = type_candidates(mk_instance(right=("one", "shared", "premise")), labels,
                                     TemplateKind.TAXONOMIC)
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            scorer = CachedScorer(OverlapScorer(), cache)
            monkeypatch.setattr(scoring.hashlib, "sha256", counting_sha256)
            scorer.score_candidates(candidates)
            scorer.score_candidates(candidates)
            monkeypatch.undo()
            assert len(cache) == n
        # the surface list is hashed once, then one digest per call, of the tag, the
        # premise, the frame and the list's digest
        surfaces = json.dumps([f"label{i}" for i in range(n)])
        expected = json.dumps(["overlap v0", "Jay one shared premise", "Jay is a ", ".",
                               hashlib.sha256(surfaces.encode()).hexdigest()])
        assert texts == [surfaces, expected, expected]
        assert expected == _key_text("overlap v0", candidates)


def _hex(scores):
    return [float.hex(float(s)) for s in scores]


def _subset(candidates, part):
    """The labels of ``candidates`` at positions ``part``, as a smaller vocabulary gives them."""
    return dataclasses.replace(candidates, labels=[candidates.labels[i] for i in part],
                               surfaces=[candidates.surfaces[i] for i in part], failed=())


class RecordingOverlap(OverlapScorer):
    """Overlap scorer that records the labels of each ``score_candidates`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def score_candidates(self, candidates):
        self.calls.append(([label.raw for label in candidates.labels], candidates.failed))
        return super().score_candidates(candidates)


class TestCachedCandidates:
    """``CachedScorer.score_candidates`` cold, warm and reopened against the pair path."""

    def test_fuzz_equals_pair_path_bit_for_bit(self, tmp_path):
        rng = random.Random(71)
        path = tmp_path / "cache.jsonl"
        batch, expected = [], []
        with ScoreCache(path) as cache:
            cached = CachedScorer(OverlapScorer(), cache)
            for round_ in range(600):
                template = list(TemplateKind)[round_ % 3]
                # every 50th mention is empty, so every label fails
                candidates = _fuzz_candidates(rng, template, empty_mention=round_ % 50 == 49)
                # a shorter list of the same mention is a record of its own
                part = sorted(rng.sample(range(len(candidates.labels)),
                                         rng.randint(0, len(candidates.labels))))
                for each in (_subset(candidates, part), candidates):
                    uncached = [oracle_overlap(p.premise, p.hypothesis) for p in each.pairs()]
                    assert _hex(OverlapScorer().score_candidates(each)) == _hex(uncached)
                    cold = cached.score_candidates(each)
                    warm = cached.score_candidates(each)
                    assert _hex(cold) == _hex(warm) == _hex(uncached)
                    batch.append(each)
                    expected.append(_hex(uncached))
        inner = RecordingOverlap()
        with ScoreCache(path) as cache:
            reopened = CachedScorer(inner, cache)
            assert [_hex(reopened.score_candidates(c)) for c in batch] == expected
        assert inner.calls == []

    def test_named_surfaces_equal_pair_path(self, tmp_path):
        surfaces = ["ß", "İ", "ΑΣ", "İstanbul ßoxer", "is a", "referring to", "context",
                    "Jay", "this context", "."]
        labels = [_label(f"l{i}", s) for i, s in enumerate(surfaces)]
        instances = [
            mk_instance(mention="ßoxer", right=("is", "a", "ΑΣ", "in", "this", "context", ".")),
            mk_instance(left=("In", "İ"), mention="Jay", right=("referring", "to", "ß")),
            mk_instance(mention="İ"),
        ]
        path = tmp_path / "cache.jsonl"
        batch = [type_candidates(i, labels, t) for i in instances for t in TemplateKind]
        expected = [_hex(oracle_overlap(p.premise, p.hypothesis) for p in c.pairs())
                    for c in batch]
        for run in ("cold", "warm"):
            inner = RecordingOverlap()
            with ScoreCache(path) as cache:
                scorer = CachedScorer(inner, cache)
                assert [_hex(scorer.score_candidates(c)) for c in batch] == expected
            assert len(inner.calls) == (len(batch) if run == "cold" else 0)
        capitalized = type_candidates(instances[0], labels, TemplateKind.SUBSTITUTION)
        assert capitalized.surfaces[:3] == ["SS", "İ", "ΑΣ"]

    def test_inner_scorer_sees_only_the_misses_in_order(self, tmp_path):
        labels = [_label(f"l{i}", f"word{i}") for i in range(6)]
        instance = mk_instance(mention="Jay", right=("word1", "word4", "."))
        candidates = type_candidates(instance, labels, TemplateKind.TAXONOMIC)
        warm = _subset(candidates, [1, 4])
        inner = RecordingOverlap()
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            scorer = CachedScorer(inner, cache)
            scorer.score_candidates(warm)
            # another label list misses in full, then both hit
            scores = [scorer.score_candidates(c) for c in (candidates, warm, candidates)]
        assert inner.calls == [(["l1", "l4"], ()), (["l0", "l1", "l2", "l3", "l4", "l5"], ())]
        assert scores[0] == scores[2] == OverlapScorer().score_candidates(candidates)

    def test_cold_pass_hands_over_the_whole_candidates(self, tmp_path):
        labels = [_label("a", "alpha"), _label("b", ""), _label("c", "gamma")]
        candidates = type_candidates(mk_instance(), labels, TemplateKind.CONTEXTUAL)
        inner = RecordingOverlap()
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            CachedScorer(inner, cache).score_candidates(candidates)
        assert inner.calls == [(["a", "c"], (1,))]

    def test_warm_pass_calls_nothing_and_writes_nothing(self, tmp_path):
        rng = random.Random(72)
        path = tmp_path / "cache.jsonl"
        inner = RecordingOverlap()
        with ScoreCache(path) as cache:
            scorer = CachedScorer(inner, cache)
            batch = [type_candidates(_fuzz_instance(rng), _fuzz_labels(rng, 10), template)
                     for template in TemplateKind]
            cold = [scorer.score_candidates(c) for c in batch]
            size, calls = path.stat().st_size, len(inner.calls)
            assert [scorer.score_candidates(c) for c in batch] == cold
            assert path.stat().st_size == size and len(inner.calls) == calls == 3

    def test_served_list_is_a_copy(self, tmp_path):
        # a list-returning scorer's record is served as a list (groups: TestGroupRecords)
        candidates, table = _table_candidates({"a": 0.25, "b": 0.5})
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            scorer = CachedScorer(TableScorer(table), cache)
            for _ in range(2):
                scorer.score_candidates(candidates).append(1.0)
            assert scorer.score_candidates(candidates) == [0.25, 0.5]

    @pytest.mark.parametrize("tag", ["v0", 'v"1\\', "vé\u2028ΑΣ", "v\n\t"])
    def test_record_lines_equal_json_dumps(self, tmp_path, tag):
        scores = [0.0, 1.0, 0.5, 1 / 3, 0.1 + 0.2, 5e-324, 1e-300, -0.0, 1, 0]
        labels = [_label(f"l{i}", f"Ünïcode label {i}") for i in range(len(scores))]
        candidates = type_candidates(mk_instance(), labels, TemplateKind.CONTEXTUAL)
        digest = hashlib.sha256(json.dumps(candidates.surfaces).encode("ascii")).hexdigest()
        text = json.dumps([tag, candidates.premise, candidates.head, candidates.tail, digest])
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            key = cache.key(tag, candidates)
            assert key == hashlib.sha256(text.encode("ascii")).hexdigest()
            assert cache.key(tag + " ", candidates) != key
            cache.put(key, scores)
        expected = json.dumps({"k": key, "s": [float(s) for s in scores]}) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    # a list record is written by json.dumps, however many distinct scores or zeros it holds
    @pytest.mark.parametrize("spread", [0, 2400, 50000])
    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0), (0.0,), (-0.0,), ()])
    def test_long_record_line_equals_json_dumps(self, tmp_path, zeros, spread):
        rng = random.Random(74)
        values = [1 / 3, 0.5, 1.0, 5e-324, 0.1 + 0.2, 1e-300, *zeros]
        values += [rng.random() for _ in range(spread)]
        scores = list(zeros) + [rng.choice(values) for _ in range(5000)]
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(KEY_A, scores)
        assert path.read_text(encoding="utf-8") == json.dumps({"k": KEY_A, "s": scores}) + "\n"
        with ScoreCache(path) as cache:
            assert _hex(cache.get(KEY_A, len(scores))) == _hex(scores)

    def test_key_is_the_digest_of_the_whole_text_as_surface_lists_alternate(self, tmp_path):
        rng = random.Random(75)
        vocabs = [LabelVocabulary(_fuzz_labels(rng, 40, prefix=f"v{n}-")) for n in range(2)]
        # the mention opens the sentence in one: its substitution surfaces are capitalized
        instances = [mk_instance(left=("then",), mention="Jay", right=("sang", ".")),
                     mk_instance(mention="Jay", right=("sang", "."))]

        keys = []
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            for _ in range(3):
                for vocab in vocabs:
                    for instance in instances:
                        for template in (TemplateKind.SUBSTITUTION, TemplateKind.TAXONOMIC):
                            candidates = type_candidates(instance, vocab, template)
                            key = cache.key("overlap v0", candidates)
                            assert key == _expected_key("overlap v0", candidates)
                            keys.append(key)
                            # a new list or tuple with equal contents gives the same key
                            for copy in (list, tuple):
                                same = dataclasses.replace(
                                    candidates, surfaces=copy(candidates.surfaces))
                                assert cache.key("overlap v0", same) == key
            assert len(set(keys)) == 8 and keys[:8] * 3 == keys
            # a list changed in place between calls is keyed by what it holds now
            candidates = type_candidates(instances[0], list(vocabs[0]), TemplateKind.TAXONOMIC)
            before = cache.key("overlap v0", candidates)
            candidates.surfaces[0] = "changed"
            assert cache.key("overlap v0", candidates) == _expected_key("overlap v0", candidates)
            assert cache.key("overlap v0", candidates) != before

    def test_text_hashed_per_mention_does_not_grow_with_the_vocabulary(
            self, tmp_path, monkeypatch):
        rng = random.Random(77)
        instances = [_fuzz_instance(rng) for _ in range(4)]
        real = hashlib.sha256
        hashed = {}
        for size in (10, 2000):
            vocab = LabelVocabulary(_fuzz_labels(rng, size))
            batch = [type_candidates(i, vocab, TemplateKind.TAXONOMIC) for i in instances]
            lengths = hashed[size] = []

            def recording(data):
                lengths.append(len(data))
                return real(data)

            with ScoreCache(tmp_path / f"a{size}.jsonl") as a, \
                    ScoreCache(tmp_path / f"b{size}.jsonl") as b:
                monkeypatch.setattr(scoring.hashlib, "sha256", recording)
                for cache in (a, b):
                    for candidates in batch:
                        cache.key("overlap v0", candidates)
                monkeypatch.undo()
            # one long hash per list per cache, then one short text per mention
            listed = len(json.dumps(list(batch[0].surfaces)))
            short = [len(_key_text("overlap v0", c)) for c in batch]
            assert lengths == ([listed] + short) * 2
            assert listed > 10 * size and max(short) < 400
        assert hashed[10][1:5] == hashed[2000][1:5]

    def test_a_record_keyed_by_the_whole_list_text_is_loaded_but_never_served(self, tmp_path):
        labels = [_label(f"l{i}", f"word{i}") for i in range(6)]
        candidates = type_candidates(mk_instance(right=("word1", "word4", ".")), labels,
                                     TemplateKind.TAXONOMIC)
        tag = OverlapScorer().cache_tag
        # earlier versions hashed the surface list's whole JSON text into every key
        text = json.dumps([tag, candidates.premise, candidates.head, candidates.tail,
                           list(candidates.surfaces)])
        old_key = hashlib.sha256(text.encode("ascii")).hexdigest()
        stale = [0.125] * len(labels)
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"k": old_key, "s": stale}) + "\n", encoding="utf-8")
        old = path.read_bytes()
        uncached = OverlapScorer().score_candidates(candidates)
        for run in ("cold", "warm"):
            inner = RecordingOverlap()
            with ScoreCache(path) as cache:
                # the old record is loaded, and checked as it loads
                assert cache.get(old_key, len(labels)) == stale
                served = CachedScorer(inner, cache).score_candidates(candidates)
            assert served == list(uncached) != stale
            assert len(inner.calls) == (run == "cold")
            # re-scored and appended once, under the new key
            assert path.read_bytes() == old + _grouped_text(
                [(_expected_key(tag, candidates), uncached)]).encode()
        path.write_text(json.dumps({"k": old_key, "s": [7.0] * 6}) + "\n", encoding="utf-8")
        with pytest.raises(CacheError, match=r"cache\.jsonl:1: bad cache record: score 7\.0"):
            ScoreCache(path)

    def test_each_cache_encodes_a_surface_list_once_while_mentions_repeat_it(
            self, tmp_path, monkeypatch):
        rng = random.Random(76)
        vocabs = [LabelVocabulary(_fuzz_labels(rng, 20, prefix=f"v{n}-")) for n in range(2)]
        instances = [_fuzz_instance(rng) for _ in range(3)]
        encoded, keyed = [], []
        dumps = json.dumps

        def recording(obj, *args, **kwargs):
            if obj[0] == "overlap v0":  # the tag, premise, frame and list digest
                keyed.append(obj)
            else:  # a surface list
                encoded.append(len(obj))
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(scoring.json, "dumps", recording)
        with ScoreCache(tmp_path / "a.jsonl") as a, ScoreCache(tmp_path / "b.jsonl") as b:
            for cache, vocab in ((a, vocabs[0]), (b, vocabs[1]), (a, vocabs[0])):
                for instance in instances:
                    candidates = type_candidates(instance, vocab, TemplateKind.TAXONOMIC)
                    cache.key("overlap v0", candidates)
                    # an equal list is known by its contents and not encoded again
                    cache.key("overlap v0", dataclasses.replace(
                        candidates, surfaces=list(candidates.surfaces)))
        # one encoding per cache: neither saw another list between its mentions
        assert encoded == [20, 20]
        # and one short text per key, spelling the list by its digest
        assert len(keyed) == 18
        assert {text[4] for text in keyed} == {
            _list_digest(type_candidates(instances[0], vocab, TemplateKind.TAXONOMIC).surfaces)
            for vocab in vocabs}

    @pytest.mark.parametrize(
        "bad, message",
        [(7.0, "score 7.0 outside"), (-0.5, "score -0.5 outside"), (float("nan"), "score nan"),
         (float("inf"), "score inf"), (10**30, r"score 1e\+30 outside \[0, 1\]"), (10**400, "too large"),
         (True, "not a JSON number: True"), ("0.5", "not a JSON number")],
        ids=["above-one", "negative", "nan", "inf", "big-int", "huge-int", "bool", "string"],
    )
    def test_score_that_loading_refuses_is_not_written(self, tmp_path, bad, message):
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(KEY_A, [0.5])
            written = path.read_bytes()
            with pytest.raises(CacheError, match=message):
                cache.put(KEY_B, [0.25, 1, bad])
            with pytest.raises(CacheError, match=message):
                cache.put(KEY_A, [bad])
            assert len(cache) == 1
        assert path.read_bytes() == written
        with ScoreCache(path) as cache:
            assert len(cache) == 1

    def test_put_on_a_closed_cache_raises_and_records_nothing(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        groups = ScoreGroups([0.5, 0.25], bytes([0, 1, 0]), [[0, 2], [1]], {})
        cache = ScoreCache(path)
        cache.put(KEY_A, [0.5])
        written = path.read_bytes()
        cache.close()
        for key, scores in ((KEY_B, [0.25]), (KEY_C, groups)):
            with pytest.raises(CacheError, match=r"^\S*cache\.jsonl: .*closed"):
                cache.put(key, scores)
            assert cache.get(key, len(scores)) is None
        cache.put(KEY_A, [0.5])  # already recorded: left as it is
        assert len(cache) == 1 and path.read_bytes() == written


class WrongReply(OverlapScorer):
    """Overlap scorer whose replies are cut short or carry one bad score."""

    def __init__(self, bad):
        super().__init__()
        self.bad = bad

    def _spoil(self, scores):
        if self.bad == "short":
            return scores[1:]
        return [self.bad] + scores[1:]

    def score_candidates(self, candidates):
        return self._spoil(super().score_candidates(candidates))


class TestCachedScorerChecksReplies:
    LABELS = [_label(raw, raw) for raw in ("athlete", "city", "person")]

    # "misses": the cache holds another mention's record already, so this
    # one misses in full beside it
    @pytest.mark.parametrize("path_kind", ["candidates", "misses"])
    @pytest.mark.parametrize(
        "bad, message",
        [("short", "scorer returned 2 scores for 3 pairs"),
         (1.5, "score 1.5 outside \\[0, 1\\] for label 'athlete'"),
         (float("nan"), "score nan outside \\[0, 1\\] for label 'athlete'"),
         (-0.25, "score -0.25 outside \\[0, 1\\] for label 'athlete'"),
         (True, "not a JSON number: True for label 'athlete'"),
         ("0.5", "not a JSON number: '0.5' for label 'athlete'"),
         (Fraction(1, 2), "not a JSON number: Fraction\\(1, 2\\) for label 'athlete'")],
        ids=["short", "above-one", "nan", "negative", "bool", "string", "fraction"],
    )
    def test_bad_reply_raises_and_writes_nothing(self, tmp_path, path_kind, bad, message):
        candidates = type_candidates(mk_instance(), self.LABELS, TemplateKind.TAXONOMIC)
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            warm = [0.5] * 2 if path_kind == "misses" else []
            if warm:
                cache.put(cache.key("overlap v0", _subset(candidates, [0, 1])), warm)
            written = path.read_bytes()
            with pytest.raises(ValidationError, match=message):
                CachedScorer(WrongReply(bad), cache).score_candidates(candidates)
            assert len(cache) == len(warm)
        assert path.read_bytes() == written

    def test_int_scores_dump_the_same_cold_and_warm(self, tmp_path):
        class RoundedOverlap(OverlapScorer):
            def score_candidates(self, candidates):
                return [round(s) for s in super().score_candidates(candidates)]

        vocab = LabelVocabulary(self.LABELS)
        instance = mk_instance(right=("toured", "the", "city", "."))
        config = PredictionConfig(threshold=0.5, template=TemplateKind.SUBSTITUTION)
        dumps = []
        for run in ("cold", "warm"):
            with ScoreCache(tmp_path / "cache.jsonl") as cache:
                inner = RoundedOverlap()
                ranking = rank_all_candidates(instance, vocab, CachedScorer(inner, cache),
                                              config.template)
                dumps.append(json.dumps(prediction_to_record(predict(ranking, config))))
                assert len(cache) == len(self.LABELS)
        assert dumps[0] == dumps[1]
        assert '{"label": "city", "score": 1.0}' in dumps[0]

    def test_ranking_through_a_bad_reply_raises(self, tmp_path):
        vocab = LabelVocabulary(self.LABELS)
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            with pytest.raises(ValidationError, match="outside"):
                rank_all_candidates(mk_instance(), vocab, CachedScorer(WrongReply(1.5), cache),
                                    TemplateKind.SUBSTITUTION)


class TestCheckedOnce:
    """Cache-served scores were checked when loaded or stored, and are not checked again."""

    def test_ranking_checks_only_what_no_cache_checked(self, tmp_path, monkeypatch):
        calls = []

        def counting(name, real):
            def check(scores, *args):
                calls.append((name, type(scores).__name__))
                return real(scores, *args)
            return check

        monkeypatch.setattr(inference, "check_scores",
                            counting("rank", inference.check_scores))
        monkeypatch.setattr(scoring, "check_scores", counting("cache", scoring.check_scores))
        vocab = LabelVocabulary([_label(raw, raw) for raw in ("athlete", "city", "person")])
        instance = mk_instance(right=("toured", "the", "city", "."))
        table = {(p.premise, p.hypothesis): 0.75 for p in type_candidates(
            instance, vocab, TemplateKind.TAXONOMIC).pairs()}
        path = tmp_path / "cache.jsonl"
        rankings = []
        with ScoreCache(path) as cache:
            for _ in range(2):  # cold, then warm
                rankings.append(rank_all_candidates(
                    instance, vocab, CachedScorer(TableScorer(table), cache),
                    TemplateKind.TAXONOMIC))
            assert type(cache.get(cache.key(TableScorer(table).cache_tag, type_candidates(
                instance, vocab, TemplateKind.TAXONOMIC)), 3)) is CheckedScores
        # ranking, and the cache storing the reply, are handed what was checked,
        # cold and warm alike
        assert calls == [("cache", "list"), ("cache", "CheckedScores"),
                         ("rank", "CheckedScores"), ("rank", "CheckedScores")]
        calls.clear()
        with ScoreCache(path) as cache:  # reopened: each record checked as it loads
            rankings.append(rank_all_candidates(
                instance, vocab, CachedScorer(TableScorer(table), cache), TemplateKind.TAXONOMIC))
        rankings.append(rank_all_candidates(instance, vocab, TableScorer(table),
                                            TemplateKind.TAXONOMIC))
        assert calls == [("cache", "list"), ("rank", "CheckedScores"), ("rank", "list")]
        assert rankings[0] == rankings[1] == rankings[2] == rankings[3]
        assert rankings[0].scores == (0.75, 0.75, 0.75)

    @pytest.mark.parametrize("mode", ["ok", "pairs-only"])
    def test_external_replies_are_checked_once_as_read(self, monkeypatch, mode):
        read, calls = [], []
        unit_score = scoring.unit_score

        def reading(value):
            read.append(value)
            return unit_score(value)

        def counting(name, real):
            def check(scores, *args):
                calls.append((name, type(scores).__name__))
                if name == "pass":
                    passed.append(sorted(scores))
                return real(scores, *args)
            return check

        passed = []
        monkeypatch.setattr(scoring, "unit_score", reading)
        monkeypatch.setattr(scoring, "_unit_floats", counting("pass", scoring._unit_floats))
        monkeypatch.setattr(inference, "check_scores",
                            counting("rank", inference.check_scores))
        vocab = LabelVocabulary([_label(raw, raw) for raw in ("athlete", "city", "person")])
        scorer = ExternalScorer(stub_command(mode))
        try:
            ranking = rank_all_candidates(mk_instance(right=("toured", "the", "city", ".")),
                                          vocab, scorer, TemplateKind.TAXONOMIC)
        finally:
            scorer.close()
        # each score is checked once as its reply is read: a per-mention reply of floats
        # in [0, 1] in one pass, pair replies one by one; ranking takes the list as it is
        if mode == "ok":
            assert read == [] and passed == [sorted(ranking.scores)]
            assert calls == [("pass", "list"), ("rank", "CheckedScores")]
        else:
            assert len(read) == 3 and sorted(read) == sorted(ranking.scores)
            assert passed == [] and calls == [("rank", "CheckedScores")]

    def test_a_stored_checked_list_is_not_checked_again(self, tmp_path):
        checked = scoring.check_scores([0.5, 1, 0.0], 3, str)
        assert type(checked) is CheckedScores and checked == [0.5, 1.0, 0.0]
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            cache.put(KEY_A, checked)
            # this one breaks the promise of its type, which shows that neither
            # check_scores nor put looks again
            broken = CheckedScores([2.0])
            assert scoring.check_scores(broken, 1, str) is broken
            with pytest.raises(ValidationError, match="2 scores for 1 pairs"):
                scoring.check_scores(CheckedScores([0.5, 0.5]), 1, str)
            cache.put(KEY_B, broken)
            with pytest.raises(CacheError, match="score 2.0 outside"):
                cache.put(KEY_C, [2.0])
            assert cache.get(KEY_A, 3) == [0.5, 1.0, 0.0] and cache.get(KEY_B, 1) == [2.0]
        assert (tmp_path / "cache.jsonl").read_text() == "".join(
            json.dumps({"k": key, "s": scores}) + "\n"
            for key, scores in ((KEY_A, [0.5, 1.0, 0.0]), (KEY_B, [2.0])))


class GroupsScorer(EntailmentScorer):
    """Answers every mention with a fresh copy of one set of groups."""

    def __init__(self, groups):
        self.groups = groups
        self.replies = []

    def score(self, pair):
        raise AssertionError("ranking scores whole mentions")

    def score_candidates(self, candidates):
        g = self.groups
        self.replies.append(ScoreGroups(list(g.defaults), g.group_of, g.members,
                                        dict(g.exceptions)))
        return self.replies[-1]


def _random_groups(rng, size):
    """Seeded groups over ``size`` (at least 6) positions with every awkward case.

    Both zeros serve labels as defaults and stand as exceptions, one
    exception equals its group's default, every member of the 0.25 group is
    an exception (its default serves no label), and the last group has no
    members at all.
    """
    pool = [0.0, -0.0, 1.0, 0.5, 1 / 3, 0.1 + 0.2, 5e-324, 1e-300]
    defaults = [0.0, -0.0, 0.25, *(rng.choice(pool + [rng.random()])
                                   for _ in range(rng.randint(0, 4))), 0.75]
    group_of = [0, 1, 2, 3 % (len(defaults) - 1)]
    group_of += [rng.randrange(len(defaults) - 1) for _ in range(size - len(group_of))]
    members = [[i for i, g in enumerate(group_of) if g == n] for n in range(len(defaults))]
    exceptions = {2: -0.0, 3: 0.0, 4: defaults[group_of[4]]}
    for i in rng.sample(range(5, size), (size - 5) // 3):
        exceptions[i] = rng.choice(pool + [rng.random()])
    for i in members[2]:
        exceptions.setdefault(i, rng.choice(pool))
    return ScoreGroups(defaults, bytes(group_of), members, exceptions)


class TestGroupRecords:
    """Records put as :class:`ScoreGroups` are held and served as groups."""

    @staticmethod
    def _ranked(instance, vocab, scorer, template):
        """The raw labels and the hex scores of ``scorer``'s ranking."""
        ranking = rank_all_candidates(instance, vocab, scorer, template)
        return [label.raw for label in ranking.labels], _hex(ranking.scores)

    def test_overlap_miss_and_hit_return_groups_ranked_as_runs(self, tmp_path):
        vocab = LabelVocabulary([_label(f"l{i}", f"word{i}") for i in range(6)])
        instance = mk_instance(right=("word1", "word4", "."))
        candidates = type_candidates(instance, vocab, TemplateKind.TAXONOMIC)
        uncached = rank_all_candidates(instance, vocab, OverlapScorer(), TemplateKind.TAXONOMIC)
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            scorer = CachedScorer(OverlapScorer(), cache)
            for _ in range(2):  # a miss, then a hit
                assert type(scorer.score_candidates(candidates)) is ScoreGroups
            rankings = [rank_all_candidates(instance, vocab, scorer, TemplateKind.TAXONOMIC)
                        for _ in range(2)]
            assert [type(r._entries) for r in rankings] == [inference._Runs] * 2
        with ScoreCache(path) as cache:  # a record loaded from the file is groups too
            scorer = CachedScorer(OverlapScorer(), cache)
            assert type(scorer.score_candidates(candidates)) is ScoreGroups
            rankings.append(rank_all_candidates(instance, vocab, scorer, TemplateKind.TAXONOMIC))
            assert type(rankings[-1]._entries) is inference._Runs
        assert rankings == [uncached] * 3
        assert uncached.scores[:3] == (1.0, 1.0, 0.5)

    def test_mutating_served_or_returned_groups_changes_no_hit_or_file(self, tmp_path):
        labels = [_label(f"l{i}", f"word{i}") for i in range(6)]
        candidates = type_candidates(mk_instance(right=("word1", "word4", ".")), labels,
                                     TemplateKind.TAXONOMIC)
        expected = _hex(OverlapScorer().score_candidates(candidates))
        inner = RecordingOverlap()
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            scorer = CachedScorer(inner, cache)
            key = cache.key(inner.cache_tag, candidates)
            returned = scorer.score_candidates(candidates)
            line = _grouped_text([(key, returned)])
            assert path.read_text() == line
            # the scorer's own groups, handed back on the miss
            returned.exceptions.clear()
            returned.defaults[:] = [1.0] * len(returned.defaults)
            for _ in range(2):
                served = scorer.score_candidates(candidates)
                assert _hex(served) == expected
                served.exceptions.clear()
                served.exceptions[0] = 1.0
            with pytest.raises(TypeError):
                served.defaults[0] = 1.0  # held as a tuple, shared by every hit
            with pytest.raises(TypeError):
                served.members[1][0] = 5  # the overlap index's read-only views
            with pytest.raises(TypeError):
                served.group_of[0] = 5
            assert _hex(scorer.score_candidates(candidates)) == expected
            assert len(inner.calls) == 1 and len(cache) == 6
        assert path.read_text() == line

    def test_random_groups_write_json_dumps_and_rank_alike_reopened(self, tmp_path):
        rng = random.Random(77)
        path = tmp_path / "cache.jsonl"
        records = [("%064x" % n, _random_groups(rng, rng.randint(6, 400))) for n in range(40)]
        with ScoreCache(path) as cache:
            for key, groups in records:
                cache.put(key, groups)
            held = [_hex(cache.get(key, len(groups))) for key, groups in records]
        assert path.read_text(encoding="utf-8") == _grouped_text(records)
        with ScoreCache(path) as cache:
            assert len(cache) == sum(len(groups) for _, groups in records)
            served = [cache.get(key, len(groups)) for key, groups in records]
            assert {type(groups) for groups in served} == {ScoreGroups}
            assert [_hex(groups) for groups in served] == held
        assert held == [_hex(groups) for _, groups in records]

        # a vocabulary with a label that fails to render, ranked with the mention
        # starting its sentence under the substitution template (capitalized surfaces)
        surfaces = [f"w{i}" for i in range(60)]
        surfaces[17] = ""
        vocab = LabelVocabulary([_label(f"l{i:02d}", s) for i, s in enumerate(surfaces)])
        instance = mk_instance(right=("sang", "."))
        for template in TemplateKind:
            scorer = GroupsScorer(_random_groups(rng, 59))
            uncached = self._ranked(instance, vocab, scorer, template)
            path = tmp_path / f"{template.value}.jsonl"
            with ScoreCache(path) as cache:
                cached = CachedScorer(scorer, cache)
                cold, warm = (self._ranked(instance, vocab, cached, template) for _ in range(2))
            with ScoreCache(path) as cache:
                reopened = self._ranked(instance, vocab, CachedScorer(scorer, cache), template)
                assert len(cache) == 59
            assert cold == warm == reopened == uncached
            assert "l17" in uncached[0] and len(uncached[0]) == 60
            assert len(scorer.replies) == 2  # the uncached ranking and the cold miss

    def test_put_groups_keeps_puts_checks(self, tmp_path):
        def groups(defaults, exceptions=None, members=([0, 2], [1])):
            return ScoreGroups(defaults, bytes([0, 1, 0]), [list(m) for m in members],
                               exceptions or {})

        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(KEY_A, groups([0.5, 0.25]))
            written = path.read_bytes()
            for key, bad, message in [
                ("k", groups([0.5, 0.25]), '"k" must be a SHA-256 hex digest'),
                (KEY_B, groups([1.5, 0.25]), r"score 1\.5 outside \[0, 1\]"),
                (KEY_B, groups([0.5, float("nan")]), "score nan outside"),
                (KEY_B, groups([0.5, 0.25], {2: True}), "not a JSON number: True"),
                (KEY_B, groups([0.5, 0.25], {1: -0.25}), r"score -0\.25 outside"),
                (KEY_B, groups([0.5, 0.25], members=([0, 2], [1, 1])), "3 labels"),
                (KEY_B, groups([0.5, 0.25], {3: 0.5}), "exception key 3"),
            ]:
                with pytest.raises(CacheError, match=message):
                    cache.put(key, bad)
            assert len(cache) == 3 and cache.get(KEY_B, 3) is None
            assert path.read_bytes() == written
            # groups that check_scores reads as a list are recorded as the list
            cache.put(KEY_B, groups([1, 0.25]))
            cache.put(KEY_C, groups([0.5, 0.25, "no label"], members=([0, 2], [1], [])))
            assert type(cache.get(KEY_A, 3)) is ScoreGroups
            for key in (KEY_B, KEY_C):
                assert type(cache.get(key, 3)) is CheckedScores
            assert cache.get(KEY_B, 3) == [1.0, 0.25, 1.0]
        records = ((KEY_B, [1.0, 0.25, 1.0]), (KEY_C, [0.5, 0.25, 0.5]))
        assert path.read_text() == _grouped_text([(KEY_A, groups([0.5, 0.25]))]) + "".join(
            json.dumps({"k": key, "s": scores}) + "\n" for key, scores in records)


class TestSparseRecords:
    """Groups are written as one group line per ``group_of`` and a short line per mention."""

    GROUP = '{"g": 0, "of": [0, 1, 0]}\n'
    RECORD = '{"k": "%s", "g": 0, "d": [0.5, 0.25], "i": [2], "x": [1.0]}\n' % KEY_A

    def test_cold_write_reopen_and_rank_as_runs_like_uncached(self, tmp_path, monkeypatch):
        rng = random.Random(78)
        surfaces = [f"w{i}" for i in range(30)] + ["w1 w2", "w3 w4 w5", "sang", ""]
        vocab = LabelVocabulary([_label(f"l{i:02d}", s) for i, s in enumerate(surfaces)])
        instances = [mk_instance(left=(), mention="Jay", right=("sang", "w3", ".")),
                     *(_fuzz_instance(rng) for _ in range(5)),
                     mk_instance(left=("then",), mention="Kim", right=("w1", "w2", "."))]
        # the substitution template capitalizes the surfaces of a mention opening its sentence
        batch = [(instance, template) for instance in instances for template in
                 (TemplateKind.TAXONOMIC, TemplateKind.SUBSTITUTION)]
        uncached = [rank_all_candidates(i, vocab, OverlapScorer(), t) for i, t in batch]
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cold = [rank_all_candidates(i, vocab, CachedScorer(OverlapScorer(), cache), t)
                    for i, t in batch]
        written = path.read_bytes()
        lines = [json.loads(line) for line in written.splitlines()]
        # one group line: both surface lists' indexes hold equal token counts
        assert ["k" in line for line in lines] == [False] + [True] * len(batch)
        assert lines[0] == {"g": 0, "of": [1] * 30 + [2, 3, 1]}
        assert all(len(line["d"]) == 4 and line["g"] == 0 for line in lines[1:])
        checked = []
        monkeypatch.setattr(scoring, "_disagreement", lambda *pair: checked.append(pair))
        inner = RecordingOverlap()
        with ScoreCache(path) as cache:
            scorer = CachedScorer(inner, cache)
            candidates = type_candidates(instances[0], vocab, TemplateKind.TAXONOMIC)
            served = scorer.score_candidates(candidates)
            assert type(served) is ScoreGroups and served == list(
                OverlapScorer().score_candidates(candidates))
            warm = [rank_all_candidates(i, vocab, scorer, t) for i, t in batch]
        assert {type(ranking._entries) for ranking in warm} == {inference._Order}  # "" fails
        assert warm == cold == uncached and inner.calls == [] and checked == []
        assert path.read_bytes() == written  # a warm run appends nothing
        # without the failing label, each reopened record ranks as runs
        vocab = LabelVocabulary(list(vocab)[:-1])
        with ScoreCache(path) as cache:
            scorer = CachedScorer(OverlapScorer(), cache)
            for instance, template in batch:
                runs = rank_all_candidates(instance, vocab, scorer, template)
                assert type(runs._entries) is inference._Runs
                assert runs == rank_all_candidates(instance, vocab, OverlapScorer(), template)
        # a label that fails to render is left out of the key, so every mention hit
        assert path.read_bytes() == written and checked == []

    def test_a_group_of_is_known_by_its_values(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        group_of = bytes([0, 1, 0])
        groups = lambda of, members=([0, 2], [1]): ScoreGroups(
            [0.5, 0.25], of, [list(m) for m in members], {})
        with ScoreCache(path) as cache:
            cache.put(KEY_A, groups(group_of))
            cache.put(KEY_B, groups(group_of))
        with ScoreCache(path) as cache:  # a group line read from the file counts as written
            cache.put(KEY_C, groups([0, 1, 0]))
            cache.put("d" * 64, groups([1, 0, 0], ([1, 2], [0])))
            cache.put("e" * 64, groups(bytes([1, 0, 0]), ([1, 2], [0])))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(line.get("k", "")[:1], line["g"]) for line in lines] == [
            ("", 0), ("a", 0), ("b", 0), ("c", 0), ("", 1), ("d", 1), ("e", 1)]
        assert lines[4] == {"g": 1, "of": [1, 0, 0]}

    def test_groups_naming_too_many_groups_are_written_as_a_list(self, tmp_path):
        def groups(top):
            members = [[] for _ in range(top + 1)]
            members[0], members[top] = [0], [1]
            return ScoreGroups([0.5] + [0.25] * top, [0, top], members, {1: 1.0})

        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(KEY_A, groups(257))  # as many groups as a group line may name
            cache.put(KEY_B, groups(258))
            assert type(cache.get(KEY_B, 2)) is CheckedScores
        assert path.read_text(encoding="utf-8") == _grouped_text(
            [(KEY_A, groups(257))]) + json.dumps({"k": KEY_B, "s": [0.5, 1.0]}) + "\n"
        with ScoreCache(path) as cache:
            assert [type(cache.get(key, 2)) for key in (KEY_A, KEY_B)] == [
                ScoreGroups, CheckedScores]
            assert cache.get(KEY_A, 2) == cache.get(KEY_B, 2) == [0.5, 1.0]

    @pytest.mark.parametrize("top", [0, 9, 10, 255, 256, 300])
    def test_group_lines_spell_group_of_as_json_dumps(self, tmp_path, top):
        rng = random.Random(top)
        values = [top] + [rng.randrange(top + 1) for _ in range(500)]
        # as built, and as a scorer might hand it over: a list
        group_of, members = scoring._readonly_groups(values, top + 1)
        records = [(KEY_A, ScoreGroups([0.5] * (top + 1), group_of, members, {3: 1.0})),
                   (KEY_B, ScoreGroups([0.25] * (top + 1), list(values),
                                       [list(m) for m in members], {}))]
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            for key, groups in records:
                cache.put(key, groups)
        assert path.read_text(encoding="utf-8") == _grouped_text(records)
        with ScoreCache(path) as cache:
            assert [_hex(cache.get(key, 501)) for key, _ in records] == [
                _hex(groups) for _, groups in records]

    @pytest.mark.parametrize("group_of", [
        b"", bytes([0]), bytes(range(10)) * 3, bytes([10, 0, 9]), bytes(range(256)),
        array.array("L", [1, 0, 1]), memoryview(array.array("L", [2, 0, 1])).toreadonly(),
        array.array("L", [300, *range(300)]), (0, 11, 3)],
        ids=["empty", "one", "digits", "ten", "bytes", "L-digits", "L-view", "L-wide", "tuple"])
    def test_group_line_equals_json_dumps(self, tmp_path, group_of):
        count = max(group_of, default=-1) + 1
        members = [[i for i, g in enumerate(group_of) if g == n] for n in range(count)]
        groups = ScoreGroups([0.5] * count, group_of, members, {0: 1.0} if count else {})
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(KEY_A, groups)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == json.dumps({"g": 0, "of": list(group_of)}) + "\n"
        assert "".join(lines) == _grouped_text([(KEY_A, groups)])
        with ScoreCache(path) as cache:
            assert _hex(cache.get(KEY_A, len(group_of))) == _hex(groups)

    def test_dense_lines_of_earlier_versions_are_served_before_grouped_ones(self, tmp_path):
        labels = [_label(f"l{i}", f"word{i}") for i in range(8)]
        batch = [type_candidates(mk_instance(mention=name, right=("word3", "word5", ".")),
                                 labels, TemplateKind.TAXONOMIC) for name in ("Jay", "Kim")]
        uncached = [OverlapScorer().score_candidates(c) for c in batch]
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            keys = [cache.key("overlap v0", c) for c in batch]
        # as every earlier version of the per-mention format wrote them
        dense = json.dumps({"k": keys[0], "s": list(uncached[0])}) + "\n"
        path.write_text(dense, encoding="utf-8")
        for run in ("dense only", "dense, then grouped"):
            inner = RecordingOverlap()
            with ScoreCache(path) as cache:
                scorer = CachedScorer(inner, cache)
                served = [scorer.score_candidates(c) for c in batch]
            assert [type(s) for s in served] == [CheckedScores, ScoreGroups]
            assert _hex(served[0]) == _hex(uncached[0]) and served == uncached
            assert len(inner.calls) == (1 if run == "dense only" else 0)
        assert path.read_text(encoding="utf-8") == dense + _grouped_text([(keys[1], uncached[1])])
        with ScoreCache(path) as cache:
            assert type(cache.get(keys[0], 8)) is CheckedScores
            assert type(cache.get(keys[1], 8)) is ScoreGroups

    @pytest.mark.parametrize("torn", ["group", "record"])
    def test_a_torn_group_line_or_record_line_is_cut_off(self, tmp_path, torn):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.GROUP + self.RECORD, encoding="utf-8")
        kept = path.read_bytes()
        with ScoreCache(path) as cache:
            cache.put(KEY_B, ScoreGroups([0.75], bytes(3), [[0, 1, 2]], {1: 0.0}))
        whole = path.read_bytes()
        lines = whole[len(kept):].splitlines(keepends=True)
        assert [json.loads(line).get("g") for line in lines] == [1, 1]
        cut = len(kept) + (len(lines[0]) // 2 if torn == "group" else
                           len(lines[0]) + len(lines[1]) // 2)
        path.write_bytes(whole[:cut])
        with ScoreCache(path) as cache:
            assert path.read_bytes() == (kept if torn == "group" else kept + lines[0])
            assert len(cache) == 3 and cache.get(KEY_B, 3) is None
            assert cache.get(KEY_A, 3) == [0.5, 0.25, 1.0]
            cache.put(KEY_B, ScoreGroups([0.75], bytes(3), [[0, 1, 2]], {1: 0.0}))
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("bad, message", [
        pytest.param(RECORD.replace('"g": 0', '"g": 1'), "names unknown group line 1",
                     id="unknown-group"),
        pytest.param(RECORD.replace('"g": 0', '"g": "0"'), "names unknown group line '0'",
                     id="group-string"),
        pytest.param(RECORD.replace('"g": 0', '"g": -1'), "names unknown group line -1",
                     id="group-negative"),
        pytest.param(RECORD.replace("[0.5, 0.25]", "[0.5]"),
                     "1 defaults for group line 0, whose group_of values name 2 groups",
                     id="group-of-value-outside-defaults"),
        pytest.param(RECORD.replace("[0.5, 0.25]", "[0.5, 0.25, 0.75]"),
                     "3 defaults for group line 0", id="defaults-past-the-groups"),
        pytest.param(RECORD.replace('"i": [2]', '"i": [3]'),
                     "exception key 3 is not one of its 3 positions",
                     id="exception-position-outside-group-of"),
        pytest.param(RECORD.replace('"i": [2]', '"i": [-1]'), "exception key -1",
                     id="exception-position-negative"),
        pytest.param(RECORD.replace('"i": [2], "x": [1.0]', '"i": [2, 0], "x": [1.0, 1.0]'),
                     '"i" must list ascending positions', id="positions-descending"),
        pytest.param(RECORD.replace('"i": [2], "x": [1.0]', '"i": [2, 2], "x": [1.0, 1.0]'),
                     '"i" must list ascending positions', id="position-twice"),
        pytest.param(RECORD.replace('"i": [2]', '"i": [2.0]'),
                     '"i" must list ascending positions', id="position-float"),
        pytest.param(RECORD.replace('"x": [1.0]', '"x": []'),
                     '"i" must list ascending positions, one per score', id="scores-short"),
        pytest.param(RECORD.replace('"x": [1.0]', '"x": [2.0]'), "score 2.0 outside",
                     id="exception-above-one"),
        pytest.param(RECORD.replace('"x": [1.0]', '"x": [true]'), "not a JSON number: True",
                     id="exception-bool"),
        pytest.param(RECORD.replace("[0.5, 0.25]", "[0.5, NaN]"), "score nan",
                     id="default-nan"),
        pytest.param(RECORD.replace("[0.5, 0.25]", "0.5"), '"d", "i" and "x" must be lists',
                     id="defaults-not-a-list"),
        pytest.param(RECORD.replace(', "x": [1.0]', ""), '"d", "i" and "x" must be lists',
                     id="scores-missing"),
        pytest.param(RECORD.replace(KEY_A, "x"), '"k" must be a SHA-256 hex digest',
                     id="key-bad"),
        pytest.param('{"g": 2, "of": [0]}\n', "group line 2 where group line 1 was due",
                     id="group-line-out-of-order"),
        pytest.param('{"g": 1, "of": [0, 1.0]}\n', '"of" must be a list of group numbers',
                     id="group-of-float"),
        pytest.param('{"g": 1, "of": [0, true]}\n', '"of" must be a list of group numbers',
                     id="group-of-bool"),
        pytest.param('{"g": 1, "of": [0, -1]}\n', '"of" must be a list of group numbers',
                     id="group-of-negative"),
        pytest.param('{"g": 1, "of": "0"}\n', '"of" must be a list of group numbers',
                     id="group-of-string"),
        pytest.param('{"g": 1, "of": [100000000000]}\n',
                     '"of" names 100000000001 groups for 1 values', id="group-of-huge"),
        pytest.param('{"g": 1, "of": [%d]}\n' % 2 ** 64, '"of" names %d groups' % (2 ** 64 + 1),
                     id="group-of-past-c-longs"),
        pytest.param('{"g": 1, "of": [0, 258]}\n', '"of" names 259 groups for 2 values',
                     id="group-of-one-group-too-many"),
    ])
    def test_bad_grouped_line_names_path_and_line(self, tmp_path, bad, message):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.GROUP + self.RECORD.replace(KEY_A, KEY_B) + bad + self.RECORD,
                        encoding="utf-8")
        with pytest.raises(CacheError, match=r"cache\.jsonl:3: bad cache record: .*"
                           + re.escape(message)):
            ScoreCache(path)
        path.write_text(self.GROUP + self.RECORD, encoding="utf-8")
        with ScoreCache(path) as cache:
            assert cache.get(KEY_A, 3) == [0.5, 0.25, 1.0]

    @pytest.mark.parametrize("wide", [False, True])
    def test_loaded_groups_are_read_only_and_shared(self, tmp_path, wide):
        group_of = [0, 1, 0, 256 if wide else 2]
        path = tmp_path / "cache.jsonl"
        defaults = [0.5, 0.25] + [0.0] * (max(group_of) - 1)
        path.write_text(json.dumps({"g": 0, "of": group_of}) + "\n" + "".join(
            json.dumps({"k": key, "g": 0, "d": defaults, "i": [1], "x": [x]}) + "\n"
            for key, x in ((KEY_A, 1.0), (KEY_B, 0.75))), encoding="utf-8")
        with ScoreCache(path) as cache:
            a, b = cache.get(KEY_A, 4), cache.get(KEY_B, 4)
        assert a == [0.5, 1.0, 0.5, 0.0] and b == [0.5, 0.75, 0.5, 0.0]
        assert a.group_of is b.group_of and a.members is b.members
        assert type(a.group_of) is (memoryview if wide else bytes)
        assert list(a.group_of) == group_of and len(a.members) == len(defaults)
        assert [list(m) for m in a.members] == [
            [i for i, g in enumerate(group_of) if g == n] for n in range(len(defaults))]
        with pytest.raises(TypeError):
            a.group_of[0] = 1
        with pytest.raises(TypeError):
            a.members[0][0] = 1
        assert isinstance(a.members, tuple) and {type(m) for m in a.members} == {memoryview}


class TestCacheCorruption:
    RECORD ='{"k": "%s", "s": [0.25, 0.5]}\n' % KEY_A

    def test_torn_tail_is_dropped_and_next_append_starts_fresh(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.RECORD + '{"k": "%s", "s": [0.' % KEY_B, encoding="utf-8")
        with ScoreCache(path) as cache:
            assert len(cache) == 2
            cache.put(KEY_C, [0.25])
        with ScoreCache(path) as cache:
            assert len(cache) == 3
            assert cache.get(KEY_C, 1) == [0.25]

    def test_torn_multibyte_tail_is_dropped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(self.RECORD.encode() + '{"k": "é'.encode()[:-1])
        with ScoreCache(path) as cache:
            assert len(cache) == 2
        assert path.read_text(encoding="utf-8") == self.RECORD

    def test_torn_mention_is_cut_off_and_scored_again(self, tmp_path):
        labels = [_label(f"l{i}", f"word{i}") for i in range(40)]
        batch = [type_candidates(mk_instance(mention=name, right=("word3", "word7")), labels,
                                 TemplateKind.TAXONOMIC) for name in ("Jay", "Kim")]
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cold = [CachedScorer(OverlapScorer(), cache).score_candidates(c) for c in batch]
        whole = path.read_bytes()
        # a group line and two record lines: the second record is torn halfway
        first = whole.index(b"\n", whole.index(b'"k"')) + 1
        assert whole.count(b"\n") == 3 and whole.index(b'"k"') > whole.index(b"\n")
        path.write_bytes(whole[:first + (len(whole) - first) // 2])
        inner = RecordingOverlap()
        with ScoreCache(path) as cache:
            assert path.read_bytes() == whole[:first]
            assert [CachedScorer(inner, cache).score_candidates(c) for c in batch] == cold
        assert [raws for raws, _ in inner.calls] == [[label.raw for label in labels]]
        assert path.read_bytes() == whole

    def test_complete_final_line_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.RECORD.rstrip("\n"), encoding="utf-8")
        with ScoreCache(path) as cache:
            assert len(cache) == 2
            cache.put(KEY_B, [0.25])
        with ScoreCache(path) as cache:
            assert len(cache) == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            '{"v": "v0", "p": 1, "s": 0.5}',
            '["v0", 1, 2, 0.5]',
            pytest.param(RECORD.replace("0.5", "9" * 401).strip(), id="score-overflowing-integer"),
            pytest.param(RECORD.replace("0.5", "true").strip(), id="score-bool"),
            pytest.param(RECORD.replace("0.5", '"0.5"').strip(), id="score-string"),
            pytest.param(RECORD.replace("0.5", "7").strip(), id="score-above-one"),
            pytest.param(RECORD.replace("0.5", "-1").strip(), id="score-negative"),
            pytest.param(RECORD.replace("0.5", "NaN").strip(), id="score-nan"),
            pytest.param(RECORD.replace("0.5", "Infinity").strip(), id="score-infinity"),
            pytest.param(RECORD.replace("[0.25, 0.5]", "0.5").strip(), id="scores-not-a-list"),
            pytest.param(RECORD.replace("[0.25, 0.5]", '{"0": 0.5}').strip(),
                         id="scores-object"),
            pytest.param('{"s": [0.5]}', id="key-missing"),
            pytest.param('{"k": ["x"], "s": true}', id="key-all-wrong"),
            pytest.param(RECORD.replace(f'"{KEY_A}"', '["x"]').strip(), id="key-list"),
            pytest.param(RECORD.replace(KEY_A, KEY_A[1:]).strip(), id="key-short"),
            pytest.param(RECORD.replace(KEY_A, KEY_A.upper()).strip(), id="key-uppercase"),
            pytest.param(RECORD.replace(KEY_A, "g" * 64).strip(), id="key-not-hex"),
            pytest.param(RECORD.replace(f'"{KEY_A}"', "true").strip(), id="hash-bool"),
            pytest.param(RECORD.replace(f'"{KEY_A}"', "2.7").strip(), id="hash-float"),
            pytest.param(RECORD.replace(f'"{KEY_A}"', "2.0").strip(), id="hash-integral-float"),
            pytest.param(RECORD.replace(f'"{KEY_A}"', "-1").strip(), id="hash-negative"),
            pytest.param(RECORD.replace(f'"{KEY_A}"', str(2**64)).strip(), id="hash-2**64"),
        ],
    )
    def test_bad_inner_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.RECORD + bad + "\n" + self.RECORD, encoding="utf-8")
        with pytest.raises(CacheError, match=r"cache\.jsonl:2: "):
            ScoreCache(path)

    def test_hash_bounds_load(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(f'{{"k": "{"0" * 64}", "s": [1]}}\n{{"k": "{"f" * 64}", "s": []}}\n',
                        encoding="utf-8")
        with ScoreCache(path) as cache:
            assert cache.get("0" * 64, 1) == [1.0] and cache.get("f" * 64, 0) == []

    def test_parseable_final_record_with_missing_key_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.RECORD + '{"s": [0.5]}', encoding="utf-8")
        with pytest.raises(CacheError, match=r"cache\.jsonl:2: "):
            ScoreCache(path)
        assert path.read_text(encoding="utf-8").count("\n") == 1

    def test_hit_of_another_length_raises(self, tmp_path):
        candidates, _ = _table_candidates({"a": 0.25, "b": 0.5})
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(KEY_A, [0.25, 0.5])
            with pytest.raises(CacheError, match="holds 2 scores for 3 surfaces"):
                cache.get(KEY_A, 3)
            cache.put(cache.key("overlap v0", candidates), [0.5])
            with pytest.raises(CacheError, match=r"cache\.jsonl: record [0-9a-f]{64} holds "
                               "1 scores for 2 surfaces"):
                CachedScorer(OverlapScorer(), cache).score_candidates(candidates)

    def test_v1_golden_file_is_refused_and_left_unchanged(self, tmp_path):
        """``overlap_cache_golden.jsonl`` was written by ``predict`` with ``cache_path``
        on the golden test split, for all three templates, in the earlier format of
        one record per (mention, label) pair."""
        golden = Path(__file__).parent / "data" / "overlap_cache_golden.jsonl"
        path = tmp_path / "cache.jsonl"
        path.write_bytes(golden.read_bytes())
        with pytest.raises(CacheError, match=r"cache\.jsonl:1: bad cache record: a per-pair "
                           "record of an earlier cache format"):
            ScoreCache(path)
        assert path.read_bytes() == golden.read_bytes()


class TestScorerSpec:
    def test_overlap(self):
        assert isinstance(scorer_from_spec("overlap"), OverlapScorer)

    def test_table(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"premise": "p", "hypothesis": "h", "score": 0.5}\n')
        scorer = scorer_from_spec(f"table:{path}")
        assert isinstance(scorer, TableScorer)

    def test_trainable_table(self, tmp_path):
        bare = scorer_from_spec("trainable-table")
        assert isinstance(bare, TrainableTableScorer)
        assert bare.score(mk_pair("p", "h")) == 0.5
        path = tmp_path / "t.jsonl"
        path.write_text('{"premise": "p", "hypothesis": "h", "score": 0.5}\n')
        scorer = scorer_from_spec(f"trainable-table:{path}")
        assert isinstance(scorer, TrainableTableScorer)
        assert scorer.score(mk_pair("p", "h")) == 0.5
        assert scorer.score(mk_pair("p", "x")) == 0.0
        path.write_text('{"default": 0.25}\n')
        assert scorer_from_spec(f"trainable-table:{path}").score(mk_pair("p", "x")) == 0.25

    @pytest.mark.parametrize("prefix", ["table", "trainable-table"])
    def test_missing_table_file(self, tmp_path, prefix):
        with pytest.raises(ConfigError, match="missing.jsonl"):
            scorer_from_spec(f"{prefix}:missing.jsonl", base_dir=tmp_path)

    def test_external(self):
        scorer = scorer_from_spec("external:cat -")
        assert isinstance(scorer, ExternalScorer)
        trainable = scorer_from_spec("external-trainable:cat -")
        assert isinstance(trainable, ExternalTrainableScorer)
        for spec in ("external:", "external-trainable: "):
            with pytest.raises(ConfigError, match="command is empty"):
                scorer_from_spec(spec)

    def test_relative_path_resolution(self, tmp_path):
        (tmp_path / "t.jsonl").write_text('{"premise": "p", "hypothesis": "h", "score": 0.5}\n')
        scorer = scorer_from_spec("table:t.jsonl", base_dir=tmp_path)
        assert scorer.score(mk_pair("p", "h")) == 0.5

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            scorer_from_spec("quantum")
