"""Scorer implementations, the external wire protocol, and the score cache."""

import dataclasses
import json
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import entail_typing.scoring as scoring
import entail_typing.templates as templates
from entail_typing import (
    CacheError,
    CachedScorer,
    ConfigError,
    DatasetLoadError,
    ExternalScorer,
    ExternalTrainableScorer,
    LabelVocabulary,
    OverlapScorer,
    PredictionConfig,
    ProtocolError,
    ScoreCache,
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
from entail_typing.scoring import scorer_from_spec

from conftest import mk_instance, mk_pair
from oracles import oracle_overlap

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
    """``OverlapScorer.score_candidates`` against ``overlap_score`` of each pair."""

    def test_equals_pair_scores_bit_for_bit(self):
        rng = random.Random(61)
        scorer = OverlapScorer()
        for template in TemplateKind:
            for _ in range(400):
                candidates = type_candidates(
                    _fuzz_instance(rng), _fuzz_labels(rng, rng.randint(1, 12)), template
                )
                expected = [overlap_score(p) for p in candidates.pairs()]
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
                    overlap_score(p) for p in candidates.pairs()
                ]
        capitalized = type_candidates(instances[0], labels, TemplateKind.SUBSTITUTION)
        assert capitalized.surfaces[0] == "SSoxer"

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


def _table_candidates(scores):
    """A taxonomic mention with one label per key of ``scores``, and the table giving
    each label's hypothesis its score."""
    labels = [_label(raw, raw) for raw in scores]
    candidates = type_candidates(mk_instance(), labels, TemplateKind.TAXONOMIC)
    return candidates, {(p.premise, p.hypothesis): scores[p.label_raw] for p in candidates.pairs()}


# record keys for tests that put and get records directly
KEY_A, KEY_B, KEY_C = ("%x" % n * 64 for n in (10, 11, 12))


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
        assert len(path.read_text().splitlines()) == 4
        with ScoreCache(path) as cache:
            served = CachedScorer(TableScorer({}, default=0.875), cache).score_candidates(
                candidates)
        assert served == [0.875, 0.875]


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
        assert len(path.read_text().splitlines()) == 3

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
        # one digest per call, of the tag, the premise, the frame and every surface
        expected = json.dumps(["overlap v0", "Jay one shared premise", "Jay is a ", "."]
                              + [[f"label{i}" for i in range(n)]])
        assert texts == [expected] * 2


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
                    uncached = [overlap_score(p) for p in each.pairs()]
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
        expected = [_hex(overlap_score(p) for p in c.pairs()) for c in batch]
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
        candidates, _ = _table_candidates({"a": 0.25, "b": 0.5})
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            scorer = CachedScorer(OverlapScorer(), cache)
            for _ in range(2):
                scorer.score_candidates(candidates).append(1.0)
            assert scorer.score_candidates(candidates) == OverlapScorer().score_candidates(
                candidates)

    @pytest.mark.parametrize("tag", ["v0", 'v"1\\', "vé\u2028ΑΣ", "v\n\t"])
    def test_record_lines_equal_json_dumps(self, tmp_path, tag):
        scores = [0.0, 1.0, 0.5, 1 / 3, 0.1 + 0.2, 5e-324, 1e-300, -0.0, 1, 0]
        labels = [_label(f"l{i}", f"Ünïcode label {i}") for i in range(len(scores))]
        candidates = type_candidates(mk_instance(), labels, TemplateKind.CONTEXTUAL)
        key = ScoreCache.key(tag, candidates)
        text = json.dumps([tag, candidates.premise, candidates.head, candidates.tail,
                           candidates.surfaces])
        assert key == scoring.hashlib.sha256(text.encode("ascii")).hexdigest()
        assert ScoreCache.key(tag + " ", candidates) != key
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put(key, scores)
        expected = json.dumps({"k": key, "s": [float(s) for s in scores]}) + "\n"
        assert path.read_text(encoding="utf-8") == expected

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


class TestCacheCorruption:
    RECORD = '{"k": "%s", "s": [0.25, 0.5]}\n' % KEY_A

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
        first = whole.index(b"\n") + 1
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
