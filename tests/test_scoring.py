"""Scorer implementations, the external wire protocol, and the score cache."""

import json
import random
import sys
from pathlib import Path

import pytest

import entail_typing.scoring as scoring
from entail_typing import (
    CacheError,
    CachedScorer,
    ConfigError,
    ExternalScorer,
    ExternalTrainableScorer,
    OverlapScorer,
    ProtocolError,
    ScoreCache,
    TableScorer,
    TrainableTableScorer,
    TransportError,
    ValidationError,
    overlap_score,
)
from entail_typing.scoring import scorer_from_spec

from conftest import mk_pair
from oracles import oracle_overlap

STUB = str(Path(__file__).parent / "external_stub.py")


def stub_command(mode="ok"):
    return [sys.executable, STUB, mode]


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
        assert scorer.score_batch(pairs) == [scorer.score(p) for p in pairs]

    def test_batch_equals_loop_on_interleaved_and_repeated_premises(self):
        premises = ["Jay, a famous producer", "the sky is BLUE.", "Jay is a producer"]
        hypotheses = ["Jay is a producer.", "is a . in this", "sky is blue,", "Jay is a thing."]
        pairs = [
            mk_pair(premises[i % 3], hypotheses[(i * 7) % 4]) for i in range(24)
        ] + [mk_pair(premises[0], "this is a context referring to .")]
        batch = OverlapScorer().score_batch(pairs)
        assert batch == [overlap_score(p) for p in pairs]
        assert 0.0 in batch and 1.0 in batch


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
            assert len(scorer.score_batch([mk_pair("p", "h")])) == 1
            assert scorer.endpoint._proc is not first
            assert first.stdin.closed and first.stdout.closed
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


class TestScoreCache:
    def test_warm_run_matches_cold_run(self, tmp_path):
        cache = ScoreCache(tmp_path / "cache.jsonl")
        scorer = CachedScorer(OverlapScorer(), cache)
        pairs = [mk_pair(f"word{i} text", f"word{i} is a thing.") for i in range(8)]
        cold = scorer.score_batch(pairs)
        warm = scorer.score_batch(pairs)
        assert warm == cold
        cache.close()

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put("v0", "p", "h", 0.625)
        with ScoreCache(path) as cache:
            assert cache.get("v0", "p", "h") == 0.625
            assert len(cache) == 1

    def test_version_isolation(self, tmp_path):
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            cache.put("v0", "p", "h", 0.25)
            assert cache.get("v1", "p", "h") is None

    def test_cached_scorer_never_reuses_stale_version(self, tmp_path):
        inner = TrainableTableScorer({("p", "pos"): 0.4, ("p", "neg"): 0.9}, lr=0.2)
        cache = ScoreCache(tmp_path / "cache.jsonl")
        scorer = CachedScorer(inner, cache)
        pos = mk_pair("p", "pos")
        assert scorer.score(pos) == 0.4
        inner.accumulate_ranking_loss(pos, [mk_pair("p", "neg")], 0.1)
        inner.apply_update()
        assert scorer.score(pos) == inner.score(pos) != 0.4
        cache.close()

    def test_append_only_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ScoreCache(path) as cache:
            cache.put("v0", "a", "b", 0.5)
            size_one = path.stat().st_size
            cache.put("v0", "c", "d", 0.75)
            assert path.stat().st_size > size_one
            cache.put("v0", "a", "b", 0.5)  # duplicate: no growth
            assert len(path.read_text().splitlines()) == 2


def _write_per_pair(path, version, triples):
    with ScoreCache(path) as cache:
        for premise, hypothesis, score in triples:
            cache.put(version, premise, hypothesis, score)


class TestBatchedCache:
    def test_mixed_hits_and_misses(self, tmp_path):
        pairs = [mk_pair("p", h) for h in ("a", "b", "c")]
        inner = TableScorer({("p", "a"): 0.25, ("p", "b"): 0.5, ("p", "c"): 0.75})
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            cache.put("v0", "p", "b", 0.125)
            scores = CachedScorer(inner, cache).score_batch(pairs)
            assert scores == [0.25, 0.125, 0.75]
            assert len(cache) == 3
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 3

    def test_pair_repeated_in_one_batch_writes_one_record(self, tmp_path):
        inner = TableScorer({("p", "a"): 0.25, ("p", "b"): 0.5})
        pairs = [mk_pair("p", "a"), mk_pair("p", "b"), mk_pair("p", "a")]
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            assert CachedScorer(inner, cache).score_batch(pairs) == [0.25, 0.5, 0.25]
            assert len(cache) == 2
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 2

    def test_file_bytes_match_per_pair_puts(self, tmp_path):
        pairs = [
            mk_pair(f"premise {i % 3} with words", f"Ünïcode label {i} is a thing.")
            for i in range(12)
        ]
        inner = OverlapScorer()
        batched = tmp_path / "batched.jsonl"
        with ScoreCache(batched) as cache:
            CachedScorer(inner, cache).score_batch(pairs)
        per_pair = tmp_path / "per_pair.jsonl"
        _write_per_pair(per_pair, "v0", [(p.premise, p.hypothesis, inner.score(p)) for p in pairs])
        assert batched.read_bytes() == per_pair.read_bytes()

    def test_seed_format_file_loads(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        premise, hypothesis = "Jay produced films", "Jay is a producer."
        record = {
            "v": "v0", "p": scoring.fnv1a_64(premise), "h": scoring.fnv1a_64(hypothesis), "s": 0.75
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with ScoreCache(path) as cache:
            assert CachedScorer(OverlapScorer(), cache).score(mk_pair(premise, hypothesis)) == 0.75

    def test_cold_batch_hashes_premise_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_hash(text):
            calls.append(text)
            return hash(text) & 0xFFFFFFFFFFFFFFFF

        monkeypatch.setattr(scoring, "fnv1a_64", counting_hash)
        n = 50
        pairs = [mk_pair("one shared premise", f"label{i} is a thing.") for i in range(n)]
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            CachedScorer(OverlapScorer(), cache).score_batch(pairs)
            assert len(cache) == n
        assert len(calls) == n + 1


class TestCacheCorruption:
    RECORD = '{"v": "v0", "p": 1, "h": 2, "s": 0.5}\n'

    def test_torn_tail_is_dropped_and_next_append_starts_fresh(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.RECORD + '{"v": "v0", "p": 3, "h"', encoding="utf-8")
        with ScoreCache(path) as cache:
            assert len(cache) == 1
            cache.put("v0", "p", "h", 0.25)
        with ScoreCache(path) as cache:
            assert len(cache) == 2
            assert cache.get("v0", "p", "h") == 0.25

    def test_torn_multibyte_tail_is_dropped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(self.RECORD.encode() + '{"v": "vé'.encode()[:-1])
        with ScoreCache(path) as cache:
            assert len(cache) == 1
        assert path.read_text(encoding="utf-8") == self.RECORD

    def test_complete_final_line_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.RECORD.rstrip("\n"), encoding="utf-8")
        with ScoreCache(path) as cache:
            assert len(cache) == 1
            cache.put("v0", "p", "h", 0.25)
        with ScoreCache(path) as cache:
            assert len(cache) == 2

    @pytest.mark.parametrize(
        "bad", ["not json", '{"v": "v0", "p": 1, "s": 0.5}', '["v0", 1, 2, 0.5]']
    )
    def test_bad_inner_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.RECORD + bad + "\n" + self.RECORD, encoding="utf-8")
        with pytest.raises(CacheError, match=r"cache\.jsonl:2: "):
            ScoreCache(path)

    def test_parseable_final_record_with_missing_key_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.RECORD + '{"v": "v0", "p": 1, "s": 0.5}', encoding="utf-8")
        with pytest.raises(CacheError, match=r"cache\.jsonl:2: "):
            ScoreCache(path)
        assert path.read_text(encoding="utf-8").count("\n") == 1


class TestScorerSpec:
    def test_overlap(self):
        assert isinstance(scorer_from_spec("overlap"), OverlapScorer)

    def test_table(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"premise": "p", "hypothesis": "h", "score": 0.5}\n')
        scorer = scorer_from_spec(f"table:{path}")
        assert isinstance(scorer, TableScorer)

    def test_trainable_table(self, tmp_path):
        assert isinstance(scorer_from_spec("trainable-table"), TrainableTableScorer)
        path = tmp_path / "t.jsonl"
        path.write_text('{"premise": "p", "hypothesis": "h", "score": 0.5}\n')
        scorer = scorer_from_spec(f"trainable-table:{path}")
        assert isinstance(scorer, TrainableTableScorer)
        assert scorer.score(mk_pair("p", "h")) == 0.5

    def test_external(self):
        scorer = scorer_from_spec("external:cat -")
        assert isinstance(scorer, ExternalScorer)
        trainable = scorer_from_spec("external-trainable:cat -")
        assert isinstance(trainable, ExternalTrainableScorer)

    def test_relative_path_resolution(self, tmp_path):
        (tmp_path / "t.jsonl").write_text('{"premise": "p", "hypothesis": "h", "score": 0.5}\n')
        scorer = scorer_from_spec("table:t.jsonl", base_dir=tmp_path)
        assert scorer.score(mk_pair("p", "h")) == 0.5

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            scorer_from_spec("quantum")
