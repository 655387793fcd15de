"""Shared builders for test fixtures."""

import gc
import json

import pytest

from entail_typing import (
    LabelVocabulary,
    MentionInstance,
    PairKind,
    PremiseHypothesisPair,
    TemplateKind,
    PredictionSet,
    Tier,
)
from entail_typing import inference
from entail_typing._util import numbered_jsonl


def mk_instance(id="i-0", left=(), mention="Jay", right=(), gold=("producer",), extras=None):
    return MentionInstance(
        id=id,
        left_tokens=tuple(left),
        mention=mention,
        right_tokens=tuple(right),
        gold_labels=frozenset(gold),
        extras=dict(extras or {}),
    )


def mk_pair(premise="p", hypothesis="h", kind=PairKind.TYPE, instance_id="i-0", label="l"):
    return PremiseHypothesisPair(
        premise=premise,
        hypothesis=hypothesis,
        kind=kind,
        instance_id=instance_id,
        label_raw=label,
        template=TemplateKind.TAXONOMIC,
    )


@pytest.fixture
def tier_vocab():
    """The three-generation boxing vocabulary with a few distractors."""
    partition = {
        Tier.GENERAL: frozenset({"person", "organization", "location"}),
        Tier.FINE: frozenset({"sportsman", "artist"}),
        Tier.ULTRAFINE: frozenset({"boxer", "guitarist"}),
    }
    raws = ["person", "organization", "location", "sportsman", "artist", "boxer", "guitarist"]
    return LabelVocabulary.from_raws(raws, partition)


@pytest.fixture
def onto_vocab():
    """A small path-structured vocabulary."""
    raws = [
        "/location",
        "/location/city",
        "/location/transit/bridge",
        "/person",
        "/person/artist",
        "/organization",
    ]
    return LabelVocabulary.from_raws(raws)


@pytest.fixture
def flat_vocab():
    return LabelVocabulary.from_raws(["currency", "person", "event", "athlete", "location"])


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )


def read_jsonl(path):
    return [record for _, record in numbered_jsonl(path)]


def ufet_record(left, mention, right, y_str, **extras):
    record = {
        "left_context_token": list(left),
        "mention_span": mention,
        "right_context_token": list(right),
        "y_str": list(y_str),
    }
    record.update(extras)
    return record


def _live_predictions():
    return sum(isinstance(o, PredictionSet) for o in gc.get_objects())


def record_live_predictions(monkeypatch):
    """Count the live PredictionSets each time a mention is ranked.

    Returns the list the counts go to and the count before any ranking.
    """
    render = inference.type_candidates
    live = []

    def count_and_render(*args, **kwargs):
        live.append(_live_predictions())
        return render(*args, **kwargs)

    monkeypatch.setattr(inference, "type_candidates", count_and_render)
    gc.collect()
    return live, _live_predictions()
