"""Candidate ranking, threshold prediction, and dev-set threshold tuning.

Every vocabulary label is rendered into a hypothesis for the instance and
scored; labels at or above the threshold form the prediction set. When
nothing clears the threshold a fallback policy decides between the
top-ranked label, a designated catch-all label, or an empty set.

A ranking is a :class:`Ranking`: the labels in best-first order beside
their scores, with :class:`ScoredLabel` entries built only when read.
Since it is sorted, the labels clearing a threshold are a prefix of it,
found by bisection, which is what makes re-thresholding during tuning
cheap. A prediction keeps its chosen labels and the first ``topk``
entries of its ranking, never the whole ranking, so what it retains does
not grow with the vocabulary.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .corpus import Dataset, MentionInstance
from .errors import ConfigError, EvaluationError, RenderingError, ValidationError
# loose_macro stays importable from here: bench/tracer.py wraps it by name.
from .evaluation import loose_macro, loose_macro_from_counts  # noqa: F401
from .labelspace import LabelVocabulary, TypeLabel
from .scoring import EntailmentScorer, check_scores
# build_type_pair stays importable from here: bench/tracer.py wraps it by name.
from .templates import TemplateKind, build_type_pair, type_candidates  # noqa: F401

# Tuning grid used when none is supplied: 0.05 through 0.95 in steps of 0.05.
DEFAULT_GRID = tuple(i / 20 for i in range(1, 20))


@dataclass(frozen=True)
class FallbackPolicy:
    """What to predict when no label clears the threshold."""

    kind: str
    label: str | None = None

    _KINDS = ("top1", "other", "empty")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown fallback kind {self.kind!r}")
        if self.kind == "other" and not self.label:
            raise ConfigError("fallback kind 'other' requires a label")
        if self.kind != "other" and self.label is not None:
            raise ConfigError(f"fallback kind {self.kind!r} takes no label")

    @classmethod
    def top1(cls) -> "FallbackPolicy":
        return cls(kind="top1")

    @classmethod
    def empty(cls) -> "FallbackPolicy":
        return cls(kind="empty")

    @classmethod
    def other(cls, label: str) -> "FallbackPolicy":
        return cls(kind="other", label=label)

    @classmethod
    def parse(cls, text: str) -> "FallbackPolicy":
        """Parse the config spelling: "top1", "empty", or "other:<label>"."""
        if text == "top1":
            return cls.top1()
        if text == "empty":
            return cls.empty()
        if text.startswith("other:"):
            return cls.other(text[len("other:"):])
        raise ConfigError(f"unknown fallback spec {text!r}")

    def spec(self) -> str:
        return f"other:{self.label}" if self.kind == "other" else self.kind


@dataclass(frozen=True)
class PredictionConfig:
    """Threshold, fallback, template, and kept ranking depth for one prediction run.

    Thresholds outside [0, 1] are accepted and behave as the obvious
    extremes: at or below 0 everything is chosen, above 1 only the
    fallback fires. A NaN threshold, which no score clears, is rejected.
    ``topk`` is how many leading ranking entries a prediction keeps.
    """

    threshold: float
    fallback: FallbackPolicy = field(default_factory=FallbackPolicy.top1)
    template: TemplateKind = TemplateKind.TAXONOMIC
    topk: int = 10

    def __post_init__(self):
        if math.isnan(self.threshold):
            raise ConfigError(f"threshold must be a number, got {self.threshold}")
        if self.topk < 0:
            raise ConfigError(f"topk must be nonnegative, got {self.topk}")


@dataclass(frozen=True)
class ScoredLabel:
    label: TypeLabel
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(
                f"score {self.score} outside [0, 1] for label {self.label.raw!r}"
            )


class Ranking(Sequence[ScoredLabel]):
    """Labels in best-first order with their scores; immutable.

    ``labels`` and ``scores`` are parallel tuples. Reading an entry builds
    its :class:`ScoredLabel`; slicing gives a :class:`Ranking`.
    """

    __slots__ = ("labels", "scores")

    def __init__(self, labels: Sequence[TypeLabel], scores: Sequence[float]):
        if len(labels) != len(scores):
            raise ValidationError(f"{len(labels)} labels but {len(scores)} scores")
        self.labels = tuple(labels)
        self.scores = tuple(scores)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ranking(self.labels[index], self.scores[index])
        return ScoredLabel(label=self.labels[index], score=self.scores[index])

    def __iter__(self) -> Iterator[ScoredLabel]:
        return map(ScoredLabel, self.labels, self.scores)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.labels == other.labels and self.scores == other.scores

    def __hash__(self) -> int:
        return hash((self.labels, self.scores))

    def count_at_least(self, threshold: float) -> int:
        """How many leading entries score at or above the threshold (bisection)."""
        lo, hi = 0, len(self.scores)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.scores[mid] >= threshold:
                lo = mid + 1
            else:
                hi = mid
        return lo


@dataclass(frozen=True)
class PredictionSet:
    """Chosen labels plus the leading entries of the ranking they were drawn from.

    ``top`` is the first ``topk`` entries of the ranking ``predict`` was
    given; a prediction read back from a dump has an empty ``top``.
    """

    instance_id: str
    chosen: frozenset[str]
    top: Ranking


def rank_all_candidates(
    instance: MentionInstance,
    vocab: LabelVocabulary,
    scorer: EntailmentScorer,
    template: TemplateKind,
    on_render_error: Callable[[TypeLabel, RenderingError], None] | None = None,
) -> Ranking:
    """Score every vocabulary label's hypothesis for this instance.

    The premise and the template frame are rendered once
    (:func:`type_candidates`) and handed to the scorer's per-mention entry
    point, :meth:`EntailmentScorer.score_candidates`. Labels whose
    hypothesis cannot be rendered score 0 and are reported through
    ``on_render_error`` in vocabulary order when a handler is given. A
    scorer returning the wrong number of scores, or a score outside
    [0, 1], raises :class:`ValidationError`, the latter naming the first
    such label in vocabulary order. The result is best-first: descending
    score, ties broken by ascending raw label.
    """
    labels = vocab.labels
    if not labels:
        raise ValidationError("cannot rank against an empty vocabulary")
    candidates = type_candidates(instance, labels, template, on_render_error)
    scores = list(scorer.score_candidates(candidates))
    check_scores(scores, len(candidates.labels), lambda i: candidates.labels[i].raw)
    # Ascending slots: each insert leaves the slots before it in place.
    for i in candidates.failed:
        scores.insert(i, 0.0)
    # Vocabulary order is ascending raw label, and a reversed sort is still
    # stable, so ties keep that order.
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return Ranking([labels[i] for i in order], [scores[i] for i in order])


def predict(
    ranking: Ranking,
    config: PredictionConfig,
    instance_id: str = "",
) -> PredictionSet:
    """Apply the threshold to a ranking, falling back when nothing clears it.

    The labels at or above the threshold are a prefix of the best-first
    ranking, found by bisection. The prediction keeps only the ranking's
    first ``config.topk`` entries.
    """
    if not ranking:
        raise ValidationError("cannot predict from an empty ranking")
    cleared = ranking.count_at_least(config.threshold)
    if cleared:
        chosen = frozenset([label.raw for label in ranking.labels[:cleared]])
    elif config.fallback.kind == "top1":
        chosen = frozenset([ranking.labels[0].raw])
    elif config.fallback.kind == "other":
        chosen = frozenset([config.fallback.label])
    else:
        chosen = frozenset()
    return PredictionSet(instance_id=instance_id, chosen=chosen, top=ranking[:config.topk])


def predict_dataset(
    dataset: Dataset,
    vocab: LabelVocabulary,
    scorer: EntailmentScorer,
    config: PredictionConfig,
    on_render_error: Callable[[TypeLabel, RenderingError], None] | None = None,
) -> list[PredictionSet]:
    """Rank and threshold every instance of a split, in dataset order."""
    return [
        predict(
            rank_all_candidates(inst, vocab, scorer, config.template, on_render_error),
            config,
            instance_id=inst.id,
        )
        for inst in dataset
    ]


def dev_loose_macro(
    dev: Dataset,
    vocab: LabelVocabulary,
    scorer: EntailmentScorer,
    configs: Sequence[PredictionConfig],
) -> list[tuple[float, float, float]]:
    """Loose macro P/R/F1 of the dev split under each config, in config order.

    Each instance is ranked once, under the template the configs share, and
    thresholded under every config (:func:`predict`). Only its (gold hits,
    chosen size, gold size) per config is kept, not its ranking.
    """
    if len({config.template for config in configs}) != 1:
        raise ValidationError("dev configs must share one template")
    counts: list[list[tuple[int, int, int]]] = [[] for _ in configs]
    for inst in dev:
        gold = inst.gold_labels
        if not gold:
            raise EvaluationError(f"empty gold label set for instance {inst.id!r}")
        ranking = rank_all_candidates(inst, vocab, scorer, configs[0].template)
        for config, column in zip(configs, counts):
            chosen = predict(ranking, config).chosen
            column.append((len(chosen & gold), len(chosen), len(gold)))
        del ranking  # not kept alive while the next instance is ranked
    return [loose_macro_from_counts(column) for column in counts]


def tune_threshold(
    dev: Dataset,
    vocab: LabelVocabulary,
    scorer: EntailmentScorer,
    template: TemplateKind,
    grid: Sequence[float] = DEFAULT_GRID,
    fallback: FallbackPolicy = FallbackPolicy.top1(),
) -> float:
    """Pick the grid threshold maximizing loose macro F1 on the dev split.

    The F1 per grid value comes from :func:`dev_loose_macro`, which ranks
    each instance once. Ties go to the larger threshold.
    """
    if not grid:
        raise ValidationError("threshold grid is empty")
    for a, b in zip(grid, grid[1:]):
        if not a < b:
            raise ValidationError("threshold grid must be strictly increasing")
    configs = [PredictionConfig(threshold, fallback, template) for threshold in grid]
    f1s = [f1 for _, _, f1 in dev_loose_macro(dev, vocab, scorer, configs)]
    # Grid values ascend, so among equal F1s max() takes the larger threshold.
    return max(zip(f1s, grid))[1]


def prediction_to_record(pred: PredictionSet, topk: int | None = None) -> dict:
    """Serialize a prediction for the JSONL dump: every kept entry, or the first ``topk``."""
    return {
        "instance_id": pred.instance_id,
        "chosen": sorted(pred.chosen),
        "topk": [{"label": s.label.raw, "score": s.score} for s in pred.top[:topk]],
    }
