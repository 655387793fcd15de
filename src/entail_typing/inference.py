"""Candidate ranking, threshold prediction, and dev-set threshold tuning.

Every vocabulary label is rendered into a hypothesis for the instance and
scored; labels at or above the threshold form the prediction set. When
nothing clears the threshold a fallback policy decides between the
top-ranked label, a designated catch-all label, or an empty set.

A ranking is a :class:`Ranking`: the labels in best-first order beside
their scores, with :class:`ScoredLabel` entries built only when read.
Since it is sorted, the labels clearing a threshold are a prefix of it,
found by bisection, which is what makes re-thresholding during tuning
cheap.
"""

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Sequence

from .corpus import Dataset, MentionInstance
from .errors import ConfigError, RenderingError, ValidationError
from .evaluation import loose_macro
from .labelspace import LabelVocabulary, TypeLabel
from .scoring import EntailmentScorer
# build_type_pair stays importable from here: bench/tracer.py wraps it by name.
from .templates import TemplateKind, build_type_pair, type_pair_renderer  # noqa: F401

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
    """Threshold, fallback, and template for one prediction run.

    Thresholds outside [0, 1] are accepted and behave as the obvious
    extremes: at or below 0 everything is chosen, above 1 only the
    fallback fires.
    """

    threshold: float
    fallback: FallbackPolicy = field(default_factory=FallbackPolicy.top1)
    template: TemplateKind = TemplateKind.TAXONOMIC


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

    @classmethod
    def best_first(cls, ranked: Sequence[ScoredLabel]) -> "Ranking":
        """A Ranking as is; any other sequence sorted by descending score.

        The sort is stable, so a sequence already in best-first order keeps
        its order, ties included.
        """
        if isinstance(ranked, Ranking):
            return ranked
        ordered = sorted(ranked, key=attrgetter("score"), reverse=True)
        return cls([s.label for s in ordered], [s.score for s in ordered])

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
    """Chosen labels plus the ranking they were drawn from.

    ``ranking`` is the ranking ``predict`` was given (after coercion to a
    :class:`Ranking`), shared, not copied.
    """

    instance_id: str
    chosen: frozenset[str]
    ranking: Ranking


def rank_all_candidates(
    instance: MentionInstance,
    vocab: LabelVocabulary,
    scorer: EntailmentScorer,
    template: TemplateKind,
    on_render_error: Callable[[TypeLabel, RenderingError], None] | None = None,
) -> Ranking:
    """Score every vocabulary label's hypothesis for this instance.

    The premise is rendered once; each label adds one hypothesis. Labels
    whose hypothesis cannot be rendered score 0 and are reported through
    ``on_render_error`` when a handler is given. A score outside [0, 1]
    raises :class:`ValidationError` naming the first such label in
    vocabulary order. The result is best-first: descending score, ties
    broken by ascending raw label.
    """
    labels = tuple(vocab)
    if not labels:
        raise ValidationError("cannot rank against an empty vocabulary")
    render = type_pair_renderer(instance, template)
    pairs = []
    failed = []
    for i, label in enumerate(labels):
        try:
            pairs.append(render(label))
        except RenderingError as exc:
            failed.append(i)
            if on_render_error is not None:
                on_render_error(label, exc)
    scores = list(scorer.score_batch(pairs))
    if len(scores) != len(pairs):
        raise ValidationError(f"scorer returned {len(scores)} scores for {len(pairs)} pairs")
    # Ascending slots: each insert leaves the slots before it in place.
    for i in failed:
        scores.insert(i, 0.0)
    bad = next((i for i, s in enumerate(scores) if not 0.0 <= s <= 1.0), None)
    if bad is not None:
        raise ValidationError(
            f"score {scores[bad]} outside [0, 1] for label {labels[bad].raw!r}"
        )
    # Vocabulary order is ascending raw label, and a reversed sort is still
    # stable, so ties keep that order.
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return Ranking([labels[i] for i in order], [scores[i] for i in order])


def predict(
    ranking: Sequence[ScoredLabel],
    config: PredictionConfig,
    instance_id: str = "",
) -> PredictionSet:
    """Apply the threshold to a ranking, falling back when nothing clears it.

    Expects best-first order, as :func:`rank_all_candidates` returns; any
    other sequence of :class:`ScoredLabel` is first put into that order by
    :meth:`Ranking.best_first`. The labels at or above the threshold are a
    prefix of the ranking, found by bisection.
    """
    ranking = Ranking.best_first(ranking)
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
    return PredictionSet(instance_id=instance_id, chosen=chosen, ranking=ranking)


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


def tune_threshold(
    dev: Dataset,
    vocab: LabelVocabulary,
    scorer: EntailmentScorer,
    template: TemplateKind,
    grid: Sequence[float] = DEFAULT_GRID,
    objective: Callable[[Sequence[PredictionSet], Mapping[str, set[str]]], float] | None = None,
    fallback: FallbackPolicy | None = None,
) -> float:
    """Pick the grid threshold maximizing the objective on the dev split.

    Instances are ranked once; each grid value then costs one bisection
    per instance (:func:`predict`). The default objective is loose macro F1
    and ties go to the larger threshold.
    """
    if not grid:
        raise ValidationError("threshold grid is empty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValidationError("threshold grid must be strictly increasing")
    if objective is None:
        objective = lambda preds, golds: loose_macro(preds, golds)[2]
    if fallback is None:
        fallback = FallbackPolicy.top1()

    rankings = [
        (inst.id, rank_all_candidates(inst, vocab, scorer, template)) for inst in dev
    ]
    golds = {inst.id: set(inst.gold_labels) for inst in dev}

    best_threshold = grid[0]
    best_value = float("-inf")
    for threshold in grid:
        config = PredictionConfig(threshold=threshold, fallback=fallback, template=template)
        preds = [predict(ranking, config, instance_id=iid) for iid, ranking in rankings]
        value = objective(preds, golds)
        if value >= best_value:
            best_value = value
            best_threshold = threshold
    return best_threshold


def prediction_to_record(pred: PredictionSet, topk: int = 10) -> dict:
    """Serialize a prediction for the JSONL dump; ranking truncated to topk."""
    return {
        "instance_id": pred.instance_id,
        "chosen": sorted(pred.chosen),
        "topk": [
            {"label": s.label.raw, "score": s.score} for s in pred.ranking[:topk]
        ],
    }
