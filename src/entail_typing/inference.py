"""Candidate ranking, threshold prediction, and dev-set threshold tuning.

Every vocabulary label is rendered into a hypothesis for the instance and
scored; labels at or above the threshold form the prediction set. When
nothing clears the threshold a fallback policy decides between the
top-ranked label, a designated catch-all label, or an empty set.

A ranking is a :class:`Ranking`, which holds vocabulary positions rather
than entries. A scorer's reply is checked once, by :func:`check_scores`.
:class:`ScoreGroups` it passes as they are (a default score per group of
labels, plus exceptions) become runs, one per distinct score, best first,
each listing its positions as a few ascending sequences, without visiting
every label. Any other reply is a list, its positions sorted by score.
Either way the labels clearing a threshold are a prefix, counted by
bisection, and are those scoring at or above it, so tuning re-thresholds
cheaply, bisecting each mention's gold scores. Entries, like the ``labels``
and ``scores`` tuples, are built only when read. A prediction keeps its
chosen labels and the first ``topk`` entries of its ranking, never the
whole ranking, so what it retains does not grow with the vocabulary.
"""

import array
import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from operator import ge, neg
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import Dataset, MentionInstance
from .errors import ConfigError, EvaluationError, RenderingError, ValidationError
# loose_macro stays importable from here: bench/tracer.py wraps it by name.
from .evaluation import loose_macro, loose_macro_from_counts  # noqa: F401
from .labelspace import LabelVocabulary, TypeLabel
from .scoring import EntailmentScorer, ScoreGroups, check_scores, unit_score
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
        try:
            object.__setattr__(self, "score", unit_score(self.score))
        except ValueError as exc:
            raise ValidationError(f"{exc} for label {self.label.raw!r}") from None


class _Order:
    """Entries as one list of table positions, best first, ties in table order."""

    __slots__ = ("positions", "score_of")

    def __init__(self, positions: Sequence[int], score_of: Callable[[int], float]):
        self.positions, self.score_of = positions, score_of

    def __len__(self) -> int:
        return len(self.positions)

    def _key(self, position: int) -> float:
        return -self.score_of(position)

    def head(self, k: int) -> tuple[Sequence[int], Iterable[float]]:
        positions = self.positions[:k]
        return positions, map(self.score_of, positions)

    def count_at_least(self, threshold: float) -> int:
        return bisect_right(self.positions, -threshold, key=self._key)


class _Runs:
    """Entries as runs, best first: each run the table positions of one score.

    A run's positions are a few ascending sequences, read merged: each
    group's members less its exceptions, and the exceptions of each score.
    """

    __slots__ = ("scores", "parts", "starts", "score_of")

    def __init__(self, groups: ScoreGroups):
        group_of, members = groups.group_of, groups.members
        cut: dict[int, list[int]] = {}
        touched: dict[float, list[int]] = {}
        for i, score in groups.exceptions.items():
            cut.setdefault(group_of[i], []).append(i)
            touched.setdefault(score, []).append(i)
        runs: dict[float, list[Sequence[int]]] = {}
        for g, score in enumerate(groups.defaults):
            start, pieces = 0, []
            for i in sorted(cut.get(g, ())):
                end = bisect_left(members[g], i)
                pieces.append(members[g][start:end])
                start = end + 1
            pieces.append(members[g][start:])
            pieces = [piece for piece in pieces if len(piece)]
            if pieces:
                runs.setdefault(score, []).extend(pieces)
        for score, positions in touched.items():
            runs.setdefault(score, []).append(sorted(positions))
        self.scores = sorted(runs, reverse=True)
        self.parts = list(map(runs.__getitem__, self.scores))
        self.starts = list(accumulate((sum(map(len, parts)) for parts in self.parts), initial=0))
        self.score_of = groups.__getitem__

    def __len__(self) -> int:
        return self.starts[-1]

    def head(self, k: int) -> tuple[Sequence[int], Iterable[float]]:
        positions, scores = [], []
        for score, parts in zip(self.scores, self.parts):
            if len(positions) >= k:
                break
            merged = parts[0] if len(parts) == 1 else heapq.merge(*parts)
            taken = list(islice(merged, k - len(positions)))
            positions += taken
            # a zero run may hold both zeros; each keeps its own sign
            scores += map(self.score_of, taken) if score == 0.0 else repeat(score, len(taken))
        return positions, scores

    def count_at_least(self, threshold: float) -> int:
        return self.starts[bisect_right(self.scores, -threshold, key=neg)]


class Ranking(Sequence[ScoredLabel]):
    """Labels in best-first order with their scores; immutable.

    A ranking holds its entries as positions in ``table``, the labels by
    position: as runs, one per distinct score, when ranked from
    :class:`ScoreGroups`, else as one sequence sorted by score. Ties keep
    table order. ``Ranking(labels, scores)`` takes entries already best
    first: each score at least the next, else :class:`ValidationError`.
    ``labels`` and ``scores`` are parallel tuples, built when first read;
    reading an entry builds its :class:`ScoredLabel`; slicing gives a
    :class:`Ranking`; ``count_at_least`` bisects.
    """

    __slots__ = ("_table", "_entries", "_labels", "_scores")

    def __init__(self, labels: Sequence[TypeLabel], scores: Sequence[float]):
        labels, scores = tuple(labels), tuple(scores)
        if len(labels) != len(scores):
            raise ValidationError(f"{len(labels)} labels but {len(scores)} scores")
        if not all(map(ge, scores, scores[1:])):
            raise ValidationError("ranking scores are not in best-first order")
        self._table, self._entries = labels, _Order(range(len(scores)), scores.__getitem__)
        self._labels, self._scores = labels, scores

    @classmethod
    def _of(cls, table: Sequence[TypeLabel], entries: "_Order | _Runs") -> "Ranking":
        ranking = cls.__new__(cls)
        ranking._table, ranking._entries = table, entries
        ranking._labels = ranking._scores = None
        return ranking

    def _head(self, k: int) -> tuple[tuple[TypeLabel, ...], tuple[float, ...]]:
        """The labels and scores of the first ``k`` entries, reading only those."""
        if self._labels is not None:
            return self._labels[:k], self._scores[:k]
        positions, scores = self._entries.head(k)
        return tuple(map(self._table.__getitem__, positions)), tuple(scores)

    @property
    def labels(self) -> tuple[TypeLabel, ...]:
        if self._labels is None:
            self._labels, self._scores = self._head(len(self))
        return self._labels

    @property
    def scores(self) -> tuple[float, ...]:
        if self._scores is None:
            self._labels, self._scores = self._head(len(self))
        return self._scores

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        span = range(len(self))[index]
        if isinstance(index, slice):
            if span.step != 1:
                return Ranking(self.labels[index], self.scores[index])
            labels, scores = self._head(span.stop)
            return Ranking(labels[span.start:], scores[span.start:])
        labels, scores = self._head(span + 1)
        return ScoredLabel(label=labels[span], score=scores[span])

    def __iter__(self) -> Iterator[ScoredLabel]:
        # an unread ranking's tuples are built for the loop, not kept
        return map(ScoredLabel, *self._head(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.labels == other.labels and self.scores == other.scores

    def __hash__(self) -> int:
        return hash((self.labels, self.scores))

    def count_at_least(self, threshold: float) -> int:
        """How many leading entries score at or above the threshold (bisection)."""
        return self._entries.count_at_least(threshold)


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
    scorer returning the wrong number of scores, or a score failing
    :func:`unit_score`, raises :class:`ValidationError`, the latter naming
    the first such label in vocabulary order. The result is best-first:
    descending score (as floats), ties broken by ascending raw label.

    The reply is checked once, by :func:`check_scores`. :class:`ScoreGroups`
    that pass unchanged are ranked as runs, visiting only their groups and
    exceptions; with render failures they are read as a list. A list's
    positions are sorted by score.
    """
    labels = vocab.labels
    if not labels:
        raise ValidationError("cannot rank against an empty vocabulary")
    candidates = type_candidates(instance, vocab, template, on_render_error)
    kept = candidates.labels
    scores = check_scores(scorer.score_candidates(candidates), len(kept), lambda i: kept[i].raw)
    if type(scores) is ScoreGroups:
        if not candidates.failed:
            return Ranking._of(labels, _Runs(scores))
        scores = list(scores)
    # Ascending slots: each insert leaves the slots before it in place.
    for i in candidates.failed:
        scores.insert(i, 0.0)
    # Vocabulary order is ascending raw label, and a reversed sort is still
    # stable, so ties keep that order. An array holds no int per position.
    order = array.array("I", sorted(range(len(scores)), key=scores.__getitem__, reverse=True))
    return Ranking._of(labels, _Order(order, scores.__getitem__))


def predict(
    ranking: Ranking,
    config: PredictionConfig,
    instance_id: str = "",
) -> PredictionSet:
    """Apply the threshold to a ranking, falling back when nothing clears it.

    The labels at or above the threshold are a prefix of the best-first
    ranking, found by bisection. The prediction keeps only the ranking's
    first ``config.topk`` entries, and reads at most as many entries as
    that, the cleared labels, or one.
    """
    if not ranking:
        raise ValidationError("cannot predict from an empty ranking")
    cleared = ranking.count_at_least(config.threshold)
    labels, scores = ranking._head(max(cleared, config.topk, 1))
    if cleared:
        chosen = frozenset([label.raw for label in labels[:cleared]])
    elif config.fallback.kind == "top1":
        chosen = frozenset([labels[0].raw])
    elif config.fallback.kind == "other":
        chosen = frozenset([config.fallback.label])
    else:
        chosen = frozenset()
    top = Ranking(labels[:config.topk], scores[:config.topk])
    return PredictionSet(instance_id=instance_id, chosen=chosen, top=top)


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

    Each instance is ranked once, under the template the configs share. The
    labels clearing a threshold are the ranking's first ``cleared``, which
    are exactly the labels scoring at or above it. So a config's chosen size
    is ``cleared`` and its gold hits are the gold labels scoring at or above
    the threshold, their scores read once per instance and counted by
    bisection; gold labels outside the vocabulary are never chosen. Only
    where nothing clears the threshold does :func:`predict` apply the
    fallback. Only the (gold hits, chosen size, gold size) per config is
    kept, not the ranking.
    """
    if len({config.template for config in configs}) != 1:
        raise ValidationError("dev configs must share one template")
    counts: list[list[tuple[int, int, int]]] = [[] for _ in configs]
    raws = vocab.sorted_raws
    for inst in dev:
        gold = inst.gold_labels
        if not gold:
            raise EvaluationError(f"empty gold label set for instance {inst.id!r}")
        ranking = rank_all_candidates(inst, vocab, scorer, configs[0].template)
        # A gold label's score is read at its vocabulary position, found by
        # bisection: vocabulary order is ascending raw label.
        score_of = ranking._entries.score_of
        gold_scores = sorted(score_of(bisect_left(raws, raw)) for raw in gold if raw in vocab)
        for config, column in zip(configs, counts):
            cleared = ranking.count_at_least(config.threshold)
            if cleared:
                hits = len(gold_scores) - bisect_left(gold_scores, config.threshold)
                column.append((hits, cleared, len(gold)))
            else:
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
    for threshold in grid:
        if not math.isfinite(threshold):
            raise ValidationError(f"threshold grid value {threshold} is not finite")
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
