"""Ranked-example construction and the epoch training loop.

Each training instance yields one ranked example per positive label (gold
labels plus induced ancestors) and, at a nonzero dependency weight, one per
label-dependency pair, each positive contrasted against k sampled negatives.
The joint objective per instance, the mean type-example loss plus the
weighted mean dependency-example loss, is defined in one place: :func:`train`
folds both means and the weight into each example's batch weight, and the
scorer's ``accumulate_batch`` takes the margin loss of a whole batch's
examples in one call. Batches keep each instance's examples together, and the
best dev F1 picks the checkpoint.
"""

import math
from collections import Counter
from dataclasses import dataclass

from ._util import substream
from .corpus import Dataset, MentionInstance
from .errors import ConfigError, TrainingError, ValidationError
# loose_macro and predict_dataset stay importable from here: bench/tracer.py wraps them by name.
from .evaluation import loose_macro  # noqa: F401
from .inference import PredictionConfig, dev_loose_macro, predict_dataset  # noqa: F401
from .labelspace import (
    DependencyPair,
    LabelVocabulary,
    TypeLabel,
    induce_dependency_pairs,
    positive_label_set,
    sample_negative_ancestor,
    sample_negative_type,
)
from .scoring import TrainableScorer
# build_type_pair and build_dependency_pair stay importable from here: bench/tracer.py wraps them.
from .templates import build_dependency_pair, build_type_pair  # noqa: F401
from .templates import (
    PairKind,
    PremiseHypothesisPair,
    TemplateKind,
    dependency_pair,
    raise_render_error,
    type_candidates,
)


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for the ranking objective and the epoch loop."""

    margin: float = 0.1
    dependency_weight: float = 0.05
    negatives_per_positive: int = 1
    batch_size: int = 16
    max_epochs: int = 30
    eval_every: int = 30
    template: TemplateKind = TemplateKind.TAXONOMIC
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.margin < math.inf:
            raise ConfigError(f"margin must be nonnegative and finite, got {self.margin}")
        if not 0 <= self.dependency_weight < math.inf:
            raise ConfigError(
                f"dependency_weight must be nonnegative and finite, got {self.dependency_weight}"
            )
        if self.negatives_per_positive < 1:
            raise ConfigError(
                f"negatives_per_positive must be at least 1, got {self.negatives_per_positive}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be positive, got {self.max_epochs}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be positive, got {self.eval_every}")


@dataclass(frozen=True)
class RankedExample:
    """One positive pair to be ranked above its sampled negative pairs, at least one."""

    positive: PremiseHypothesisPair
    negatives: tuple[PremiseHypothesisPair, ...]
    kind: PairKind

    def __post_init__(self):
        if not self.negatives:
            raise ValidationError(
                f"ranked example for instance {self.positive.instance_id!r} has no negatives"
            )
        if self.positive.kind is not self.kind:
            raise ValidationError(
                f"positive pair kind {self.positive.kind.value} does not match "
                f"example kind {self.kind.value}"
            )
        for neg in self.negatives:
            if neg.premise != self.positive.premise:
                raise ValidationError(
                    f"negative premise differs from positive premise for "
                    f"instance {self.positive.instance_id!r}"
                )


def instance_positives(
    instance: MentionInstance, vocab: LabelVocabulary, template: TemplateKind
) -> tuple[list[TypeLabel], list[DependencyPair]]:
    """The statements an instance ranks above sampled negatives.

    Returns the gold labels' closure under implicit ancestors sorted by raw
    label, and the induced dependency pairs sorted by (descendant, ancestor)
    raw label. The substitution template cannot render dependency pairs, so
    there are none under it.
    """
    gold = {vocab.resolve(raw) for raw in instance.gold_labels}
    labels = sorted(positive_label_set(gold, vocab), key=lambda l: l.raw)
    if not gold or template is TemplateKind.SUBSTITUTION:
        return labels, []
    deps = sorted(
        induce_dependency_pairs(gold, vocab),
        key=lambda d: (d.descendant.raw, d.ancestor.raw),
    )
    return labels, deps


def build_examples_for_instance(
    instance: MentionInstance,
    vocab: LabelVocabulary,
    config: TrainingConfig,
    rng,
) -> list[RankedExample]:
    """Build the instance's ranked examples: type examples, then dependency.

    The positives are those of :func:`instance_positives`, less the dependency
    pairs at a dependency weight of 0; each is contrasted against
    ``negatives_per_positive`` sampled negatives. A dependency pair's false
    ancestors exclude every ancestor induced for its descendant.
    """
    if not instance.gold_labels:
        raise ValidationError(f"instance {instance.id!r} has no gold labels")
    labels, deps = instance_positives(instance, vocab, config.template)
    deps = deps if config.dependency_weight else []
    positive_raws = {l.raw for l in labels}
    true_ancestors: dict[str, set[str]] = {}
    for dep in deps:
        true_ancestors.setdefault(dep.descendant.raw, set()).add(dep.ancestor.raw)
    k = config.negatives_per_positive
    # Labels are drawn in example order, which fixes the rng stream: each
    # positive, then its k negatives. The instance is then rendered once.
    drawn = []
    for label in labels:
        drawn += [label, *(sample_negative_type(vocab, positive_raws, rng) for _ in range(k))]
    for dep in deps:
        excluded = true_ancestors[dep.descendant.raw]
        drawn += [dep.descendant, dep.ancestor]
        drawn += [sample_negative_ancestor(dep, vocab, excluded, rng) for _ in range(k)]
    pairs = type_candidates(instance, drawn, config.template, raise_render_error).pairs()
    type_end = len(labels) * (k + 1)
    examples = [
        RankedExample(positive=pairs[i], negatives=tuple(pairs[i + 1 : i + k + 1]),
                      kind=PairKind.TYPE)
        for i in range(0, type_end, k + 1)
    ]
    for i in range(type_end, len(pairs), k + 2):
        positive, *negatives = (dependency_pair(pairs[i], a) for a in pairs[i + 1 : i + k + 2])
        examples.append(RankedExample(
            positive=positive, negatives=tuple(negatives), kind=PairKind.DEPENDENCY))
    return examples


def train(
    train_set: Dataset,
    dev_set: Dataset,
    vocab: LabelVocabulary,
    scorer: TrainableScorer,
    config: TrainingConfig,
    predict_config: PredictionConfig,
) -> tuple[str, list[dict]]:
    """Run the epoch loop; return the best dev checkpoint tag and the log.

    Negatives are resampled fresh each epoch. The order of instances is
    shuffled, each instance's examples stay together, and the examples are
    cut into batches of ``batch_size``; each batch accumulates weighted
    losses in one ``accumulate_batch`` call and applies one update. Every
    ``eval_every`` epochs the dev split is scored (:func:`dev_loose_macro`),
    and the scorer is snapshotted when the loose macro F1 improves.
    """
    if len(train_set) == 0 or len(dev_set) == 0:
        raise ValidationError("training requires nonempty train and dev sets")

    best_tag = scorer.snapshot()
    best_f1 = float("-inf")
    log: list[dict] = []
    instances = list(train_set)
    kind_weight = {PairKind.TYPE: 1.0, PairKind.DEPENDENCY: config.dependency_weight}

    for epoch in range(1, config.max_epochs + 1):
        shuffle_rng = substream(config.seed, "shuffle", str(epoch))
        order = list(range(len(instances)))
        shuffle_rng.shuffle(order)

        # (example, weight, instance index); weights fold the per-instance
        # normalization and the dependency term's global weight into the
        # batch mean.
        weighted: list[tuple[RankedExample, float, int]] = []
        for idx in order:
            instance = instances[idx]
            sample_rng = substream(config.seed, "sampling", str(epoch), instance.id)
            examples = build_examples_for_instance(instance, vocab, config, sample_rng)
            counts = Counter(e.kind for e in examples)
            weighted += [(e, kind_weight[e.kind] / counts[e.kind], idx) for e in examples]

        # (instance index, kind) -> [loss sum, example count]
        totals: dict[tuple[int, PairKind], list] = {}
        for start in range(0, len(weighted), config.batch_size):
            batch = weighted[start : start + config.batch_size]
            batch_instances = len({idx for _, _, idx in batch})
            losses = scorer.accumulate_batch(
                [(e.positive, e.negatives, weight / batch_instances) for e, weight, _ in batch],
                config.margin,
            )
            for (example, _, idx), loss in zip(batch, losses, strict=True):
                total = totals.setdefault((idx, example.kind), [0.0, 0])
                total[0] += loss
                total[1] += 1
            try:
                scorer.apply_update()
            except Exception as exc:
                try:
                    scorer.restore(best_tag)
                except Exception:
                    pass
                raise TrainingError(
                    f"scorer update failed in epoch {epoch}: {exc}", best_tag=best_tag
                ) from exc

        # per kind: the mean over instances of each instance's mean loss
        epoch_loss = {}
        for kind in PairKind:
            means = [s / n for (_, k), (s, n) in totals.items() if k is kind]
            epoch_loss[kind] = sum(means) / len(means) if means else 0.0

        if epoch % config.eval_every == 0:
            [(dev_p, dev_r, dev_f1)] = dev_loose_macro(dev_set, vocab, scorer, [predict_config])
            record = {
                "epoch": epoch,
                "dev_p": dev_p,
                "dev_r": dev_r,
                "dev_f1": dev_f1,
                "type_loss": epoch_loss[PairKind.TYPE],
                "dep_loss": epoch_loss[PairKind.DEPENDENCY],
            }
            if dev_f1 > best_f1:
                best_f1 = dev_f1
                best_tag = scorer.snapshot()
                record["checkpoint"] = best_tag
            log.append(record)

    return best_tag, log
