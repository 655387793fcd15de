"""Set-overlap metrics for multi-label typing predictions.

Implements the loose macro convention (per-instance set precision and
recall averaged over instances, F1 as the harmonic mean of those two
averages), micro totals, strict set-equality accuracy, and per-bucket
breakdowns that restrict both prediction and gold sets to a bucket's
labels before scoring.
"""

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .corpus import Bucket, format_bucket
from .errors import EvaluationError


class PredictionLike(Protocol):
    """What evaluation needs from a prediction: its id and chosen labels."""

    instance_id: str
    chosen: frozenset[str]


@dataclass(frozen=True)
class EvaluationReport:
    """All metrics for one prediction run."""

    loose_macro: tuple[float, float, float]
    micro: tuple[float, float, float]
    strict_accuracy: float
    per_bucket: dict[Bucket, tuple[float, float, float, int]]
    n_instances: int


def _aligned_sets(
    preds: Sequence[PredictionLike], golds: Mapping[str, set[str]]
) -> list[tuple[set[str], set[str]]]:
    """Pair up chosen and gold sets by instance id, validating the alignment."""
    seen = set()
    pairs = []
    for pred in preds:
        if pred.instance_id in seen:
            raise EvaluationError(f"duplicate prediction for instance {pred.instance_id!r}")
        seen.add(pred.instance_id)
        if pred.instance_id not in golds:
            raise EvaluationError(f"prediction for unknown instance {pred.instance_id!r}")
        gold = set(golds[pred.instance_id])
        if not gold:
            raise EvaluationError(f"empty gold label set for instance {pred.instance_id!r}")
        pairs.append((set(pred.chosen), gold))
    for instance_id in golds:
        if instance_id not in seen:
            raise EvaluationError(f"no prediction for instance {instance_id!r}")
    return pairs


def _harmonic(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def loose_macro_from_counts(counts: Sequence[tuple[int, int, int]]) -> tuple[float, float, float]:
    """Loose macro P/R/F1 over per-instance (gold hits, chosen size, gold size).

    An empty chosen set contributes precision 0 rather than being skipped,
    so fallback-free pipelines are penalized, not flattered.
    """
    if not counts:
        return (0.0, 0.0, 0.0)
    precisions = []
    recalls = []
    for hits, n_chosen, n_gold in counts:
        precisions.append(hits / n_chosen if n_chosen else 0.0)
        recalls.append(hits / n_gold)
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    return (p, r, _harmonic(p, r))


def _macro_from_sets(pairs: Sequence[tuple[set[str], set[str]]]) -> tuple[float, float, float]:
    """Loose macro P/R/F1 over (chosen, gold) set pairs."""
    return loose_macro_from_counts([(len(c & g), len(c), len(g)) for c, g in pairs])


def loose_macro(
    preds: Sequence[PredictionLike], golds: Mapping[str, set[str]]
) -> tuple[float, float, float]:
    """Per-instance set precision/recall averaged, F1 harmonic of the averages."""
    return _macro_from_sets(_aligned_sets(preds, golds))


def micro(
    preds: Sequence[PredictionLike], golds: Mapping[str, set[str]]
) -> tuple[float, float, float]:
    """Totaled intersection counts over totaled chosen and gold sizes."""
    pairs = _aligned_sets(preds, golds)
    hits = sum(len(chosen & gold) for chosen, gold in pairs)
    chosen_total = sum(len(chosen) for chosen, _ in pairs)
    gold_total = sum(len(gold) for _, gold in pairs)
    p = hits / chosen_total if chosen_total else 0.0
    r = hits / gold_total if gold_total else 0.0
    return (p, r, _harmonic(p, r))


def strict_accuracy(
    preds: Sequence[PredictionLike], golds: Mapping[str, set[str]]
) -> float:
    """Fraction of instances whose chosen set equals the gold set exactly."""
    pairs = _aligned_sets(preds, golds)
    if not pairs:
        return 0.0
    return sum(1 for chosen, gold in pairs if chosen == gold) / len(pairs)


def bucket_report(
    preds: Sequence[PredictionLike],
    golds: Mapping[str, set[str]],
    buckets: Mapping[Bucket, set[str]],
) -> dict[Bucket, tuple[float, float, float]]:
    """Loose macro per bucket, restricting both sides to the bucket's labels.

    Instances whose restricted gold set is empty are dropped from that
    bucket; buckets that end up with no instances are omitted entirely.
    """
    pairs = _aligned_sets(preds, golds)
    report = {}
    for bucket in sorted(buckets, key=lambda b: b[0]):
        labels = buckets[bucket]
        restricted = [
            (chosen & labels, gold & labels) for chosen, gold in pairs if gold & labels
        ]
        if restricted:
            report[bucket] = _macro_from_sets(restricted)
    return report


def evaluate(
    preds: Sequence[PredictionLike],
    golds: Mapping[str, set[str]],
    buckets: Mapping[Bucket, set[str]] | None = None,
) -> EvaluationReport:
    """Compute every metric of one prediction run (each metric aligns it anew)."""
    per_bucket: dict[Bucket, tuple[float, float, float, int]] = {}
    if buckets:
        for bucket, (p, r, f1) in bucket_report(preds, golds, buckets).items():
            per_bucket[bucket] = (p, r, f1, len(buckets[bucket]))
    return EvaluationReport(
        loose_macro=loose_macro(preds, golds),
        micro=micro(preds, golds),
        strict_accuracy=strict_accuracy(preds, golds),
        per_bucket=per_bucket,
        n_instances=len(preds),
    )


def report_to_json(report: EvaluationReport) -> dict:
    """JSON-ready report document; bucket keys use the "[lo,hi)" rendering."""
    def triple(values: Sequence[float]) -> dict:
        return {"precision": values[0], "recall": values[1], "f1": values[2]}

    buckets = {}
    for bucket in sorted(report.per_bucket, key=lambda b: b[0]):
        *values, n_labels = report.per_bucket[bucket]
        buckets[format_bucket(bucket)] = {**triple(values), "n_labels": n_labels}
    return {
        "n_instances": report.n_instances,
        "loose_macro": triple(report.loose_macro),
        "micro": triple(report.micro),
        "strict_accuracy": report.strict_accuracy,
        "per_bucket": buckets,
    }


def report_to_text(report: EvaluationReport) -> str:
    """Fixed-width table rendering for terminals and logs."""
    lines = [
        f"{'metric':<24}{'P':>8}{'R':>8}{'F1':>8}",
        "{:<24}{:>8.4f}{:>8.4f}{:>8.4f}".format("loose_macro", *report.loose_macro),
        "{:<24}{:>8.4f}{:>8.4f}{:>8.4f}".format("micro", *report.micro),
        f"{'strict_accuracy':<24}{report.strict_accuracy:>24.4f}",
    ]
    for bucket in sorted(report.per_bucket, key=lambda b: b[0]):
        p, r, f1, n_labels = report.per_bucket[bucket]
        name = f"bucket {format_bucket(bucket)} ({n_labels})"
        lines.append(f"{name:<24}{p:>8.4f}{r:>8.4f}{f1:>8.4f}")
    lines.append(f"{'n_instances':<24}{report.n_instances:>24d}")
    return "\n".join(lines) + "\n"
