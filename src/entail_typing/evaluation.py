"""Set-overlap metrics for multi-label typing predictions.

Implements the loose macro convention (per-instance set precision and
recall averaged over instances, F1 as the harmonic mean of those two
averages), micro totals, strict set-equality accuracy, and per-bucket
breakdowns that restrict both prediction and gold sets to a bucket's
labels before scoring.
"""

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Protocol

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
    preds: Iterable[PredictionLike], golds: Mapping[str, set[str]]
) -> Iterator[tuple[frozenset[str], set[str]]]:
    """Yield (chosen, gold) per prediction, checking the alignment; no prediction is kept."""
    seen = set()
    for instance_id, chosen in map(attrgetter("instance_id", "chosen"), preds):
        if instance_id in seen:
            raise EvaluationError(f"duplicate prediction for instance {instance_id!r}")
        seen.add(instance_id)
        if instance_id not in golds:
            raise EvaluationError(f"prediction for unknown instance {instance_id!r}")
        gold = golds[instance_id]
        if not gold:
            raise EvaluationError(f"empty gold label set for instance {instance_id!r}")
        yield chosen, gold
    for instance_id in golds:
        if instance_id not in seen:
            raise EvaluationError(f"no prediction for instance {instance_id!r}")


def _harmonic(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def loose_macro_from_counts(counts: Sequence[tuple[int, int, int]]) -> tuple[float, float, float]:
    """Loose macro P/R/F1 over per-instance (gold hits, chosen size, gold size).

    An empty chosen set contributes precision 0 rather than being skipped,
    so fallback-free pipelines are penalized, not flattered.
    """
    if not counts:
        return (0.0, 0.0, 0.0)
    p = sum(hits / n_chosen if n_chosen else 0.0 for hits, n_chosen, _ in counts) / len(counts)
    r = sum(hits / n_gold for hits, _, n_gold in counts) / len(counts)
    return (p, r, _harmonic(p, r))


def loose_macro(
    preds: Sequence[PredictionLike], golds: Mapping[str, set[str]]
) -> tuple[float, float, float]:
    """Per-instance set precision/recall averaged, F1 harmonic of the averages."""
    return evaluate(preds, golds).loose_macro


def micro(
    preds: Sequence[PredictionLike], golds: Mapping[str, set[str]]
) -> tuple[float, float, float]:
    """Totaled intersection counts over totaled chosen and gold sizes."""
    return evaluate(preds, golds).micro


def strict_accuracy(
    preds: Sequence[PredictionLike], golds: Mapping[str, set[str]]
) -> float:
    """Fraction of instances whose chosen set equals the gold set exactly."""
    return evaluate(preds, golds).strict_accuracy


def bucket_report(
    preds: Sequence[PredictionLike],
    golds: Mapping[str, set[str]],
    buckets: Mapping[Bucket, set[str]],
) -> dict[Bucket, tuple[float, float, float]]:
    """Loose macro per bucket, restricting both sides to the bucket's labels.

    Instances whose restricted gold set is empty are dropped from that
    bucket; buckets that end up with no instances are omitted entirely.
    """
    per_bucket = evaluate(preds, golds, buckets).per_bucket
    return {bucket: (p, r, f1) for bucket, (p, r, f1, _) in per_bucket.items()}


def evaluate(
    preds: Iterable[PredictionLike],
    golds: Mapping[str, set[str]],
    buckets: Mapping[Bucket, set[str]] | None = None,
) -> EvaluationReport:
    """Compute every metric of one prediction run in one pass over ``preds``, any iterable.

    Per instance only (gold hits, chosen size, gold size) is kept, overall and per bucket.
    """
    counts = []
    bucket_counts = {bucket: [] for bucket in sorted(buckets or {}, key=lambda b: b[0])}
    for chosen, gold in _aligned_sets(preds, golds):
        hits = chosen & gold
        counts.append((len(hits), len(chosen), len(gold)))
        for bucket, restricted in bucket_counts.items():
            labels = buckets[bucket]
            if n_gold := len(gold & labels):
                restricted.append((len(hits & labels), len(chosen & labels), n_gold))
    n_hits = sum(h for h, _, _ in counts)
    n_chosen = sum(c for _, c, _ in counts)
    n_gold = sum(g for _, _, g in counts)
    p = n_hits / n_chosen if n_chosen else 0.0
    r = n_hits / n_gold if n_gold else 0.0
    return EvaluationReport(
        loose_macro=loose_macro_from_counts(counts),
        micro=(p, r, _harmonic(p, r)),
        # the chosen set equals the gold set exactly when both sizes equal the hits
        strict_accuracy=sum(h == c == g for h, c, g in counts) / len(counts) if counts else 0.0,
        per_bucket={
            bucket: (*loose_macro_from_counts(restricted), len(buckets[bucket]))
            for bucket, restricted in bucket_counts.items()
            if restricted
        },
        n_instances=len(counts),
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
