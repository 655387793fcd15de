"""Dataset ingestion, premise assembly, and few/zero-shot split construction.

The canonical in-memory schema mirrors the UFET field names
(``left_context_token`` / ``mention_span`` / ``right_context_token`` /
``y_str``); importers for other benchmarks normalize into the same shape so
one downstream pipeline serves every dataset.
"""

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import SchemaError, SplitError, ValidationError
from ._util import numbered_jsonl, substream

SPLITS = ("train", "dev", "test")

_REQUIRED_KEYS = ("left_context_token", "mention_span", "right_context_token", "y_str")

# Frequency bucket: (low, high) with high=None for the open-ended top bucket.
Bucket = tuple[int, int | None]


@dataclass(frozen=True)
class MentionInstance:
    """One entity mention in context with its gold label set."""

    id: str
    left_tokens: tuple[str, ...]
    mention: str
    right_tokens: tuple[str, ...]
    gold_labels: frozenset[str]
    # Unknown JSONL keys, preserved for round-trip but otherwise ignored.
    extras: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True)
class Dataset:
    name: str
    split: str
    instances: tuple[MentionInstance, ...]

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValidationError(f"unknown split {self.split!r}; expected one of {SPLITS}")
        ids = [inst.id for inst in self.instances]
        if len(set(ids)) != len(ids):
            dup = next(i for i, n in Counter(ids).items() if n > 1)
            raise ValidationError(f"duplicate instance id {dup!r} in dataset {self.name!r}")

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)


@dataclass(frozen=True)
class FewShotSplitSpec:
    """Target fraction of test labels to hold out of training, plus the seed."""

    target_unseen_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.target_unseen_fraction <= 1.0:
            raise ValidationError(
                f"target_unseen_fraction must be in [0, 1], got {self.target_unseen_fraction}"
            )


def load_ufet_jsonl(path: str | Path, split: str, name: str | None = None) -> Dataset:
    """Load a UFET-format JSONL file into a :class:`Dataset`.

    Each line must be a JSON object with keys ``left_context_token`` (list of
    strings), ``mention_span`` (string), ``right_context_token`` (list of
    strings) and ``y_str`` (list of strings). Order is preserved and instance
    ids are synthesized from the line position. An empty ``y_str`` is only
    accepted on the test split (prediction-only data); on train/dev it is a
    validation error.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    instances = []
    for lineno, obj in numbered_jsonl(path):
        for key in _REQUIRED_KEYS:
            if key not in obj:
                raise SchemaError(f"{path}:{lineno}: missing key {key!r}")
        left, mention, right, labels = (obj[k] for k in _REQUIRED_KEYS)
        if not isinstance(mention, str):
            raise SchemaError(f"{path}:{lineno}: mention_span must be a string")
        for key, value in (("left_context_token", left), ("right_context_token", right), ("y_str", labels)):
            if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
                raise SchemaError(f"{path}:{lineno}: {key} must be a list of strings")
        if "\n" in mention:
            raise ValidationError(f"{path}:{lineno}: mention_span contains a newline")
        if not labels and split in ("train", "dev"):
            raise ValidationError(f"{path}:{lineno}: empty y_str on a {split} line")
        extras = {k: v for k, v in obj.items() if k not in _REQUIRED_KEYS}
        instances.append(
            MentionInstance(
                id=f"{split}-{len(instances):06d}",
                left_tokens=tuple(left),
                mention=mention,
                right_tokens=tuple(right),
                gold_labels=frozenset(labels),
                extras=extras,
            )
        )
    return Dataset(name=name, split=split, instances=tuple(instances))


def instance_to_record(instance: MentionInstance) -> dict:
    """Serialize back to the canonical JSONL schema (label set sorted)."""
    record = {
        "left_context_token": list(instance.left_tokens),
        "mention_span": instance.mention,
        "right_context_token": list(instance.right_tokens),
        "y_str": sorted(instance.gold_labels),
    }
    for key in sorted(instance.extras):
        record[key] = instance.extras[key]
    return record


def render_premise(instance: MentionInstance) -> str:
    """Assemble the premise sentence: left context, mention, right context.

    Segments are joined by single spaces; empty token lists contribute
    nothing. No detokenization is attempted, so token streams with separated
    punctuation keep their spacing.
    """
    parts = []
    if instance.left_tokens:
        parts.append(" ".join(instance.left_tokens))
    if instance.mention:
        parts.append(instance.mention)
    if instance.right_tokens:
        parts.append(" ".join(instance.right_tokens))
    return " ".join(parts)


def mention_span_in_premise(instance: MentionInstance) -> tuple[int, int]:
    """Character span of the mention inside :func:`render_premise` output."""
    start = 0
    if instance.left_tokens:
        start = len(" ".join(instance.left_tokens)) + 1
    return start, start + len(instance.mention)


def split_label_set(dataset: Dataset) -> set[str]:
    """All labels occurring in a split's gold sets."""
    labels: set[str] = set()
    for inst in dataset:
        labels |= inst.gold_labels
    return labels


def train_label_counts(train: Dataset) -> Counter:
    """Occurrence count of each label over the training gold sets."""
    counts: Counter = Counter()
    for inst in train:
        counts.update(inst.gold_labels)
    return counts


def _filter_out_labels(train: Dataset, heldout: set[str]) -> Dataset:
    kept = []
    for inst in train:
        remaining = inst.gold_labels - heldout
        if not remaining:
            continue  # no positive left; unusable for ranking supervision
        kept.append(replace(inst, gold_labels=remaining))
    return Dataset(name=train.name, split=train.split, instances=tuple(kept))


def make_fewshot_split(
    train: Dataset, test: Dataset, spec: FewShotSplitSpec
) -> tuple[Dataset, set[str]]:
    """Hold a random subset of test labels out of the training gold sets.

    A uniform subset H of the test label set is drawn so that
    ``|H| / |test labels|`` is within one label of the target fraction; every
    training instance's gold set is stripped of H, and instances left with no
    gold labels are dropped. Deterministic given the spec's seed.

    Raises :class:`SplitError` when the filtered training set would be empty,
    reporting the largest fraction achievable under the same seed.
    """
    if not len(train) or not len(test):
        raise ValidationError("make_fewshot_split requires nonempty train and test sets")
    pool = sorted(split_label_set(test))
    rng = substream(spec.seed, "split")
    permutation = rng.sample(pool, len(pool))
    n_target = round(spec.target_unseen_fraction * len(pool))
    heldout = set(permutation[:n_target])
    filtered = _filter_out_labels(train, heldout)
    if len(filtered) == 0:
        # Prefixes of the same permutation are nested, so the survivable
        # prefix length is well-defined; report it as the achievable maximum.
        n_max = n_target
        while n_max > 0 and len(_filter_out_labels(train, set(permutation[:n_max]))) == 0:
            n_max -= 1
        raise SplitError(
            f"unseen fraction {spec.target_unseen_fraction} empties the training set; "
            f"achievable maximum with seed {spec.seed} is {n_max}/{len(pool)} "
            f"({n_max / len(pool):.3f})"
        )
    return filtered, heldout


def fewshot_manifest(heldout: set[str], spec: FewShotSplitSpec) -> dict:
    return {
        "heldout_labels": sorted(heldout),
        "seed": spec.seed,
        "fraction": spec.target_unseen_fraction,
    }


def frequency_buckets(
    train: Dataset, test: Dataset, bucket_edges: list[int]
) -> dict[Bucket, set[str]]:
    """Partition the test label set by training-set occurrence count.

    ``bucket_edges`` must be strictly increasing and start at 0; edges
    [0, 1, 5] produce buckets [0, 1), [1, 5), [5, inf). The [0, 1) bucket is
    the zero-shot bucket. Every test label lands in exactly one bucket.
    """
    if any(isinstance(e, bool) or not isinstance(e, (int, float)) for e in bucket_edges):
        raise ValidationError(f"bucket_edges must be numbers, got {list(bucket_edges)}")
    if not bucket_edges or bucket_edges[0] != 0:
        raise ValidationError("bucket_edges must start at 0")
    if not all(a < b for a, b in zip(bucket_edges, bucket_edges[1:])):
        raise ValidationError("bucket_edges must be strictly increasing")
    counts = train_label_counts(train)
    buckets: dict[Bucket, set[str]] = {}
    edges: list[Bucket] = [
        (lo, hi) for lo, hi in zip(bucket_edges, list(bucket_edges[1:]) + [None])
    ]
    for bucket in edges:
        buckets[bucket] = set()
    for label in split_label_set(test):
        c = counts.get(label, 0)
        for lo, hi in edges:
            if c >= lo and (hi is None or c < hi):
                buckets[(lo, hi)].add(label)
                break
    return buckets


def format_bucket(bucket: Bucket) -> str:
    lo, hi = bucket
    return f"[{lo},{'inf' if hi is None else hi})"
